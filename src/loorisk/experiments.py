"""Monte-Carlo studies: elastic-net / ridge-logistic MSE tables, the K-fold
bias comparison, and the log-log slope regression.

Every replicate draws its data from an independent substream keyed by
(seed, n, rep), so results are identical whether replicates run serially
or in a process pool.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .bounds import compute_Cv_logistic
from .datagen import SimConfig, derive_seed, gen_replicate
from .oracles import TrueModel, err_out_linear, err_out_logistic
from .risk import kfold_cv, lo_exact
from .solver import Dataset, ModelSpec, SolverError, SolverOpts, fit

# l1-composite fits need plenty of cheap proximal iterations at tight
# tolerances; Newton never gets near this cap
_EXPERIMENT_MAX_ITER = 20000


@dataclass
class ExperimentResult:
    """Aggregated per-cell rows plus the optional log-log slope fit."""

    kind: str
    rows: list
    slope_fit: dict | None
    config_echo: SimConfig

    def to_dict(self):
        return {
            "kind": self.kind,
            "rows": self.rows,
            "slope_fit": self.slope_fit,
            "config_echo": self.config_echo.to_dict(),
        }


def mse_of_estimator(err_out_values, estimates):
    """Mean and standard error of the squared estimator error.

    The SE is the sample standard deviation of the per-replicate squared
    errors divided by sqrt(reps); undefined (None) for a single replicate.
    """
    err_out_values = np.asarray(err_out_values, dtype=float)
    estimates = np.asarray(estimates, dtype=float)
    if err_out_values.shape != estimates.shape or err_out_values.ndim != 1:
        raise ValueError("inputs must be equal-length vectors")
    if err_out_values.size < 1:
        raise ValueError("need at least one replicate")
    sq = (err_out_values - estimates) ** 2
    mse = float(np.mean(sq))
    if sq.size == 1:
        return mse, None
    return mse, float(np.std(sq, ddof=1) / np.sqrt(sq.size))


def fit_loglog_slope(ns, mses):
    """OLS of log(mse) on log(n) with coefficient standard errors."""
    ns = np.asarray(ns, dtype=float)
    mses = np.asarray(mses, dtype=float)
    if ns.size < 3:
        raise ValueError("need at least three points")
    if np.any(ns <= 0) or np.any(mses <= 0):
        raise ValueError("inputs must be positive")
    x = np.log(ns)
    y = np.log(mses)
    m = x.size
    xbar = x.mean()
    sxx = float(np.sum((x - xbar) ** 2))
    slope = float(np.sum((x - xbar) * (y - y.mean())) / sxx)
    intercept = float(y.mean() - slope * xbar)
    resid = y - (intercept + slope * x)
    ssr = float(resid @ resid)
    sst = float(np.sum((y - y.mean()) ** 2))
    sigma2 = ssr / (m - 2)
    slope_se = float(np.sqrt(sigma2 / sxx))
    intercept_se = float(np.sqrt(sigma2 * (1.0 / m + xbar**2 / sxx)))
    r2 = 1.0 - ssr / sst if sst > 0 else 1.0
    adj_r2 = 1.0 - (1.0 - r2) * (m - 1) / (m - 2)
    return {
        "slope": slope,
        "slope_se": slope_se,
        "intercept": intercept,
        "intercept_se": intercept_se,
        "adj_r2": float(adj_r2),
    }


def _solver_opts(opts):
    if opts is not None:
        return opts
    return SolverOpts(max_iter=_EXPERIMENT_MAX_ITER)


def _table_replicate(args):
    """One (n, rep) cell of a table run: (err_out in phi units, LO estimate)."""
    kind, config, model, n, rep, opts = args
    X, beta_star, y, cov = gen_replicate(config, n, rep)
    data = Dataset(X, y)
    full = fit(data, model, opts)
    if not full.converged:
        raise SolverError("full fit did not converge")
    lo = lo_exact(data, model, opts, full_fit=full)
    if kind == "table1":
        truth = TrueModel(beta_star, cov, noise_var=config.noise_var, family="linear")
        # phi is the half squared error; the closed form is full-square
        err = 0.5 * err_out_linear(full.beta_hat, truth)
    else:
        truth = TrueModel(beta_star, cov, family="logistic")
        err = err_out_logistic(full.beta_hat, truth)
    return err, lo.estimate


def _figure1_replicate(args):
    """One replicate of the K-fold comparison, in full-squared-error units."""
    _, config, model, n, rep, opts = args
    X, beta_star, y, cov = gen_replicate(config, n, rep)
    data = Dataset(X, y)
    full = fit(data, model, opts)
    if not full.converged:
        raise SolverError("full fit did not converge")
    truth = TrueModel(beta_star, cov, noise_var=config.noise_var, family="linear")
    out = {"oracle": err_out_linear(full.beta_hat, truth)}
    # LO / K-fold average the half-squared-error loss; report the full square
    lo = lo_exact(data, model, opts, full_fit=full)
    out["lo_exact"] = 2.0 * lo.estimate
    for K in config.k_folds:
        fold_seed = derive_seed(config.seed, n, rep, K)
        cv = kfold_cv(data, model, K, fold_seed, opts, full_fit=full)
        out[f"kfold{K}"] = 2.0 * cv.estimate
    return out


def _named_replicate(worker, task):
    """worker(task), with a SolverError naming the replicate (n, rep)."""
    _, _, _, n, rep, _ = task
    try:
        return worker(task)
    except SolverError as exc:
        raise SolverError(f"{exc} (n={n}, rep={rep})") from exc


def _run_replicates(worker, tasks, threads):
    run = partial(_named_replicate, worker)
    if threads and threads > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(run, tasks))
    return [run(task) for task in tasks]


def _run_table(kind, config, model, opts, threads):
    opts = _solver_opts(opts)
    rows = []
    mses = []
    for n in config.ns:
        start = time.perf_counter()
        tasks = [(kind, config, model, n, rep, opts) for rep in range(config.reps)]
        results = _run_replicates(_table_replicate, tasks, threads)
        errs = [r[0] for r in results]
        los = [r[1] for r in results]
        mse, mse_se = mse_of_estimator(errs, los)
        p = config.p_for(n)
        bound_over_n = None
        if kind == "table2":
            cov = config.sigma_for(n)
            bound_over_n = compute_Cv_logistic(cov.rho(p), n / p, model.lam) / n
        rows.append(
            {
                "n": n,
                "p": p,
                "lam": model.lam,
                "estimator": "lo_exact",
                "mse": mse,
                "mse_se": mse_se,
                "bound_over_n": bound_over_n,
                "wall_time": time.perf_counter() - start,
            }
        )
        mses.append(mse)
    slope_fit = None
    if len(config.ns) >= 3:
        slope_fit = fit_loglog_slope(config.ns, mses)
    return ExperimentResult(kind, rows, slope_fit, config)


# response family and regularizer each study is defined for (None: any)
_STUDIES = {
    "table1": ("linear", "elastic_net"),
    "table2": ("logistic", "ridge"),
    "figure1": ("linear", None),
}


def check_study(kind, config, model):
    """Raise ValueError when config and model do not fit the study kind."""
    family, reg = _STUDIES[kind]
    if config.family != family:
        raise ValueError(f"{kind} requires the {family} family")
    if reg is not None and model.reg.family != reg:
        raise ValueError(f"{kind} requires the {reg} regularizer")
    if kind == "figure1" and not config.k_folds:
        raise ValueError("figure1 requires a nonempty k_folds list")


def run_table1(config, model, opts=None, threads=1):
    """Elastic-net linear study: MSE of exact LO against the linear oracle."""
    check_study("table1", config, model)
    return _run_table("table1", config, model, opts, threads)


def run_table2(config, model, opts=None, threads=1):
    """Ridge-logistic study: MSE of exact LO plus the bound column."""
    check_study("table2", config, model)
    return _run_table("table2", config, model, opts, threads)


def run_figure1(config, model, opts=None, threads=1):
    """K-fold vs LO vs oracle comparison over a lambda grid.

    Rows hold the mean estimate per estimator (mse field) and its standard
    error (mse_se field), in full-squared-error units, ordered for plotting.
    """
    check_study("figure1", config, model)
    opts = _solver_opts(opts)
    lambdas = config.lambdas if config.lambdas else (model.lam,)
    n = config.ns[0]
    p = config.p_for(n)
    rows = []
    for lam in lambdas:
        lam_model = ModelSpec(model.loss, model.reg, lam, model.phi)
        start = time.perf_counter()
        tasks = [("figure1", config, lam_model, n, rep, opts) for rep in range(config.reps)]
        results = _run_replicates(_figure1_replicate, tasks, threads)
        wall = time.perf_counter() - start
        names = [f"kfold{K}" for K in config.k_folds] + ["lo_exact", "oracle"]
        for name in names:
            values = np.array([r[name] for r in results])
            se = (
                float(np.std(values, ddof=1) / np.sqrt(values.size))
                if values.size > 1
                else None
            )
            rows.append(
                {
                    "n": n,
                    "p": p,
                    "lam": lam,
                    "estimator": name,
                    "mse": float(np.mean(values)),
                    "mse_se": se,
                    "bound_over_n": None,
                    "wall_time": wall,
                }
            )
    return ExperimentResult("figure1", rows, None, config)
