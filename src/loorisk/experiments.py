"""Monte-Carlo studies: elastic-net / ridge-logistic MSE tables, the K-fold
bias comparison, and the log-log slope regression.

Every replicate draws its data from an independent substream keyed by
(seed, n, rep), and pool workers take the starting process's BLAS threads,
so results are identical whether replicates run serially or in a pool.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, replace

import numpy as np

from .bounds import _ridge_logistic_report
from .datagen import SimConfig, derive_seed, gen_replicate
from .oracles import TrueModel, err_out_linear, err_out_logistic
from .risk import kfold_cv, lo_exact
from .solver import Dataset, SolverError, _openblas, _pin_blas, fit


@dataclass
class ExperimentResult:
    """Aggregated per-cell rows plus the optional log-log slope fit."""

    kind: str
    rows: list
    slope_fit: dict | None
    config_echo: SimConfig


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
    return _mean_se((err_out_values - estimates) ** 2)


def _mean_se(values):
    """Mean and standard error of a sample; the SE is None for one value."""
    mean = float(np.mean(values))
    if values.size == 1:
        return mean, None
    return mean, float(np.std(values, ddof=1) / np.sqrt(values.size))


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


def _fitted_replicate(config, model, n, rep, opts=None):
    """(data, beta_star, cov, converged full fit) of replicate rep at n."""
    X, beta_star, y, cov = gen_replicate(config, n, rep)
    data = Dataset(X, y)
    full = fit(data, model, opts)
    if not full.converged:
        raise SolverError("full fit did not converge")
    return data, beta_star, cov, full


def _replicate(task):
    """K-fold (figure1), LO and oracle values of one replicate, keyed in row order.

    LO refits before K-fold; values are in phi units; a SolverError names (n, rep).
    """
    kind, config, model, n, rep, opts = task
    try:
        data, beta_star, cov, full = _fitted_replicate(config, model, n, rep, opts)
        if kind == "table2":
            truth = TrueModel(beta_star, cov, family="logistic")
            oracle = err_out_logistic(full.beta_hat, truth)
        else:
            truth = TrueModel(beta_star, cov, noise_var=config.noise_var)
            # phi is the half squared error; the closed form is full-square
            oracle = 0.5 * err_out_linear(full.beta_hat, truth)
        lo = lo_exact(data, model, opts, full_fit=full)
        out = {}
        for K in config.k_folds if kind == "figure1" else ():
            fold_seed = derive_seed(config.seed, n, rep, K)
            cv = kfold_cv(data, model, K, fold_seed, opts, full_fit=full)
            out[f"kfold{K}"] = cv.estimate
        out.update(lo_exact=lo.estimate, oracle=oracle)
    except SolverError as exc:
        raise SolverError(f"{exc} (n={n}, rep={rep})") from exc
    return out


def _cell_rows(kind, config, model, n, results, wall_time):
    """Rows of one cell: the LO MSE for a table, each estimator's mean for figure1."""
    p = config.p_for(n)
    if kind == "figure1":
        # the replicates hold half squared errors; report the full square
        stats = {
            name: _mean_se(np.array([2.0 * r[name] for r in results]))
            for name in results[0]
        }
    else:
        oracle = [r["oracle"] for r in results]
        stats = {"lo_exact": mse_of_estimator(oracle, [r["lo_exact"] for r in results])}
    bound_over_n = None
    if kind == "table2":
        rho = config.sigma_for(n).rho(p)
        bound_over_n = _ridge_logistic_report(rho, n / p, model.lam, n).bound_over_n
    return [
        {
            "n": n,
            "p": p,
            "lam": model.lam,
            "estimator": name,
            "mse": mse,
            "mse_se": mse_se,
            "bound_over_n": bound_over_n,
            "wall_time": wall_time,
        }
        for name, (mse, mse_se) in stats.items()
    ]


def _run_study(kind, config, model, opts, threads):
    """Every cell of a study on a pool of min(threads, reps) processes (serial for 1).

    A table cell is one n; a figure1 cell is one lambda at the first n.  The
    pool is the one parallel layer; its workers take this process's BLAS threads.
    """
    check_study(kind, config, model)
    if kind == "figure1":
        lambdas = config.lambdas or (model.lam,)
        cells = [(config.ns[0], replace(model, lam=lam)) for lam in lambdas]
    else:
        cells = [(n, model) for n in config.ns]
    workers = min(threads or 1, config.reps)
    parallel, pool, rows = workers > 1, nullcontext(), []
    if parallel:
        blas = {name: get() for name, get in _openblas("get").items()}
        pool = ProcessPoolExecutor(workers, initializer=_pin_blas, initargs=(blas,))
    with pool:
        run = pool.map if parallel else map
        for n, cell_model in cells:
            start = time.perf_counter()
            tasks = [(kind, config, cell_model, n, r, opts) for r in range(config.reps)]
            results = list(run(_replicate, tasks))
            wall = time.perf_counter() - start
            rows += _cell_rows(kind, config, cell_model, n, results, wall)
    slope_fit = None
    if kind != "figure1" and len(config.ns) >= 3:
        slope_fit = fit_loglog_slope(config.ns, [row["mse"] for row in rows])
    return ExperimentResult(kind, rows, slope_fit, config)


# response family, regularizer (None: any) and error-function loss of each
# study; the loss is the one its oracle scores
_STUDIES = {
    "table1": ("linear", "elastic_net", "squared"),
    "table2": ("logistic", "ridge", "logistic"),
    "figure1": ("linear", None, "squared"),
}


def check_study(kind, config, model):
    """Raise ValueError when config and model do not fit the study kind."""
    family, reg, phi = _STUDIES[kind]
    if config.family != family:
        raise ValueError(f"{kind} requires the {family} family")
    if reg is not None and model.reg.family != reg:
        raise ValueError(f"{kind} requires the {reg} regularizer")
    if model.phi_spec.family != phi:
        raise ValueError(f"{kind} requires the {phi} loss as its error function")
    if kind == "figure1":
        if not config.k_folds:
            raise ValueError("figure1 requires a nonempty k_folds list")
        n = config.ns[0]
        if not all(2 <= K <= n for K in config.k_folds):
            raise ValueError(f"figure1 requires 2 <= K <= n = {n} for every K")


def run_table1(config, model, opts=None, threads=1):
    """Elastic-net linear study: MSE of exact LO against the linear oracle."""
    return _run_study("table1", config, model, opts, threads)


def run_table2(config, model, opts=None, threads=1):
    """Ridge-logistic study: MSE of exact LO plus the bound column."""
    return _run_study("table2", config, model, opts, threads)


def run_figure1(config, model, opts=None, threads=1):
    """K-fold vs LO vs oracle comparison over a lambda grid.

    Rows hold the mean estimate per estimator (mse field) and its standard
    error (mse_se field), in full-squared-error units, ordered for plotting.
    """
    return _run_study("figure1", config, model, opts, threads)
