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


def _half_linear(beta_hat, truth):
    """The linear oracle in phi units: phi is the half squared error."""
    return 0.5 * err_out_linear(beta_hat, truth)


# response family, regularizer (None: any), error-function loss (the one its
# oracle scores), oracle in phi units and bound report (None: no bound column)
_STUDIES = {
    "table1": ("linear", "elastic_net", "squared", _half_linear, None),
    "table2": (
        "logistic", "ridge", "logistic", err_out_logistic, _ridge_logistic_report
    ),
    "figure1": ("linear", None, "squared", _half_linear, None),
}


def _replicate(task):
    """One replicate's values, in row order, that its cell's rows average: LO's
    squared error against the oracle for a table; for figure1 K-fold, LO (which
    refits first) and the oracle, doubled to full-square units.  A SolverError
    names (n, rep)."""
    kind, config, model, n, rep, opts = task
    try:
        data, beta_star, cov, full = _fitted_replicate(config, model, n, rep, opts)
        truth = TrueModel(beta_star, cov, config.noise_var, config.family)
        oracle = _STUDIES[kind][3](full.beta_hat, truth)
        lo = lo_exact(data, model, opts, full_fit=full).estimate
        if kind != "figure1":
            d = oracle - lo
            return {"lo_exact": d * d}
        out = {}
        for K in config.k_folds:
            fold_seed = derive_seed(config.seed, n, rep, K)
            cv = kfold_cv(data, model, K, fold_seed, opts, full_fit=full)
            out[f"kfold{K}"] = 2.0 * cv.estimate
        out.update(lo_exact=2.0 * lo, oracle=2.0 * oracle)
    except SolverError as exc:
        raise SolverError(f"{exc} (n={n}, rep={rep})") from exc
    return out


def _cell_rows(kind, config, model, n, results, wall_time):
    """Rows of one cell, each the mean and SE of one replicate value."""
    p, report, bound_over_n = config.p_for(n), _STUDIES[kind][4], None
    if report is not None:
        rho = config.sigma_for(n).rho(p)
        bound_over_n = report(rho, n / p, model.lam, n).bound_over_n
    stats = {k: _mean_se(np.array([r[k] for r in results])) for k in results[0]}
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
    """Every cell (n, lambda), lambda over lambdas or the model's, on a pool of
    min(threads, reps) processes, serial for one.  The pool is the one parallel
    layer; its workers take this process's BLAS threads."""
    check_study(kind, config, model)
    lambdas = config.lambdas or (model.lam,)
    cells = [(n, replace(model, lam=lam)) for n in config.ns for lam in lambdas]
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
    mses = [row["mse"] for row in rows]
    slope_fit = fit_loglog_slope(config.ns, mses) if len(config.ns) >= 3 else None
    return ExperimentResult(kind, rows, slope_fit, config)


def check_study(kind, config, model):
    """Raise ValueError when config and model do not fit the study kind,
    or carry input it would not read: k_folds, lambdas, a second n."""
    family, reg, phi, _, _ = _STUDIES[kind]
    if config.family != family:
        raise ValueError(f"{kind} requires the {family} family")
    if reg is not None and model.reg.family != reg:
        raise ValueError(f"{kind} requires the {reg} regularizer")
    if model.phi_spec.family != phi:
        raise ValueError(f"{kind} requires the {phi} loss as its error function")
    if kind != "figure1":
        for key in ("k_folds", "lambdas"):
            if getattr(config, key) is not None:
                raise ValueError(f"{kind} does not use {key}; only figure1 does")
    elif len(config.ns) != 1:
        raise ValueError(f"figure1 runs one n; got ns = {config.ns}")
    elif not config.k_folds:
        raise ValueError("figure1 requires a nonempty k_folds list")
    elif not all(2 <= K <= config.ns[0] for K in config.k_folds):
        raise ValueError(f"figure1 requires 2 <= K <= n = {config.ns[0]} for every K")


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
