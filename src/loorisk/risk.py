"""LO, ALO and K-fold estimates of the out-of-sample error.

refits yields one refit per held-out group of rows, warm-started at the
full-data solution; it is the only loop over held-out sets.  lo_exact holds
out each row, kfold_cv each fold of a seeded shuffle, and both score the
held-out rows against their refit.  alo replaces the refits with a single
factorization plus rank-one leverage corrections.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from .losses import loss_eval
from .regularizers import reg_curvature_diag, reg_eval
from .solver import SolverError, _weighted_gram, fit, fit_leave_one_out

log = logging.getLogger(__name__)

# leverage values this close to 1 put the correction at its pole
_POLE_TOL = 1e-12


@dataclass
class RiskReport:
    """Per-observation risk values and their average.

    Entries flagged at the leverage pole are +inf in per_sample and excluded
    from the estimate; n_flagged reports how many.
    """

    per_sample: np.ndarray
    estimate: float
    method: str
    h_diag: np.ndarray | None = None
    active_set: np.ndarray | None = None
    n_flagged: int = 0


def _phi_values(model, y, z):
    values, _, _ = loss_eval(model.phi_spec, y, z)
    return np.asarray(values, dtype=float)


def _aggregate(per_sample):
    finite = np.isfinite(per_sample)
    n_flagged = int(per_sample.size - np.count_nonzero(finite))
    if n_flagged == 0:
        estimate = float(np.mean(per_sample))
    elif np.any(finite):
        estimate = float(np.mean(per_sample[finite]))
    else:
        estimate = float("nan")
    return estimate, n_flagged


def refits(data, model, groups, full_fit, opts=None):
    """Refit without each group of rows, warm-started at full_fit.

    Yields (rows, FitResult) per group; a refit that does not converge
    raises SolverError naming its rows.
    """
    for rows in groups:
        res = fit_leave_one_out(data, model, rows, warm=full_fit.beta_hat, opts=opts)
        if not res.converged:
            raise SolverError(
                f"refit without rows {np.atleast_1d(rows).tolist()} did not converge"
            )
        yield rows, res


def _refit_report(data, model, groups, full, opts, method):
    """Score every held-out row against the refit that left it out."""
    if not full.converged:
        raise SolverError("full-data fit did not converge")
    per_sample = np.empty(data.n)
    for rows, res in refits(data, model, groups, full, opts):
        for i in np.atleast_1d(rows):
            per_sample[i] = _phi_values(
                model, data.y[i], float(data.X[i] @ res.beta_hat)
            )
    estimate, n_flagged = _aggregate(per_sample)
    return RiskReport(per_sample, estimate, method, n_flagged=n_flagged)


def lo_exact(data, model, opts=None, full_fit=None):
    """Exact leave-one-out: refit without each row, score the held-out row.

    Pass full_fit to reuse an existing full-data solution as the warm start
    for the refits; otherwise one is computed here.
    """
    if data.n < 2:
        raise ValueError("leave-one-out requires n >= 2")
    full = full_fit if full_fit is not None else fit(data, model, opts)
    return _refit_report(data, model, range(data.n), full, opts, "lo_exact")


def _leverage_smooth(data, model, beta, d2):
    A = _weighted_gram(data.X, d2)
    idx = np.diag_indices_from(A)
    _, _, reg_hess = reg_eval(model.reg, beta)
    A[idx] += model.lam * reg_hess
    try:
        factor = cho_factor(A, lower=True)
    except LinAlgError as exc:
        raise SolverError("singular curvature matrix in ALO") from exc
    W = cho_solve(factor, data.X.T)
    return np.einsum("ij,ji->i", data.X, W) * d2


def _leverage_l1(data, model, beta, d2, active_tol):
    scale = float(np.max(np.abs(beta))) if beta.size else 0.0
    active = np.flatnonzero(np.abs(beta) > active_tol * scale)
    if active.size == 0:
        return np.zeros(data.n), active
    if active.size > data.n:
        raise SolverError(
            f"active set of size {active.size} exceeds n={data.n}; "
            "the restricted curvature matrix cannot be inverted"
        )
    Xs = data.X[:, active]
    A = _weighted_gram(Xs, d2)
    idx = np.diag_indices_from(A)
    A[idx] += model.lam * reg_curvature_diag(model.reg, beta[active])
    try:
        factor = cho_factor(A, lower=True)
    except LinAlgError as exc:
        raise SolverError("singular active-set curvature matrix in ALO") from exc
    W = cho_solve(factor, Xs.T)
    return np.einsum("ij,ji->i", Xs, W) * d2, active


def alo(data, model, full_fit, active_tol=1e-8):
    """Approximate LO from the full-data fit via leverage corrections.

    Smooth regularizers use the full generalized hat matrix; l1-family
    regularizers restrict the design to the active set (coordinates whose
    magnitude exceeds active_tol relative to the largest) and keep the
    curvature of the penalty's quadratic part there (zero for pure l1).  Entries with
    leverage at the pole are flagged +inf, never silently dropped.
    """
    if not full_fit.converged:
        raise ValueError("alo requires a converged full fit")
    beta = np.asarray(full_fit.beta_hat, dtype=float)
    z = data.X @ beta
    _, d1, d2 = loss_eval(model.loss, data.y, z)

    active = None
    if model.reg.is_smooth:
        if np.any(d2 <= 0):
            raise SolverError("ALO smooth path requires positive loss curvature")
        h = _leverage_smooth(data, model, beta, d2)
    else:
        h, active = _leverage_l1(data, model, beta, d2, active_tol)
        if np.any((h < 0) | (h >= 1)):
            log.warning(
                "l1 ALO leverage outside [0, 1): min=%g max=%g",
                float(np.min(h)),
                float(np.max(h)),
            )

    at_pole = h >= 1.0 - _POLE_TOL
    per_sample = np.full(data.n, np.inf)
    ok = ~at_pole
    with np.errstate(divide="ignore", invalid="ignore"):
        correction = np.where(ok, h / (1.0 - h), 0.0) * d1 / d2
    per_sample[ok] = _phi_values(model, data.y[ok], z[ok] + correction[ok])
    estimate, n_flagged = _aggregate(per_sample)
    if n_flagged:
        log.warning("%d ALO entries at the leverage pole were flagged", n_flagged)
    return RiskReport(
        per_sample, estimate, "alo", h_diag=h, active_set=active, n_flagged=n_flagged
    )


def fold_assignments(n, K, seed):
    """Fold label per row: seeded shuffle, contiguous blocks, sizes within 1."""
    perm = np.random.default_rng(seed).permutation(n)
    sizes = np.full(K, n // K)
    sizes[: n % K] += 1
    labels = np.empty(n, dtype=int)
    start = 0
    for fold, size in enumerate(sizes):
        labels[perm[start : start + size]] = fold
        start += size
    return labels


def kfold_cv(data, model, K, seed, opts=None):
    """K-fold cross validation; K = n reproduces lo_exact exactly."""
    if not 2 <= K <= data.n:
        raise ValueError("K must satisfy 2 <= K <= n")
    labels = fold_assignments(data.n, K, seed)
    folds = [np.flatnonzero(labels == fold) for fold in range(K)]
    return _refit_report(data, model, folds, fit(data, model, opts), opts, "kfold")
