"""LO, ALO and K-fold estimates of the out-of-sample error.

refits yields one refit per held-out group of rows, warm-started at the
full-data solution, for every penalty through solver.fit_leave_groups_out,
which refits a block of groups at a time (Woodbury-corrected Newton for
smooth penalties, lockstep FISTA for l1 and elastic net); it is the only
loop over held-out sets.  lo_exact holds out each row,
kfold_cv each fold of a seeded shuffle, and both score the held-out rows
against their refit.  alo replaces the refits with a single
factorization plus rank-one leverage corrections.  Each estimator checks
the responses once on entry and scores with the unchecked loss kernel.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .losses import _check_response, _loss_terms, _loss_value
from .regularizers import reg_curvature_diag, strong_convexity_lower
from .solver import SolverError, _as_coefs, _hessian_factor, fit, fit_leave_groups_out

log = logging.getLogger(__name__)

# leverage values this close to 1 put the correction at its pole
_POLE_TOL = 1e-12
# l1-family ALO keeps the coordinates whose magnitude exceeds this fraction
# of the largest
_ACTIVE_TOL = 1e-8


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


def _aggregate(per_sample):
    finite = np.isfinite(per_sample)
    estimate = float(np.mean(per_sample[finite])) if finite.any() else float("nan")
    return estimate, int(per_sample.size - np.count_nonzero(finite))


def refits(data, model, groups, full_fit, opts=None):
    """Refit without each group of rows, warm-started at full_fit.

    Yields (rows, FitResult) per group, in order of the groups' smallest
    rows; a refit that does not converge raises SolverError naming its rows.
    """
    results = fit_leave_groups_out(data, model, groups, full_fit.beta_hat, opts)
    for rows, res in results:
        if not res.converged:
            raise SolverError(
                f"refit without rows {np.atleast_1d(rows).tolist()} did not converge"
            )
        yield rows, res


def _refit_report(data, model, groups, full_fit, opts, method):
    """Score each held-out row against its refit; full_fit=None fits here."""
    _check_response(model.phi_spec, data.y)
    full = full_fit if full_fit is not None else fit(data, model, opts)
    if not full.converged:
        raise SolverError("full-data fit did not converge")
    z = np.empty(data.n)
    for rows, res in refits(data, model, groups, full, opts):
        for i in np.atleast_1d(rows):
            z[i] = data.X[i] @ res.beta_hat
    per_sample = _loss_value(model.phi_spec, data.y, z)
    estimate, n_flagged = _aggregate(per_sample)
    return RiskReport(per_sample, estimate, method, n_flagged=n_flagged)


def lo_exact(data, model, opts=None, full_fit=None):
    """Exact leave-one-out: refit without each row, score the held-out row.

    Pass full_fit to reuse an existing full-data solution as the warm start
    for the refits; otherwise one is computed here.
    """
    if data.n < 2:
        raise ValueError("leave-one-out requires n >= 2")
    return _refit_report(data, model, range(data.n), full_fit, opts, "lo_exact")


def _leverage(Xs, d2, curvature):
    """q_i = x_i^T A^{-1} x_i with A = Xs^T diag(d2) Xs + diag(curvature).

    With A = L L^T, q_i is the squared norm of column i of L^{-1} Xs^T: one
    triangular solve, and q >= 0 by construction.
    """
    if Xs.shape[1] == 0:
        return np.zeros(Xs.shape[0])
    try:
        factor = _hessian_factor(Xs, d2, curvature)
    except np.linalg.LinAlgError as exc:
        raise SolverError("singular curvature matrix in ALO") from exc
    from scipy.linalg import solve_triangular
    V = solve_triangular(factor[0], Xs.T, lower=True, check_finite=False)
    return np.einsum("ij,ij->j", V, V)


def alo(data, model, full_fit):
    """Approximate LO from the full-data fit via leverage corrections.

    Smooth regularizers use the full generalized hat matrix; l1-family
    regularizers restrict the design to the active set (coordinates whose
    magnitude exceeds _ACTIVE_TOL relative to the largest) and keep the
    curvature of the penalty's quadratic part there (zero for pure l1).  An
    active set larger than n raises SolverError unless that curvature is
    positive (elastic net with mix < 1).  Entries with leverage at the pole
    are flagged +inf, never silently dropped.
    """
    if not full_fit.converged:
        raise ValueError("alo requires a converged full fit")
    beta = _as_coefs(data, model.loss, full_fit.beta_hat, "full_fit.beta_hat")
    _check_response(model.phi_spec, data.y)
    z = data.X @ beta
    _, d1, d2 = _loss_terms(model.loss, data.y, z)

    if model.reg.is_smooth:
        active, Xs, beta_s = None, data.X, beta
    else:
        scale = float(np.max(np.abs(beta))) if beta.size else 0.0
        active = np.flatnonzero(np.abs(beta) > _ACTIVE_TOL * scale)
        if active.size > data.n and strong_convexity_lower(model.reg, model.lam) == 0:
            raise SolverError(
                f"active set of size {active.size} exceeds n={data.n}; "
                "the restricted curvature matrix cannot be inverted"
            )
        Xs, beta_s = data.X[:, active], beta[active]
    q = _leverage(Xs, d2, model.lam * reg_curvature_diag(model.reg, beta_s))
    h = d2 * q
    if active is not None and np.any((h < 0) | (h >= 1)):
        log.warning("l1 ALO leverage outside [0, 1): min=%g max=%g", h.min(), h.max())

    # x_i^T beta_/i ~ z_i + q_i ell'_i / (1 - h_i): no division by ell'', so
    # rows whose curvature underflows to 0 keep a finite correction
    ok = h < 1.0 - _POLE_TOL
    per_sample = np.full(data.n, np.inf)
    z_loo = z[ok] + q[ok] * d1[ok] / (1.0 - h[ok])
    per_sample[ok] = _loss_value(model.phi_spec, data.y[ok], z_loo)
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
    labels[perm] = np.repeat(np.arange(K), sizes)
    return labels


def kfold_cv(data, model, K, seed, opts=None, full_fit=None):
    """K-fold cross validation; K = n reproduces lo_exact exactly.

    The refits run in order of each fold's smallest row, so with K = n they
    run exactly as lo_exact's and the per-row values are bit for bit the
    same.  full_fit, when given, is the refits' warm start, as in lo_exact.
    """
    if not 2 <= K <= data.n:
        raise ValueError("K must satisfy 2 <= K <= n")
    labels = fold_assignments(data.n, K, seed)
    folds = [np.flatnonzero(labels == fold) for fold in range(K)]
    return _refit_report(data, model, folds, full_fit, opts, "kfold")
