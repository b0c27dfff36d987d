"""Finite-sample bound constants and numerical assumption audits.

The closed-form constants follow their defining formulas; for
cross-checking, the ridge-logistic variance constant evaluates to 6511.52
at (rho, delta, lambda) = (1, 1, 0.1).

Audits are sample estimates: the curvature floor is a minimum of segment
Hessian eigenvalues over sampled rows and a t-grid, and the tilde moments
are plain sample means of the 8th/4th powers, labeled as estimates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .losses import LossSpec, _loss_terms, loss_derivative_bound, loss_eval
from .regularizers import reg_curvature_diag
from .solver import _weighted_gram


@dataclass
class AssumptionAudit:
    """Empirical stand-ins for the bound constants.

    c0_emp: max |loss first derivative| over the data, including each
    held-out row scored against its leave-one-out fit.
    nu_emp: min over sampled rows and the t-grid of the smallest eigenvalue
    of the segment Hessians.
    tilde_moments: sample means of |d1|^8, ||x||^4 and sigma_min^{-8}.
    """

    c0_emp: float
    nu_emp: float
    tilde_moments: dict
    t_grid_size: int
    sampled_indices: tuple


@dataclass
class BoundReport:
    rho: float
    delta: float
    c0: float
    c1: float
    nu: float
    C_b: float
    C_v: float = float("nan")
    bound_over_n: float = float("nan")
    audit: AssumptionAudit | None = None


def _check(rule, **values):
    """Raise ValueError naming the first value that is not finite and rule."""
    for name, value in values.items():
        if not (0 < value < np.inf or (rule == "nonnegative" and value == 0)):
            raise ValueError(f"{name} = {value} must be {rule} and finite")


def _checked(name, compute):
    """compute() with overflow silenced; ValueError names a result not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            value = compute()
        except OverflowError:  # Python's float power raises where numpy gives inf
            value = np.inf
    _check("nonnegative", **{name: value})
    return value


def compute_Cb(c0, c1, rho, delta, nu):
    """Bias constant (c0 c1 rho sqrt(delta) / nu)^2."""
    _check("positive", c0=c0, c1=c1, rho=rho, delta=delta, nu=nu)
    return _checked("C_b", lambda: (c0 * c1 * rho * np.sqrt(delta) / nu) ** 2)


def compute_Cb_tilde(c1, rho, delta, ell_dot_8th, inv_sigma_min_8th, x_norm_4th):
    """Moment-based bias constant c1^2 rho delta c~0 nu~ c4.

    The three moment arguments are population quantities; in practice they
    come from AssumptionAudit.tilde_moments and the result is an estimate,
    never a certified bound.
    """
    _check(
        "nonnegative",
        c1=c1,
        rho=rho,
        delta=delta,
        ell_dot_8th=ell_dot_8th,
        inv_sigma_min_8th=inv_sigma_min_8th,
        x_norm_4th=x_norm_4th,
    )
    return _checked(
        "C_b_tilde",
        lambda: c1**2 * rho * delta * ell_dot_8th * inv_sigma_min_8th * x_norm_4th,
    )


def compute_Cv_from_parts(E_var, C_b):
    """Variance constant from its two ingredients.

    C_v = E_var + 2 C_b + 2 sqrt(C_b) sqrt(E_var + C_b).
    """
    _check("nonnegative", E_var=E_var, C_b=C_b)
    return _checked(
        "C_v", lambda: E_var + 2.0 * C_b + 2.0 * np.sqrt(C_b) * np.sqrt(E_var + C_b)
    )


def _ridge_logistic_report(rho, delta, lam, n=None):
    """The ridge-logistic bound, the one place its constants are written.

    c0 = c1 = 2 (the logistic loss_derivative_bound), nu = lam, C_b =
    (4 rho sqrt(delta) / lam)^2, C_v at E_var = 6 + 5 rho delta / lam, and
    bound_over_n = C_v / n, NaN without n.
    """
    _check("positive", rho=rho, delta=delta, lam=lam)
    c = loss_derivative_bound(LossSpec("logistic"))
    C_b = compute_Cb(c, c, rho, delta, lam)
    C_v = compute_Cv_from_parts(6.0 + 5.0 * rho * delta / lam, C_b)
    bound_over_n = C_v / n if n is not None else float("nan")
    return BoundReport(
        rho, delta, c0=c, c1=c, nu=lam, C_b=C_b, C_v=C_v, bound_over_n=bound_over_n
    )


def compute_Cv_logistic(rho, delta, lam):
    """Ridge-logistic variance constant: C_v of _ridge_logistic_report."""
    return _ridge_logistic_report(rho, delta, lam).C_v


def pick_audit_indices(n, count=25):
    """Deterministic, evenly spaced subset of row indices; count >= 1."""
    if count < 1:
        raise ValueError("count must be >= 1")
    count = min(n, count)
    return tuple(int(i) for i in np.unique(np.linspace(0, n - 1, count).round()))


def _segment_sigma_min(data, model, beta_full, beta_loo, i, t_grid):
    """inf over the t-grid of sigma_min(A_{t,/i}); responses already checked."""
    from scipy.linalg import eigvalsh
    rest = data.drop_rows(i)
    best = np.inf
    for t in t_grid:
        beta_t = t * beta_loo + (1.0 - t) * beta_full
        _, _, d2 = _loss_terms(model.loss, rest.y, rest.X @ beta_t)
        curvature = model.lam * reg_curvature_diag(model.reg, beta_t)
        A = _weighted_gram(rest.X, d2, curvature)
        sigma_min = eigvalsh(A, subset_by_index=[0, 0], lower=True)[0]
        best = min(best, float(sigma_min))
    return best


def audit_assumptions(data, model, full_fit, loo_fits, t_grid_size=11):
    """Empirical audit of the derivative bound and curvature floor.

    loo_fits maps row index -> leave-one-out FitResult for the sampled rows;
    the t-grid is uniform on [0, 1] including endpoints.
    """
    if t_grid_size < 2:
        raise ValueError("t_grid_size must be >= 2")
    beta = np.asarray(full_fit.beta_hat, dtype=float)
    _, d1, _ = loss_eval(model.loss, data.y, data.X @ beta)
    # each audited row scored against its own fit, on the responses checked above
    rows = list(loo_fits)
    z_loo = np.array([data.X[i] @ loo_fits[i].beta_hat for i in rows], dtype=float)
    _, d1_loo, _ = _loss_terms(model.loss, data.y[rows], z_loo)
    c0_emp = float(np.max(np.abs(np.concatenate([d1, d1_loo]))))

    t_grid = np.linspace(0.0, 1.0, t_grid_size)
    inv_eighth = []
    nu_emp = np.inf
    for i, res in loo_fits.items():
        sigma_min = _segment_sigma_min(data, model, beta, res.beta_hat, i, t_grid)
        nu_emp = min(nu_emp, sigma_min)
        inv_eighth.append(sigma_min**-8 if sigma_min > 0 else np.inf)

    tilde = {
        "ell_dot_8th": float(np.mean(np.abs(d1) ** 8)),
        "x_norm_4th": float(np.mean(np.sum(data.X**2, axis=1) ** 2)),
        "inv_sigma_min_8th": float(np.mean(inv_eighth)) if inv_eighth else np.nan,
    }
    return AssumptionAudit(
        c0_emp=c0_emp,
        nu_emp=float(nu_emp),
        tilde_moments=tilde,
        t_grid_size=t_grid_size,
        sampled_indices=tuple(sorted(loo_fits)),
    )


def check_perturb_lemma(data, model, full_fit, loo_fits, nu_emp):
    """Per-row check of the leave-one-out perturbation bound.

    ||beta_loo - beta_full|| <= |d1_i(beta_full)| ||x_i|| / nu_emp must hold
    for every audited row; slack is rhs - lhs (equality cases get a tiny
    tolerance).
    """
    _check("positive", nu_emp=nu_emp)
    beta = np.asarray(full_fit.beta_hat, dtype=float)
    audited = sorted(loo_fits)
    z = np.array([data.X[i] @ beta for i in audited], dtype=float)
    _, d1, _ = loss_eval(model.loss, data.y[audited], z)
    rows = []
    for i, d1_i in zip(audited, d1):
        lhs = float(np.linalg.norm(loo_fits[i].beta_hat - beta))
        rhs = abs(float(d1_i)) * float(np.linalg.norm(data.X[i])) / nu_emp
        rows.append(
            {
                "i": int(i),
                "lhs": lhs,
                "rhs": rhs,
                "holds": bool(lhs <= rhs + 1e-9 * (1.0 + rhs)),
                "slack": rhs - lhs,
            }
        )
    return rows
