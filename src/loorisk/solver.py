"""Penalized GLM fitting and the refit primitive.

fit(data, model, opts, beta0) starts from beta0 (zeros by default).  Smooth
objectives (ridge / smoothed elastic net) use a damped Newton method with
Armijo backtracking; the factorized Hessian is reused across steps and
refreshed only when progress degrades, which keeps warm-started refits at
roughly one factorization each.  l1-composite objectives use a monotone
FISTA with backtracking step size and adaptive restart.

fit_leave_one_out refits without one row or a set of rows; LO, K-fold and
the assumption audit all go through it.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve
from scipy.linalg.blas import dsyrk

from .losses import LossSpec, _check_response, _loss_terms
from .regularizers import RegSpec, prox_step, reg_eval, reg_value

log = logging.getLogger(__name__)

_ARMIJO = 1e-4
_LINE_SEARCH_SHRINK = 0.5
_MIN_STEP = 1e-15
# refresh the factorized Hessian when one step fails to cut the gradient
# norm by at least this factor
_REFRESH_RATIO = 0.25


class SolverError(RuntimeError):
    """A fit that the caller required to converge did not."""


@dataclass
class Dataset:
    """Design matrix (n x p) and response vector (n,)."""

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        self.X = np.ascontiguousarray(self.X, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        if self.X.ndim != 2 or self.y.ndim != 1:
            raise ValueError("X must be 2-d and y 1-d")
        if self.X.shape[0] != self.y.shape[0]:
            raise ValueError("X and y disagree on the number of rows")
        if not (np.all(np.isfinite(self.X)) and np.all(np.isfinite(self.y))):
            raise ValueError("non-finite entries in dataset")

    @property
    def n(self):
        return self.X.shape[0]

    @property
    def p(self):
        return self.X.shape[1]

    def drop_rows(self, rows):
        """The dataset without the given rows (an index or an index array)."""
        keep = np.ones(self.n, dtype=bool)
        keep[rows] = False
        return Dataset(self.X[keep], self.y[keep])


@dataclass(frozen=True)
class ModelSpec:
    """Loss + regularizer + penalty level, and the error function phi.

    phi defaults to the loss itself, the standard choice.
    """

    loss: LossSpec
    reg: RegSpec
    lam: float
    phi: LossSpec | None = None

    def __post_init__(self):
        if not self.lam > 0:
            raise ValueError("lam must be positive")

    @property
    def phi_spec(self):
        return self.phi if self.phi is not None else self.loss


@dataclass
class SolverOpts:
    tol: float = 1e-9
    # l1-composite fits need plenty of cheap proximal iterations at tight
    # tolerances; Newton never gets near this cap
    max_iter: int = 20000

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


@dataclass
class FitResult:
    """Fitted coefficients plus convergence metadata.

    grad_inf_norm is the gradient sup-norm on the smooth path and the
    prox fixed-point residual on the nonsmooth path.
    """

    beta_hat: np.ndarray
    objective: float
    grad_inf_norm: float
    iterations: int
    converged: bool


def objective(data, model, beta):
    """Penalized objective sum_i ell(y_i | x_i beta) + lam * r(beta).

    Unchecked: data.y must lie in the loss domain (fit checks it).
    """
    beta = np.asarray(beta, dtype=float)
    values, _, _ = _loss_terms(model.loss, data.y, data.X @ beta)
    return float(np.sum(values) + model.lam * reg_value(model.reg, beta))


def _weighted_gram(X, w, shift):
    """X^T diag(w) X + diag(shift) as a full symmetric matrix (w >= 0).

    The one builder of the penalized Hessian X^T diag(ell'') X + lam diag(r'')
    for Newton steps, ALO leverages and the segment-Hessian audit.
    """
    B = X * np.sqrt(w)[:, None]
    C = dsyrk(1.0, B, trans=1, lower=1)
    A = C + C.T
    idx = np.diag_indices_from(A)
    A[idx] -= C[idx]
    A[idx] += shift
    return A


def _sigma_max_gram(X, iters=60):
    """Largest eigenvalue of X^T X by power iteration (deterministic start)."""
    rng = np.random.default_rng(0)
    v = rng.standard_normal(X.shape[1])
    v /= np.linalg.norm(v)
    s = 0.0
    for _ in range(iters):
        w = X.T @ (X @ v)
        s = np.linalg.norm(w)
        if s == 0.0:
            return 0.0
        v = w / s
    return float(s)


def _fit_newton(data, model, opts, beta0):
    X, y, lam = data.X, data.y, model.lam
    beta = beta0

    def evaluate(b):
        values, d1, d2 = _loss_terms(model.loss, y, X @ b)
        rv, rg, rh = reg_eval(model.reg, b)
        obj = float(np.sum(values) + lam * rv)
        grad = X.T @ d1 + lam * rg
        return obj, grad, d2, rh

    obj, grad, d2, rh = evaluate(beta)
    gnorm = float(np.max(np.abs(grad))) if grad.size else 0.0
    factor = None
    stale = False

    for it in range(opts.max_iter):
        if gnorm <= opts.tol:
            return FitResult(beta, obj, gnorm, it, True)
        if factor is None:
            A = _weighted_gram(X, d2, lam * rh)
            try:
                factor = cho_factor(A, lower=True, check_finite=False)
            except LinAlgError:
                log.warning("singular Newton system, falling back to gradient step")
                factor = "gradient"
            stale = False
        if factor == "gradient":
            direction = -grad
        else:
            direction = -cho_solve(factor, grad, check_finite=False)
        slope = float(grad @ direction)
        if slope >= 0.0:
            direction = -grad
            slope = -float(grad @ grad)

        # Armijo with rounding-level slack: near the solution the true
        # decrease falls below double-precision resolution of the objective
        # and must not block the (locally convergent) full Newton step.  A
        # NaN candidate fails the test, so no non-finite iterate is accepted.
        noise = 1e-14 * (1.0 + abs(obj))
        t = 1.0
        cand = beta + direction
        cand_obj = objective(data, model, cand)
        while not cand_obj <= obj + _ARMIJO * t * slope + noise and t >= _MIN_STEP:
            t *= _LINE_SEARCH_SHRINK
            cand = beta + t * direction
            cand_obj = objective(data, model, cand)
        if t < _MIN_STEP:
            if stale:
                factor = None  # retry from a fresh Hessian at the current point
                continue
            return FitResult(beta, obj, gnorm, it, False)

        beta = cand
        obj, grad, d2, rh = evaluate(beta)
        new_gnorm = float(np.max(np.abs(grad))) if grad.size else 0.0
        if factor == "gradient" or t < 1.0 or new_gnorm > _REFRESH_RATIO * gnorm:
            factor = None
        else:
            stale = True
        gnorm = new_gnorm

    return FitResult(beta, obj, gnorm, opts.max_iter, gnorm <= opts.tol)


def _fit_fista(data, model, opts, beta0):
    X, y, lam, reg = data.X, data.y, model.lam, model.reg
    x = beta0

    def smooth(b):
        values, d1, _ = _loss_terms(model.loss, y, X @ b)
        return float(np.sum(values)), X.T @ d1

    def total(smooth_value, b):
        return smooth_value + lam * reg_value(reg, b)

    def residual(b, gb, L):
        step = 1.0 / L
        return float(np.max(np.abs(b - prox_step(reg, b - step * gb, step, lam))))

    _, _, d2 = _loss_terms(model.loss, y, X @ x)
    L = max(_sigma_max_gram(X) * max(float(np.max(d2)), 1e-12), 1e-12)

    fx, gx = smooth(x)
    Fx = total(fx, x)
    res = residual(x, gx, L)
    if res <= opts.tol:
        return FitResult(x, Fx, res, 0, True)

    yk, fy, gy = x, fx, gx
    from_x = True  # candidate will be a plain prox-gradient step from x
    t = 1.0
    for it in range(1, opts.max_iter + 1):
        while True:
            step = 1.0 / L
            cand = prox_step(reg, yk - step * gy, step, lam)
            diff = cand - yk
            f_cand, g_cand = smooth(cand)
            quad = fy + float(gy @ diff) + 0.5 * L * float(diff @ diff)
            if f_cand <= quad + 1e-12 * (1.0 + abs(fy)):
                break
            L *= 2.0
            if L > 1e25:
                log.warning("FISTA backtracking failed to find a valid step size")
                return FitResult(x, Fx, res, it, False)
        F_cand = total(f_cand, cand)

        # a prox-gradient step from x itself cannot increase the objective,
        # so it is accepted outright; momentum candidates are accepted when
        # monotone up to rounding-level slack, otherwise the momentum is
        # reset and the next iteration steps from x
        if from_x or F_cand <= Fx + 1e-14 * (1.0 + abs(Fx)):
            res = residual(cand, g_cand, L)
            if res <= opts.tol:
                return FitResult(cand, F_cand, res, it, True)
            t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
            yk = cand + ((t - 1.0) / t_next) * (cand - x)
            fy, gy = smooth(yk)
            from_x = False
            t = t_next
            x, fx, Fx, gx = cand, f_cand, F_cand, g_cand
        else:
            t = 1.0
            yk, fy, gy = x, fx, gx
            from_x = True

    return FitResult(x, Fx, res, opts.max_iter, res <= opts.tol)


def fit(data, model, opts=None, beta0=None):
    """Minimize the penalized objective from beta0 (zeros by default).

    Dispatches on the regularizer.  Returns a FitResult; non-convergence is
    reported through the converged flag, never silently.  The input is
    checked here, not in the iterations: ValueError for a response outside
    the loss domain or a non-finite beta0.
    """
    opts = opts or SolverOpts()
    _check_response(model.loss, data.y)
    beta0 = np.zeros(data.p) if beta0 is None else np.array(beta0, dtype=float)
    if not np.all(np.isfinite(beta0)):
        raise ValueError("non-finite beta0")
    solve = _fit_newton if model.reg.is_smooth else _fit_fista
    return solve(data, model, opts, beta0)


def fit_leave_one_out(data, model, rows, warm=None, opts=None):
    """Refit without rows (one index or a 1-d index array), from warm.

    Equivalent to fit() on data.drop_rows(rows); warm-starting at the
    full-data solution typically converges in a handful of steps.
    """
    idx = np.atleast_1d(rows)
    if idx.ndim != 1 or idx.size == 0 or not np.issubdtype(idx.dtype, np.integer):
        raise ValueError("rows must be one index or a non-empty 1-d index array")
    out = idx[(idx < 0) | (idx >= data.n)]
    if out.size:
        raise IndexError(f"row indices {out.tolist()} out of range for n={data.n}")
    if np.unique(idx).size == data.n:
        raise ValueError("a refit must keep at least one row")
    return fit(data.drop_rows(idx), model, opts, beta0=warm)
