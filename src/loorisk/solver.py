"""Penalized GLM fitting and the refit primitive.

fit(data, model, opts, beta0) starts from beta0 (zeros by default).  Smooth
objectives (ridge / smoothed elastic net) use a damped Newton method with
Armijo backtracking; the factorized Hessian is reused across steps and
refreshed only when progress degrades, which keeps warm-started refits at
roughly one factorization each.  l1-composite objectives use a monotone
FISTA with backtracking step size and adaptive restart, written once as a
block of fits run in lockstep; fit is its one-row case.  An iteration makes
three products with X for the block, two for a quadratic loss, whose
gradient at the momentum point is extrapolated like the point's predictors.
A row leaves the block only at the top of an iteration (converged,
backtracking failed, or out of budget), so the block's arrays shrink in one
place.

fit_leave_one_out refits without one row or a set of rows, the reference of
fit_leave_groups_out, the one route for many refits, which refits without
each of many groups of rows, a block of groups at a time, held out as one
index array padded to the largest group.  For l1 and elastic net the block
is the FISTA block: each refit is one row, with its own step size, momentum
and restarts.  For smooth penalties (ridge, smoothed elastic net) the
full-data Hessian (numpy's B^T B, as every penalized Hessian here), factored
once, inverted from its factor by LAPACK's dpotri and corrected for each
group's rows by Woodbury, drives a fixed-Hessian Newton iteration on the
block that starts from the full fit's loss terms less the group's own; like
the FISTA block, it retires a refit only at the top of an iteration, and a
refit that stalls resumes damped Newton with the iterations it has used.
Smooth groups so few and large that this setup costs more flops than one
factorization per group (K-fold with K <= 3 or so), or with a singular
full-data Hessian, are refit one at a time by damped Newton, a block's
groups in turn.  Every route runs its blocks one after another, in O(block)
floats besides the data: the parallelism is the experiments' process pool.
scipy.linalg is imported at the first Cholesky factor, which l1 and elastic
net never form.
"""

from __future__ import annotations

import glob
import importlib.util
import logging
import math
import os
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .losses import LossSpec, _check_response, _loss_terms, _loss_value
from .regularizers import RegSpec, _prox, _prox_params, reg_eval, reg_value

log = logging.getLogger(__name__)

_ARMIJO = 1e-4
_LINE_SEARCH_SHRINK = 0.5
_MIN_STEP = 1e-15
# refresh the factorized Hessian when one step fails to cut the gradient
# norm by at least this factor; a batched refit whose step fails to is
# handed to the damped Newton method
_REFRESH_RATIO = 0.25
# held-out groups refit together, as the rows of one block, by
# fit_leave_groups_out
_REFIT_CHUNK = 64


def _openblas(verb):
    """{package: the get or set (verb) thread function of its OpenBLAS} for
    numpy and scipy, from the library next to each, without importing scipy."""
    import ctypes

    # numpy >= 2 and scipy >= 1.13 prefix the names with scipy_; numpy's end in 64_
    stems = ("scipy_openblas", "openblas")
    names = [f"{stem}_{verb}_num_threads{end}" for stem in stems for end in ("64_", "")]
    signature = {"get": ([], ctypes.c_int), "set": ([ctypes.c_int], None)}[verb]
    found = {}
    for package in ("numpy", "scipy"):
        root = os.path.dirname(importlib.util.find_spec(package).origin)
        for path in glob.glob(root + ".libs/*openblas*"):
            lib = ctypes.CDLL(path)
            fn = next(filter(None, (getattr(lib, name, None) for name in names)), None)
            if fn is not None:
                fn.argtypes, fn.restype = signature
                found[package] = fn
    return found


def _pin_blas(threads):
    """Set numpy's and scipy's OpenBLAS to threads[package] threads; a package
    without a setter keeps its own, with one warning.  cli.main sets one
    thread each, and each experiments pool worker its parent's counts."""
    setters = _openblas("set")
    for name, count in threads.items():
        if name in setters:
            setters[name](count)
        else:
            log.warning("no OpenBLAS thread setter for %s: left as it is", name)


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
        # rows of checked data need no second check: build without __init__
        subset = object.__new__(Dataset)
        subset.X, subset.y = self.X[keep], self.y[keep]
        return subset


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
        if not 0 < self.lam < np.inf:
            raise ValueError("lam must be positive and finite")

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
        if not 0 < self.tol < np.inf:
            raise ValueError("tol must be positive and finite")
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

    Checked as fit checks beta0, with a ValueError that names beta.
    """
    beta = _as_coefs(data, model.loss, beta, "beta")
    values = _loss_value(model.loss, data.y, data.X @ beta)
    return float(np.sum(values) + model.lam * reg_value(model.reg, beta))


def _weighted_gram(X, w, shift):
    """X^T diag(w) X + diag(shift) as an exactly symmetric matrix (w >= 0).

    The one builder of the penalized Hessian X^T diag(ell'') X + lam diag(r'')
    for Newton steps, the refit engine, ALO leverages and the segment-Hessian
    audit.  numpy forms B^T B, B = diag(sqrt(w)) X, by one syrk call and
    copies its triangle into the other, so A equals A^T bit for bit.
    """
    B = X * np.sqrt(w)[:, None]
    A = B.T @ B
    A[np.diag_indices_from(A)] += shift
    return A


def _hessian_factor(X, w, shift):
    """Cholesky factor of _weighted_gram(X, w, shift); LinAlgError if singular."""
    # symmetric, so the transpose is the column-major array LAPACK factors in place
    A = _weighted_gram(X, w, shift).T
    from scipy.linalg import cho_factor  # the first factor loads scipy.linalg
    return cho_factor(A, lower=True, overwrite_a=True, check_finite=False)


def _factor_inverse(factor):
    """Inverse of the matrix of a cho_factor factor, formed in (and over) it.

    LAPACK's dpotri fills the lower triangle, mirrored here into the upper.
    """
    from scipy.linalg.lapack import dpotri
    H_inv = dpotri(factor[0], lower=1, overwrite_c=1)[0]
    for j in range(1, H_inv.shape[0]):
        H_inv[:j, j] = H_inv[j, :j]
    return H_inv


def _armijo_ok(cand_obj, obj, slope, t=1.0):
    """Armijo test of a step t along a direction of the given slope.

    Rounding-level slack: near the solution the true decrease falls below
    double-precision resolution of the objective and must not block the
    (locally convergent) full Newton step.  A direction that does not
    descend (slope >= 0) and a NaN candidate fail the test.  Works
    elementwise on arrays.
    """
    noise = 1e-14 * (1.0 + np.abs(obj))
    return (slope < 0.0) & (cand_obj <= obj + _ARMIJO * t * slope + noise)


def _drop_index(drop):
    """Index of the held-out terms of an m x n block, row j's at drop[j] (an
    m x k index array), or None when k = 0; built once per block shape."""
    return (np.arange(drop.shape[0])[:, None], drop) if drop.shape[1] else None


def _sigma_max_gram(X, drop, iters=60):
    """Largest eigenvalue of X_j^T X_j for each row j of drop.

    X_j holds the rows of X outside drop[j] (an m x k index array, as
    _drop_index takes it).  Power iteration from one deterministic start.
    """
    rng = np.random.default_rng(0)
    v = rng.standard_normal(X.shape[1])
    v /= np.linalg.norm(v)
    V = np.tile(v, (drop.shape[0], 1))
    at = _drop_index(drop)
    for _ in range(iters):
        Z = V @ X.T
        if at is not None:
            Z[at] = 0.0
        W = Z @ X
        s = np.sqrt((W * W).sum(axis=1))
        # a row whose product vanishes stays at 0
        V = W / np.where(s > 0.0, s, 1.0)[:, None]
    return s


def _block_loss(loss, y, Z, at):
    """Loss sum and ell' of each row b_j of an m x p block.

    Z = B X^T holds the linear predictors of the block.  Row j is scored on
    the rows of (X, y) it keeps: its terms at the _drop_index at (None for
    none) are zeroed in place, so that its gradient is row j of ell' X.
    """
    values, d1 = _loss_terms(loss, y, Z, curvature=False)
    if at is not None:
        values[at], d1[at] = 0.0, 0.0
    return values.sum(axis=1), d1


def _terms(data, model, b):
    """Objective, gradient, ell, ell', ell'' per row and r'' at b."""
    values, d1, d2 = _loss_terms(model.loss, data.y, data.X @ b)
    rv, rg, rh = reg_eval(model.reg, b)
    obj = float(np.sum(values) + model.lam * rv)
    grad = data.X.T @ d1 + model.lam * rg
    return obj, grad, values, d1, d2, rh


def _fit_newton(data, model, opts, beta, used=0):
    """Damped Newton from beta, its iterations counted from used."""
    obj, grad, _, _, d2, rh = _terms(data, model, beta)
    gnorm = float(np.max(np.abs(grad))) if grad.size else 0.0
    factor = None
    singular = False

    for it in range(used, opts.max_iter + 1):
        if gnorm <= opts.tol or it == opts.max_iter:
            return FitResult(beta, obj, gnorm, it, gnorm <= opts.tol)
        stale = factor is not None
        if factor is None:
            try:
                factor = _hessian_factor(data.X, d2, model.lam * rh)
            except np.linalg.LinAlgError:
                if not singular:
                    log.warning("singular Newton system, falling back to gradient step")
                singular = True
        # -grad, unless the system is regular and its Newton direction descends
        direction = -grad
        if factor is not None:
            from scipy.linalg import cho_solve
            newton = -cho_solve(factor, grad, check_finite=False)
            if grad @ newton < 0.0:
                direction = newton
        slope = float(grad @ direction)

        t = 1.0
        cand = beta + direction
        terms = _terms(data, model, cand)
        while not _armijo_ok(terms[0], obj, slope, t) and t >= _MIN_STEP:
            t *= _LINE_SEARCH_SHRINK
            cand = beta + t * direction
            terms = _terms(data, model, cand)
        if t < _MIN_STEP:
            if stale:
                factor = None  # retry from a fresh Hessian at the current point
                continue
            return FitResult(beta, obj, gnorm, it, False)

        beta, (obj, grad, _, _, d2, rh) = cand, terms
        new_gnorm = float(np.max(np.abs(grad))) if grad.size else 0.0
        if t < 1.0 or new_gnorm > _REFRESH_RATIO * gnorm:
            factor = None
        gnorm = new_gnorm


@lru_cache(maxsize=None)
def _momentum(n):
    """FISTA's momentum weights (t_k - 1) / t_{k+1} for k < n, from t_0 = 1.

    An n x 1 column, so that w[k] scales the rows of a block; read-only,
    since every caller shares it.
    """
    w = np.empty((n, 1))
    t = 1.0
    for k in range(n):
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        w[k] = (t - 1.0) / t_next
        t = t_next
    w.setflags(write=False)
    return w


def _extrapolate(new, old, w, out=None):
    """new + w (new - old), FISTA's momentum point, written into out if given."""
    out = np.subtract(new, old, out=out)
    return np.add(np.multiply(out, w, out=out), new, out=out)


def _momentum_point(loss, X, y, Z, at, g_new, g_old, w, out=None):
    """Loss sum and gradient (into out if given) of each row of a block at
    its momentum point, whose predictors Z extrapolate the new iterates' by
    the weights w.  A quadratic loss's gradient is affine in Z, so it is
    extrapolated alike from the new and old iterates' gradients."""
    if loss.is_quadratic:
        return _block_loss(loss, y, Z, at)[0], _extrapolate(g_new, g_old, w, out)
    values, d1 = _block_loss(loss, y, Z, at)
    return values, np.matmul(d1, X, out=out)


def _fista_block(X, y, model, B, drop, opts):
    """FitResults of monotone FISTA from each row of the m x p block B.

    Row j minimizes the loss on the rows of (X, y) outside drop[j] (an m x k
    index array, as _drop_index takes it) plus lam * r, with its own step
    size 1/L, momentum and restarts; the rows run in lockstep.  An
    iteration makes two products with X for the whole block, the
    candidates' predictors and gradients, and a third for the momentum
    points' gradients unless the loss is quadratic (_momentum_point); the
    rest runs in place, on arrays allocated when the block shrinks.  A row
    leaves at the top of an iteration, the one place rows leave the arrays,
    and reports the iterations it used: converged once its prox-gradient
    residual |b - prox(b - g/L)| is at most opts.tol; unconverged when its
    backtracking pushed L past 1e25 in the iteration before, which it ends
    without an update, or when opts.max_iter iterations are used.
    """
    lam, reg, loss = model.lam, model.reg, model.loss
    n, p = X.shape
    results = [None] * B.shape[0]

    def buffers(m):
        """Arrays of m rows for a candidate, its predictors and gradient,
        and two scratch arrays."""
        return [np.empty((m, c)) for c in (p, n, p, p, p)]

    def steps(L):
        """Step 1/L, prox threshold and shrink, and L/2, per entry.

        The per-entry arrays are filled once per change of L, so that the
        iterations run without broadcasting.
        """
        step = np.repeat((1.0 / L)[:, None], p, axis=1)
        half_L = np.repeat((0.5 * L)[:, None], p, axis=1)
        return (step, *_prox_params(reg, step, lam), half_L)

    def penalty(b, tmp):
        """lam * r of each row of b, as reg_value computes r, through tmp."""
        l1 = np.abs(b, out=tmp).sum(axis=1)
        if reg.family == "l1":
            return lam * l1
        quad = np.multiply(np.multiply(0.5 * (1.0 - reg.mix), b, out=tmp), b, out=tmp)
        return lam * (quad.sum(axis=1) + reg.mix * l1)

    def residual(b, g, step, thresh, shrink, tmp=None, out=None):
        """|b - prox(b - g/L)| of each row, through tmp and out if given."""
        v = np.subtract(b, np.multiply(step, g, out=tmp), out=tmp)
        moved = np.subtract(b, _prox(v, thresh, shrink, out=out), out=out)
        return np.abs(moved, out=out).max(axis=1, initial=0.0)

    def candidate(sel, at, step, thresh, shrink, half_L, out):
        """Prox-gradient step from yk on rows sel (a slice or indices): its
        loss and quadratic-bound test.  The step, its predictors and its
        gradient are written into out[:3]; out[3:] are scratch."""
        cand, zc, gc, tmp, tmp2 = out
        base, f_base, g_base = yk[sel], fy[sel], gy[sel]
        v = np.subtract(base, np.multiply(step, g_base, out=tmp), out=tmp)
        _prox(v, thresh, shrink, out=cand)
        np.matmul(cand, X.T, out=zc)
        f_cand, d1 = _block_loss(loss, y, zc, at)
        np.matmul(d1, X, out=gc)
        diff = np.subtract(cand, base, out=tmp)
        bound = np.add(np.multiply(half_L, diff, out=tmp2), g_base, out=tmp2)
        quad = f_base + np.multiply(bound, diff, out=tmp2).sum(axis=1)
        return f_cand, f_cand <= quad + 1e-12 * (1.0 + np.abs(f_base))

    rows, x, at = np.arange(B.shape[0]), B.copy(), _drop_index(drop)
    cand, zc, gc, tmp, tmp2 = buffers(rows.size)
    zx = x @ X.T
    fx, d1 = _block_loss(loss, y, zx, at)
    gx = d1 @ X
    # the first step size takes the loss's largest curvature on the kept rows
    d2 = _loss_terms(loss, y, zx)[2]
    if at is not None:
        d2[at] = 0.0
    L = np.maximum(_sigma_max_gram(X, drop) * np.maximum(d2.max(1), 1e-12), 1e-12)
    Fx = fx + penalty(x, tmp)
    step, thresh, shrink, half_L = steps(L)
    res = residual(x, gx, step, thresh, shrink, tmp, tmp2)
    # yk is the point the next candidate steps from, zx = x X^T, and k
    # counts the momentum steps since the last restart.  A prox-gradient
    # step from x itself cannot increase the objective, so it is accepted
    # outright; a momentum candidate is accepted when its objective is at
    # most Fx up to rounding-level slack.  Otherwise the momentum is reset
    # and the next iteration steps from x.  The predictors of yk follow from
    # those of x and of the candidate.
    yk, fy, gy = x.copy(), fx.copy(), gx.copy()
    k = np.zeros(rows.size, dtype=int)
    momentum = _momentum(256)
    # failed marks the rows whose backtracking gave up; they all leave next
    done, failed = res <= opts.tol, np.zeros(rows.size, dtype=bool)
    for used in range(opts.max_iter + 1):
        leave = done | failed | (used == opts.max_iter)
        if np.count_nonzero(leave):
            out = zip(rows[leave], x[leave], Fx[leave], res[leave], done[leave])
            for j, bj, Fj, rj, cj in out:
                results[j] = FitResult(bj.copy(), float(Fj), float(rj), used, bool(cj))
            left = ~leave
            rows, x, zx, fx, Fx, gx, yk, fy, gy, k, L, res = (
                a[left] for a in (rows, x, zx, fx, Fx, gx, yk, fy, gy, k, L, res)
            )
            drop, failed = drop[left], np.zeros(rows.size, dtype=bool)
            if not rows.size:
                break
            at = _drop_index(drop)
            step, thresh, shrink, half_L = steps(L)
            cand, zc, gc, tmp, tmp2 = buffers(rows.size)
        if used >= len(momentum):
            momentum = _momentum(2 * len(momentum))
        out = cand, zc, gc, tmp, tmp2
        f_cand, ok = candidate(np.s_[:], at, step, thresh, shrink, half_L, out)
        if np.count_nonzero(ok) < rows.size:
            # backtracking, on the rows whose step is too long
            back = np.flatnonzero(~ok)
            while back.size:
                L[back] *= 2.0
                over = L[back] > 1e25
                if over.any():
                    log.warning("FISTA backtracking failed to find a valid step size")
                    failed[back[over]] = True
                    back = back[~over]
                out = buffers(back.size)
                fb, ok = candidate(back, _drop_index(drop[back]), *steps(L[back]), out)
                cand[back], zc[back], gc[back], f_cand[back] = *out[:3], fb
                back = back[~ok]
            step, thresh, shrink, half_L = steps(L)
        F_cand = f_cand + penalty(cand, tmp)
        cap = np.where(k > 0, Fx + 1e-14 * (1.0 + np.abs(Fx)), np.inf)
        accept = (F_cand <= cap) & ~failed
        if np.count_nonzero(accept) == rows.size:
            res = residual(cand, gc, step, thresh, shrink, tmp, tmp2)
            w = momentum[k]
            # the candidates become the iterates, whose arrays take the next
            # candidates (zc the momentum points' predictors first)
            x, zx, gx, cand, zc, gc = cand, zc, gc, x, zx, gx
            fx, Fx = f_cand, F_cand
            _extrapolate(x, cand, w, yk)
            zy = _extrapolate(zx, zc, w, zc)
            fy, _ = _momentum_point(loss, X, y, zy, at, gx, gc, w, gy)
            k += 1
        else:
            a, r = np.flatnonzero(accept), np.flatnonzero(~accept)
            res[a] = residual(cand[a], gc[a], step[a], thresh[a], shrink[a])
            w = momentum[k[a]]
            yk[a] = _extrapolate(cand[a], x[a], w)
            za, at_a = _extrapolate(zc[a], zx[a], w), _drop_index(drop[a])
            fy[a], gy[a] = _momentum_point(loss, X, y, za, at_a, gc[a], gx[a], w)
            k[a] += 1
            x[a], zx[a], gx[a] = cand[a], zc[a], gc[a]
            fx[a], Fx[a] = f_cand[a], F_cand[a]
            yk[r], fy[r], gy[r], k[r] = x[r], fx[r], gx[r], 0
        done = res <= opts.tol  # a row that kept x kept its residual, above tol
    return results


def _as_coefs(data, loss, beta, name):
    """beta as a float copy, once data.y is checked against the loss domain.

    The one entry check of a coefficient vector: ValueError naming it unless
    it has shape (p,) and is finite.
    """
    _check_response(loss, data.y)
    beta = np.array(beta, dtype=float)
    if beta.shape != (data.p,):
        raise ValueError(f"{name} has shape {beta.shape}, expected ({data.p},)")
    if not np.all(np.isfinite(beta)):
        raise ValueError(f"non-finite {name}")
    return beta


def fit(data, model, opts=None, beta0=None):
    """Minimize the penalized objective from beta0 (zeros by default).

    Dispatches on the regularizer.  Returns a FitResult; non-convergence is
    reported through the converged flag, never silently.  The input is
    checked here, not in the iterations: ValueError for a response outside
    the loss domain or a beta0 that is not a finite vector of length p.
    """
    opts = opts or SolverOpts()
    beta0 = np.zeros(data.p) if beta0 is None else beta0
    beta0 = _as_coefs(data, model.loss, beta0, "beta0")
    if model.reg.is_smooth:
        return _fit_newton(data, model, opts, beta0)
    drop = np.empty((1, 0), dtype=int)
    return _fista_block(data.X, data.y, model, beta0[None, :], drop, opts)[0]


def _held_out(groups, n):
    """(rows, index array) of each group of rows (one index or a 1-d index
    array), in order of its smallest row; all groups are checked in one pass.
    """
    groups = list(groups)
    held = [np.atleast_1d(rows) for rows in groups]
    if not held:
        return []
    if any(idx.ndim != 1 or idx.size == 0 for idx in held) or not all(
        np.issubdtype(dtype, np.integer) for dtype in {idx.dtype for idx in held}
    ):
        raise ValueError("rows must be one index or a non-empty 1-d index array")
    flat = np.concatenate(held)
    out = flat[(flat < 0) | (flat >= n)]
    if out.size:
        raise IndexError(f"row indices {out.tolist()} out of range for n={n}")
    if any(idx.size >= n and np.unique(idx).size == n for idx in held):
        raise ValueError("a refit must keep at least one row")
    sizes = np.array([idx.size for idx in held])
    smallest = np.minimum.reduceat(flat, np.cumsum(sizes) - sizes)
    return [(groups[j], held[j]) for j in np.argsort(smallest, kind="stable")]


def fit_leave_one_out(data, model, rows, warm=None, opts=None):
    """Refit without rows (one index or a 1-d index array), from warm.

    Equivalent to fit() on data.drop_rows(rows); warm-starting at the
    full-data solution typically converges in a handful of steps.
    """
    [(_, idx)] = _held_out([rows], data.n)
    return fit(data.drop_rows(idx), model, opts, beta0=warm)


def _held_out_rows(held):
    """(pad, live, drop) of a block's held-out index arrays, each padded to
    the largest: pad with row 0, drop with its own first row (which
    _block_loss zeroes twice, harmlessly); live marks the real entries."""
    sizes = np.array([idx.size for idx in held])
    live = np.arange(sizes.max()) < sizes[:, None]
    pad = np.zeros(live.shape, dtype=int)
    pad[live] = np.concatenate(held)
    return pad, live, np.where(live, pad, pad[:, :1])


def _refit_block(data, model, held, B, warm_terms, H_inv, opts):
    """FitResults of the refits without each index array in held.

    Refit j is row j of B (m x p, each row the warm start), fit to the data
    rows outside held[j].  warm_terms are the full data's terms at the
    warm start (ell, ell', ell'' per row, the objective, its gradient g and
    H^{-1} g); refit j starts from them less those of its own rows, so the
    block never evaluates its warm starts.  Its Newton matrix is
    H_j = H - X_j^T D_j X_j, where H (inverse H_inv) and D_j = diag(ell'')
    are taken at the warm start and X_j holds the rows of held[j]; by
    Woodbury
        H_j^{-1} g = H^{-1} g + W_j (I - D_j Q_j)^{-1} D_j X_j H^{-1} g
    with W_j = H^{-1} X_j^T and Q_j = X_j W_j, which never divides by ell''.
    A stalled refit resumes _fit_newton with the iterations it has used.
    """
    X, y, lam = data.X, data.y, model.lam
    values, d1, d2, obj_full, g_full, S_full = warm_terms
    # held-out rows padded to k per refit; a padding row has no terms, so its
    # row of I - D_j Q_j is the identity and its coefficient stays 0
    pad, live, drop = _held_out_rows(held)
    (m, k), Xg = pad.shape, X[pad]
    curv, d1g = np.where(live, d2[pad], 0.0), np.where(live, d1[pad], 0.0)

    Wg = (Xg.reshape(m * k, -1) @ H_inv).reshape(m, k, -1)
    Q = Xg @ Wg.transpose(0, 2, 1)
    M_inv = np.linalg.inv(np.eye(k) - curv[:, :, None] * Q)

    results = [None] * m

    def retire(i, used, converged):
        """Refit i of the arrays as it stands, or resumed by damped Newton."""
        beta = B[i].copy()
        if converged or used == opts.max_iter:
            return FitResult(beta, float(obj[i]), float(gnorm[i]), used, converged)
        return _fit_newton(data.drop_rows(held[rows[i]]), model, opts, beta, used)

    obj = obj_full - np.where(live, values[pad], 0.0).sum(axis=1)
    grad = g_full - np.einsum("akp,ak->ap", Xg, d1g)
    gnorm = np.max(np.abs(grad), axis=1, initial=0.0)
    # H^{-1} of each gradient, at the start H^{-1} g less W_j ell'_j
    S = S_full - np.einsum("akp,ak->ap", Wg, d1g)
    # refit i of the arrays is refit rows[i] of the block.  It leaves at the
    # top of an iteration, the one place the arrays shrink: converged,
    # stalled in the step before (short: without taking it), or out of budget
    rows, at = np.arange(m), _drop_index(drop)
    stalled = short = np.zeros(m, dtype=bool)
    for steps in range(opts.max_iter + 1):
        done = gnorm <= opts.tol
        leave = done | stalled | (steps == opts.max_iter)
        if np.count_nonzero(leave):
            for i in np.flatnonzero(leave):
                results[rows[i]] = retire(i, steps - int(short[i]), bool(done[i]))
            left = ~leave
            rows, B, obj, grad, gnorm, S, Xg, Wg, M_inv, curv, drop = (
                a[left]
                for a in (rows, B, obj, grad, gnorm, S, Xg, Wg, M_inv, curv, drop)
            )
            if not rows.size:
                break
            at = _drop_index(drop)
        if steps:
            S = grad @ H_inv
        t = np.einsum("akp,ap->ak", Xg, S)
        u = np.einsum("akl,al->ak", M_inv, curv * t)
        direction = -(S + np.einsum("akp,ak->ap", Wg, u))
        slope = np.einsum("ap,ap->a", grad, direction)
        cand = B + direction
        cand_loss, d1 = _block_loss(model.loss, y, cand @ X.T, at)
        rv, rg = reg_eval(model.reg, cand, curvature=False)
        cand_obj, cand_grad = cand_loss + lam * rv, d1 @ X + lam * rg
        cand_gnorm = np.max(np.abs(cand_grad), axis=1, initial=0.0)
        # as in _fit_newton, a full step that passes the Armijo test is
        # taken; a refit whose step fails it, or that ends the step short
        # of the cut a fresh factor would bring, resumes _fit_newton
        taken = _armijo_ok(cand_obj, obj, slope)
        short = ~taken
        stalled = short | (
            (cand_gnorm > _REFRESH_RATIO * gnorm) & (cand_gnorm > opts.tol)
        )
        B[taken], obj[taken] = cand[taken], cand_obj[taken]
        grad[taken], gnorm[taken] = cand_grad[taken], cand_gnorm[taken]
    return results


def _batching_pays(n, p, sizes):
    """Whether batched refits of held-out groups of these sizes cost less.

    Counts flops: the batched setup (factor and inverse of the full-data
    Hessian, then each group's Woodbury terms) against one factorization of
    each row-deleted Hessian, the least that refitting one group at a time
    costs.  Single rows pay; a few large folds (K-fold with small K) do not.
    """
    k = np.asarray(sizes, dtype=float)
    setup = n * p * p + 4.0 * p**3 / 3.0
    batched = setup + np.sum(k * p * p + k * k * p + k**3 / 3.0)
    one_at_a_time = np.sum((n - k) * p * p + p**3 / 3.0)
    return bool(batched < one_at_a_time)


def fit_leave_groups_out(data, model, groups, warm, opts=None):
    """Refit without each group of rows, from warm, for any penalty.

    warm is the full-data solution, checked as fit checks beta0.  Groups
    (each one index or a 1-d index array) are refit, and yielded as (rows,
    FitResult), in order of their smallest row, _REFIT_CHUNK groups at a
    time as the rows of one block, held out as one padded index array.
    For l1 and elastic net the block runs the FISTA of fit in lockstep: each
    refit keeps its own step size, momentum and restarts and stops on the
    same prox-gradient residual test, so it agrees with fit_leave_one_out to
    rounding, in the same iterations unless its residual ends a hair from
    opts.tol.  For a smooth penalty, the penalized Hessian at warm, factored
    once and corrected by Woodbury for each group's rows, is the Newton
    matrix of the block.  A refit converges when the gradient sup-norm of
    its own objective is at most opts.tol.  A full step that passes the
    Armijo test of the damped Newton method is taken; a refit whose step
    fails that test, or does not cut that norm by _REFRESH_RATIO, resumes
    damped Newton from its iterate with the iterations it has used.
    opts.max_iter caps every refit: its batched and damped Newton steps
    together.  When _batching_pays says no, or when the full-data Hessian is
    singular, each smooth group of a chunk is refit by damped Newton from
    warm, in turn, as fit_leave_one_out refits it.  A chunk of m groups of
    at most k rows holds O(m (n + k p + k^2)) floats besides X:
    O((n + p) m) for LO, O(n (K + p + n / K)) for K <= m folds.
    """
    opts = opts or SolverOpts()
    warm = _as_coefs(data, model.loss, warm, "warm")
    order = _held_out(groups, data.n)
    H_inv, sizes = None, [idx.size for _, idx in order]
    if model.reg.is_smooth and _batching_pays(data.n, data.p, sizes):
        obj_full, g_full, values, d1, d2, rh = _terms(data, model, warm)
        try:
            # one explicit inverse keeps the iterations on numpy's BLAS: numpy
            # and scipy may each bring their own multi-threaded BLAS, and
            # alternating between the two costs more than these small products
            H_inv = _factor_inverse(_hessian_factor(data.X, d2, model.lam * rh))
        except np.linalg.LinAlgError:
            log.warning("singular full-data Hessian, refitting one group at a time")
        else:
            warm_terms = (values, d1, d2, obj_full, g_full, g_full @ H_inv)

    for first in range(0, len(order), _REFIT_CHUNK):
        chunk = order[first : first + _REFIT_CHUNK]
        held = [idx for _, idx in chunk]
        B = np.tile(warm, (len(held), 1))
        if H_inv is not None:
            results = _refit_block(data, model, held, B, warm_terms, H_inv, opts)
        elif model.reg.is_smooth:
            kept = (data.drop_rows(idx) for idx in held)
            results = [_fit_newton(sub, model, opts, warm.copy()) for sub in kept]
        else:
            drop = _held_out_rows(held)[2]
            results = _fista_block(data.X, data.y, model, B, drop, opts)
        yield from zip((rows for rows, _ in chunk), results)
