"""Convex coordinatewise regularizers.

Smooth families (ridge, smoothed elastic net) expose value / gradient /
diagonal Hessian; nonsmooth families (l1, elastic net) expose a closed-form
proximal operator.  The regularizer is applied coordinatewise and summed,
so its Hessian is diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .losses import LossSpec, _loss_terms

FAMILIES = ("ridge", "smoothed_elastic_net", "l1", "elastic_net")
SMOOTH_FAMILIES = ("ridge", "smoothed_elastic_net")


@dataclass(frozen=True)
class RegSpec:
    """A regularizer family plus its parameters.

    mix is the elastic-net mixing weight (weight of the l1 part for
    elastic_net, weight of the quadratic part for smoothed_elastic_net);
    smooth_sharpness controls how closely the softplus surrogate of |b|
    hugs the absolute value.
    """

    family: str
    mix: float | None = None
    smooth_sharpness: float | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown regularizer family {self.family!r}")
        needs_mix = self.family in ("smoothed_elastic_net", "elastic_net")
        if needs_mix:
            if self.mix is None or not 0.0 <= self.mix <= 1.0:
                raise ValueError(f"{self.family} requires mix in [0, 1]")
        elif self.mix is not None:
            raise ValueError(f"mix is not a parameter of {self.family}")
        if self.family == "smoothed_elastic_net":
            sharpness = self.smooth_sharpness
            if sharpness is None or not 0 < sharpness < np.inf:
                raise ValueError(f"{self.family} requires 0 < smooth_sharpness < inf")
        elif self.smooth_sharpness is not None:
            raise ValueError(f"smooth_sharpness is not a parameter of {self.family}")

    @property
    def is_smooth(self):
        return self.family in SMOOTH_FAMILIES


def _dot(a, b):
    # a @ b for vectors; the row-wise products for m x p blocks
    return a @ b if a.ndim == 1 else (a * b).sum(axis=1)


def _smoothed_enet_value(spec, beta, curvature=True):
    # value of each row, with the surrogate's slope and (if asked) curvature:
    # the surrogate of |b| is the smoothed_abs loss at residual b, slope -ell'
    surrogate = LossSpec("smoothed_abs", smooth_scale=spec.smooth_sharpness)
    v, d1, *curv = _loss_terms(surrogate, beta, 0.0, curvature)
    value = _dot(spec.mix * beta, beta) + (1.0 - spec.mix) * np.sum(v, axis=-1)
    return value, -d1, *curv


def reg_value(spec, beta):
    """Penalty value (without lambda) for any family.

    An m x p block gives the m values of its rows as an array.
    """
    beta = np.asarray(beta, dtype=float)
    f = spec.family
    if f == "ridge":
        value = 0.5 * _dot(beta, beta)
    elif f == "smoothed_elastic_net":
        value = _smoothed_enet_value(spec, beta, curvature=False)[0]
    elif f == "l1":
        value = np.abs(beta).sum(axis=-1)
    else:  # elastic_net
        value = _dot(0.5 * (1.0 - spec.mix) * beta, beta) + spec.mix * np.abs(
            beta
        ).sum(axis=-1)
    return float(value) if beta.ndim == 1 else value


def reg_eval(spec, beta, curvature=True):
    """Value, gradient and (unless curvature is False) diagonal Hessian of a
    smooth regularizer.  An m x p block is taken row by row, as in reg_value.

    Raises ValueError for nonsmooth families; use prox_step for those.
    """
    if not spec.is_smooth:
        raise ValueError(f"reg_eval requires a smooth family, got {spec.family}")
    beta = np.asarray(beta, dtype=float)
    if spec.family == "ridge":
        curv = [reg_curvature_diag(spec, beta)] if curvature else []
        return reg_value(spec, beta), beta.copy(), *curv
    value, t, *curv = _smoothed_enet_value(spec, beta, curvature)
    grad = 2.0 * spec.mix * beta + (1.0 - spec.mix) * t
    curv = [2.0 * spec.mix + (1.0 - spec.mix) * c for c in curv]
    return float(value) if beta.ndim == 1 else value, grad, *curv


def prox_step(spec, v, step, lam):
    """argmin_b 0.5 ||b - v||^2 + step * lam * r(b), coordinatewise.

    Soft-thresholding for l1; soft-thresholding plus quadratic shrinkage
    for elastic_net.  step is a scalar, or for an m x p block v an m x 1
    column of per-row steps.  Raises ValueError for smooth families.
    """
    if spec.is_smooth:
        raise ValueError(f"prox_step requires l1 or elastic_net, got {spec.family}")
    if np.any(np.asarray(step) <= 0) or lam <= 0:
        raise ValueError("step and lam must be positive")
    return _prox(np.asarray(v, dtype=float), *_prox_params(spec, step, lam))


def _prox_params(spec, step, lam):
    """Threshold and shrink divisor of prox_step at these steps, unchecked."""
    if spec.family == "l1":
        thresh = step * lam
        return thresh, np.ones_like(thresh)
    return step * lam * spec.mix, 1.0 + step * lam * (1.0 - spec.mix)


def _prox(v, thresh, shrink, out=None):
    """prox_step from its _prox_params: the kernel FISTA iterates, written
    in place into out (an array other than v) when one is given."""
    mag = np.maximum(np.subtract(np.abs(v, out=out), thresh, out=out), 0.0, out=out)
    return np.copysign(np.divide(mag, shrink, out=out), v, out=out)


def strong_convexity_lower(spec, lam):
    """Strong-convexity constant of lam * r, zero when there is none."""
    if lam <= 0:
        raise ValueError("lam must be positive")
    f = spec.family
    if f == "ridge":
        return lam
    if f == "smoothed_elastic_net":
        return 2.0 * lam * spec.mix
    if f == "elastic_net":
        return lam * (1.0 - spec.mix)
    return 0.0


def reg_curvature_diag(spec, beta):
    """Diagonal of the (a.e.) second derivative of r at beta.

    For l1 / elastic_net this is the curvature of the quadratic part only;
    it is what enters the segment-Hessian audits for those penalties.
    """
    beta = np.asarray(beta, dtype=float)
    f = spec.family
    if f == "ridge":
        return np.ones_like(beta)
    if f == "smoothed_elastic_net":
        return reg_eval(spec, beta)[2]
    if f == "elastic_net":
        return np.full_like(beta, 1.0 - spec.mix)
    return np.zeros_like(beta)
