"""Twice-differentiable loss families with analytic first/second derivatives.

Every family is convex in the linear predictor z, so the second derivative
is nonnegative everywhere.  Evaluation is overflow-free for |z| up to ~700:
all exponentials go through the stable softplus or the sigmoid, whose e^-z
may overflow, silently, only to give 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FAMILIES = (
    "squared",
    "logistic",
    "pseudo_huber",
    "smoothed_abs",
    "poisson_softrect",
    "negative_binomial",
)

_COUNT_FAMILIES = ("poisson_softrect", "negative_binomial")

# Poisson mean f(z) -> 0 as z -> -inf; the loss value diverges for y > 0.
# Clamping keeps log f finite; line-searched solvers never reach this region.
_MEAN_FLOOR = 1e-300


@dataclass(frozen=True)
class LossSpec:
    """A loss family plus its family-specific parameters.

    huber_scale is the scale of the pseudo-Huber loss, smooth_scale the
    sharpness of the smoothed absolute deviation, shape the fixed shape
    parameter of the negative binomial.  Each must be present exactly when
    its family requires it.
    """

    family: str
    huber_scale: float | None = None
    smooth_scale: float | None = None
    shape: float | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown loss family {self.family!r}")
        required = {
            "pseudo_huber": "huber_scale",
            "smoothed_abs": "smooth_scale",
            "negative_binomial": "shape",
        }
        for name in ("huber_scale", "smooth_scale", "shape"):
            value = getattr(self, name)
            if required.get(self.family) == name:
                if value is None or not 0 < value < np.inf:
                    raise ValueError(f"{self.family} requires 0 < {name} < inf")
            elif value is not None:
                raise ValueError(f"{name} is not a parameter of {self.family}")

    @property
    def is_quadratic(self):
        """Whether the loss is quadratic in z, so that its gradient is affine."""
        return self.family == "squared"


def _softplus(z):
    """log(1 + e^z) without overflow."""
    z = np.asarray(z, dtype=float)
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))


def _sigmoid(z):
    """1 / (1 + e^-z); e^-z overflows to inf below z = -709, giving 0."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-z))


def _check_response(spec, y):
    if not np.all(np.isfinite(y)):
        raise ValueError("non-finite response")
    if spec.family == "logistic":
        if not np.all((y == 0) | (y == 1)):
            raise ValueError("logistic loss requires responses in {0, 1}")
    elif spec.family in _COUNT_FAMILIES:
        if not np.all((y >= 0) & (y == np.floor(y))):
            raise ValueError(f"{spec.family} requires nonnegative integer responses")


def _check_family(spec, family):
    """Raise ValueError unless spec can score every response of family."""
    # domains nest ({0, 1} within the counts within the reals): probe the
    # least usual response of the family
    response = {"linear": -0.5, "logistic": 1.0}.get(family, 2.0)
    _check_response(spec, np.array([response]))


def _loss_value(spec, y, z):
    """Loss value alone, as plain array maths; unchecked, as _loss_terms."""
    f = spec.family
    if f == "squared":
        r = z - y
        return 0.5 * r * r
    if f == "logistic":
        return _softplus(z) - y * z
    if f == "pseudo_huber":
        g = spec.huber_scale
        return g * g * (np.sqrt(1.0 + ((y - z) / g) ** 2) - 1.0)
    if f == "smoothed_abs":
        g = spec.smooth_scale
        u = y - z
        return (_softplus(g * u) + _softplus(-g * u)) / g
    if f == "poisson_softrect":
        mean = np.maximum(_softplus(z), _MEAN_FLOOR)
        return mean - y * np.log(mean)
    # negative_binomial, exponential link, constant C(alpha, y) dropped
    a = spec.shape
    return (y + 1.0 / a) * _softplus(z + np.log(a)) - y * z


def _loss_terms(spec, y, z, curvature=True):
    """Loss value and first two derivatives in z, as plain array maths.

    Without curvature, the value and ell' alone: ell'' is not computed.
    Unchecked: y must lie in the response domain and z be finite.  loss_eval
    checks both; fit and the estimators check y once on entry.
    """
    f = spec.family
    if f == "squared":
        r = z - y
        # _loss_value's formula, on the one residual
        value, d1 = 0.5 * r * r, r
        return (value, d1, np.ones(r.shape)) if curvature else (value, d1)
    value = _loss_value(spec, y, z)
    if f == "logistic":
        s = _sigmoid(z)
        d1, d2 = s - y, lambda: s * (1.0 - s)
    elif f == "pseudo_huber":
        g = spec.huber_scale
        u = y - z
        w = np.sqrt(1.0 + (u / g) ** 2)
        d1, d2 = -u / w, lambda: w**-3
    elif f == "smoothed_abs":
        g = spec.smooth_scale
        t = np.tanh(0.5 * g * (y - z))
        d1, d2 = -t, lambda: 0.5 * g * (1.0 - t * t)
    elif f == "poisson_softrect":
        mean = np.maximum(_softplus(z), _MEAN_FLOOR)
        slope = _sigmoid(z)
        ratio = y / mean
        d1 = slope * (1.0 - ratio)
        d2 = lambda: slope * (1.0 - slope) * (1.0 - ratio) + y * (slope / mean) ** 2
    else:
        a = spec.shape
        s = _sigmoid(z + np.log(a))
        d1, d2 = (y + 1.0 / a) * s - y, lambda: (y + 1.0 / a) * s * (1.0 - s)
    return (value, d1, d2()) if curvature else (value, d1)


def loss_eval(spec, y, z):
    """Evaluate the loss and its first two derivatives in z.

    Parameters
    ----------
    spec : LossSpec
    y : response value(s), scalar or array
    z : linear predictor(s), same shape as y

    Returns
    -------
    (value, d1, d2) : each with the broadcast shape of (y, z); python floats
    for scalar input.  d2 >= 0 everywhere (convexity in z).  Raises
    ValueError for a response outside the domain or a non-finite z.
    """
    y_arr = np.asarray(y, dtype=float)
    z_arr = np.asarray(z, dtype=float)
    _check_response(spec, y_arr)
    if not np.all(np.isfinite(z_arr)):
        raise ValueError("non-finite linear predictor")
    value, d1, d2 = _loss_terms(spec, y_arr, z_arr)
    if np.isscalar(y) and np.isscalar(z):
        return float(value), float(d1), float(d2)
    return value, d1, d2


def loss_derivative_bound(spec):
    """Uniform bound on |d ell/dz| when the family has one, else None.

    Squared, soft-rectified Poisson and negative binomial losses have
    unbounded first derivatives (only moment bounds exist); for those the
    function returns None.  The value is the constant the bound formulas
    use, not the tightest pointwise bound.
    """
    bounds = {"logistic": 2.0, "pseudo_huber": spec.huber_scale, "smoothed_abs": 1.0}
    return bounds.get(spec.family)
