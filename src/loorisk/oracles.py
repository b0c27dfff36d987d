"""Ground-truth out-of-sample prediction error.

Closed forms exist for the linear-Gaussian and logistic designs; a seeded
Monte-Carlo estimate covers every family and cross-checks the closed forms.
It draws (x_o beta_star, x_o beta_hat), all that the response and the loss
see of x_o, from its bivariate normal law: two normals a sample for any p.
The draws are keyed by chunk, the substream unit, and made a block at a time,
the memory unit, so the estimate's memory is a few cache-sized vectors.
Input is checked once, on entry; then only arithmetic runs: the Gauss-Hermite
rule is built once per order, and phi is scored by its value alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .datagen import (
    _DOMAIN_RESPONSE,
    CovSpec,
    _integer,
    _response,
    derive_seed,
    substream,
)
from .losses import _check_family, _loss_value, _sigmoid, _softplus

# A chunk is the substream unit, which fixes a seed's draws (bench/run.py reads
# it); a block is the memory unit, the rows drawn at a time (128 KB a vector).
_MC_CHUNK = 200_000
_MC_BLOCK = 16_384


def _finite(name, values):
    """values as a float array; raises ValueError unless every entry is finite."""
    values = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(values)):
        raise ValueError(f"non-finite {name}")
    return values


def _check_overflow(*values):
    """Raise ValueError unless the moments of the linear predictors are finite."""
    if not np.all(np.isfinite(values)):
        raise ValueError("linear predictors overflow")


@dataclass(frozen=True, eq=False)
class TrueModel:
    """The data-generating truth: coefficients, feature covariance, noise."""

    beta_star: np.ndarray
    sigma_spec: CovSpec
    noise_var: float = 0.0
    family: str = "linear"
    shape: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "beta_star", _finite("beta_star", self.beta_star))
        if not 0 <= self.noise_var < np.inf:
            raise ValueError("noise_var must be finite and nonnegative")


def err_out_linear(beta_hat, truth):
    """Exact out-of-sample squared error for the linear-Gaussian family.

    Returns E[(y_o - x_o beta_hat)^2 | D] = noise_var +
    ||Sigma^{1/2} (beta_hat - beta_star)||^2.  This is in full-squared-error
    units; callers whose phi is the half squared error scale by 1/2.
    """
    if truth.family != "linear":
        raise ValueError("err_out_linear requires the linear family")
    diff = _finite("beta_hat", beta_hat) - truth.beta_star
    truth.sigma_spec.check(diff.shape[0])
    value = truth.noise_var + truth.sigma_spec.quad(diff)
    _check_overflow(value)
    return float(value)


@lru_cache(maxsize=None)
def _hermite_rule(order):
    """Gauss-Hermite nodes and weights; read-only, since every caller shares them."""
    nodes, weights = np.polynomial.hermite.hermgauss(order)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def gauss_hermite_expectation(func, var, order=64):
    """E func(Z) for Z ~ N(0, var) by Gauss-Hermite quadrature.

    Uses the sqrt(2) change of variables; weights sum to sqrt(pi).
    """
    if var < 0:
        raise ValueError("variance must be nonnegative")
    if var == 0.0:
        return float(func(np.zeros(1))[0])
    nodes, weights = _hermite_rule(order)
    z = np.sqrt(2.0 * var) * nodes
    return float(weights @ func(z) / np.sqrt(np.pi))


def err_out_logistic(beta_hat, truth, quad_order=64):
    """Out-of-sample logistic loss under a Gaussian design, by quadrature.

    With Z = x_o beta_star and W = x_o beta_hat jointly Gaussian,
    E[y_o W] reduces to the projection coefficient cov(W, Z) / var(Z)
    times E[Z sigmoid(Z)]; for scaled-identity covariance the coefficient
    is the familiar beta_hat.beta_star / ||beta_star||^2.
    """
    if truth.family != "logistic":
        raise ValueError("err_out_logistic requires the logistic family")
    if quad_order < 20:
        raise ValueError("quad_order must be >= 20")
    beta_hat = _finite("beta_hat", beta_hat)
    sigma = truth.sigma_spec
    var_z, var_w = sigma.quad(truth.beta_star), sigma.quad(beta_hat)
    cross = sigma.cross(beta_hat, truth.beta_star)
    _check_overflow(var_z, var_w, cross)
    if not var_z > 0:
        raise ValueError("degenerate beta_star")
    e_zsig = gauss_hermite_expectation(lambda z: z * _sigmoid(z), var_z, quad_order)
    e_softplus = gauss_hermite_expectation(_softplus, var_w, quad_order)
    value = -cross / var_z * e_zsig + e_softplus
    _check_overflow(value)
    return float(value)


def err_out_monte_carlo(beta_hat, truth, model, m, seed):
    """Monte-Carlo out-of-sample error: fresh draws of (x_o, y_o).

    Returns (mean, std_err) of phi(y_o, x_o beta_hat) over m draws,
    deterministic given seed.  y_o and phi see x_o only through
    (x_o beta_star, x_o beta_hat), which under the Gaussian design is
    bivariate normal with covariance given by quad and cross; each sample
    draws that pair from two normals, not x_o from p, and phi keeps its law.
    m must be an integer >= 100.  Each chunk of _MC_CHUNK samples draws from
    its own substreams, which fix the draws; they are read in blocks of
    _MC_BLOCK rows, so memory stays at a few block-sized vectors for any m.
    Blocks are merged by streaming mean/variance of the deviations from the
    first draw, so a constant phi returns its value with std_err 0.
    """
    m = _integer("m", m)
    if m < 100:
        raise ValueError("m must be >= 100")
    beta_hat = _finite("beta_hat", beta_hat)
    sigma = truth.sigma_spec
    sigma.check(beta_hat.shape[0])
    _check_family(model.phi_spec, truth.family)
    # (z*, z) = (a g0, b g0 + d g1) has the covariance above
    a = np.sqrt(sigma.quad(truth.beta_star))
    b = sigma.cross(beta_hat, truth.beta_star) / a if a > 0 else 0.0
    d = np.sqrt(max(sigma.quad(beta_hat) - b * b, 0.0))
    _check_overflow(a, b, d)

    shift = None
    count = 0
    mean = 0.0
    m2 = 0.0
    for chunk, chunk_start in enumerate(range(0, m, _MC_CHUNK)):
        chunk_end = min(chunk_start + _MC_CHUNK, m)
        normals = substream(seed, chunk)
        responses = substream(derive_seed(seed, chunk, 1), _DOMAIN_RESPONSE)
        for start in range(chunk_start, chunk_end, _MC_BLOCK):
            size = min(_MC_BLOCK, chunk_end - start)
            g = normals.standard_normal((size, 2))
            y = _response(
                a * g[:, 0],
                truth.family,
                responses,
                noise_var=truth.noise_var,
                shape=truth.shape,
            )
            values = _loss_value(model.phi_spec, y, b * g[:, 0] + d * g[:, 1])
            shift = float(values[0]) if shift is None else shift
            values -= shift
            # Chan's pairwise merge of (count, mean, M2) summaries
            c_mean = float(np.mean(values))
            c_m2 = float(np.sum((values - c_mean) ** 2))
            delta = c_mean - mean
            total = count + size
            mean += delta * size / total
            m2 += c_m2 + delta * delta * count * size / total
            count = total
    std_err = np.sqrt(m2 / (count - 1) / count)
    return float(shift + mean), float(std_err)
