"""Seeded synthetic data generation.

All randomness flows through numpy's PCG64 generator.  Substreams are
derived by feeding the composite key (seed, *path) to SeedSequence, which
hashes it into independent, non-overlapping streams; the scheme is portable
across platforms for a fixed numpy major version.  Gaussians come from the
generator's ziggurat sampler; Laplace draws use the explicit inverse CDF.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .losses import _softplus

_DOMAIN_DESIGN = 1
_DOMAIN_BETA = 2
_DOMAIN_RESPONSE = 3


def _seed_sequence(seed, path):
    # integers only: int() would truncate a float seed into another seed's
    # stream, where numpy's own default_rng raises TypeError
    return np.random.SeedSequence(tuple(operator.index(x) for x in (seed, *path)))


def substream(seed, *path):
    """Independent Generator keyed by the integers (seed, *path)."""
    return np.random.Generator(np.random.PCG64(_seed_sequence(seed, path)))


def derive_seed(seed, *path):
    """A 64-bit integer seed derived from the integers (seed, *path), for nesting."""
    return int(_seed_sequence(seed, path).generate_state(1, np.uint64)[0])


def _integer(name, value):
    """value as an int; raises ValueError naming it unless value is integral."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


@dataclass(frozen=True, eq=False)
class CovSpec:
    """Feature covariance: either scale * I or an explicit SPD matrix."""

    kind: str = "scaled_identity"
    scale: float = 1.0
    matrix: np.ndarray | None = None

    def __post_init__(self):
        if self.kind == "scaled_identity":
            if not self.scale > 0:
                raise ValueError("scale must be positive")
        elif self.kind == "matrix":
            if self.matrix is None:
                raise ValueError("matrix kind requires an explicit matrix")
            m = np.asarray(self.matrix, dtype=float)
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise ValueError("covariance matrix must be square")
            if not np.allclose(m, m.T, atol=1e-12):
                raise ValueError("covariance matrix must be symmetric")
            object.__setattr__(self, "matrix", m)
        else:
            raise ValueError(f"unknown covariance kind {self.kind!r}")

    def _require_dim(self, p):
        if self.kind == "matrix" and self.matrix.shape[0] != p:
            raise ValueError("covariance dimension mismatch")

    def check(self, p):
        """Raise unless Sigma is p x p; an explicit matrix must also be SPD."""
        self._require_dim(p)
        if self.kind == "matrix":
            np.linalg.cholesky(self.matrix)

    def cholesky(self, p):
        """Lower Cholesky factor of Sigma; raises if not SPD."""
        self._require_dim(p)
        if self.kind == "scaled_identity":
            return np.sqrt(self.scale) * np.eye(p)
        return np.linalg.cholesky(self.matrix)

    def sigma_max(self, p):
        self._require_dim(p)
        if self.kind == "scaled_identity":
            return self.scale
        return float(np.linalg.eigvalsh(self.matrix)[-1])

    def quad(self, v):
        """v^T Sigma v."""
        v = np.asarray(v, dtype=float)
        self._require_dim(v.shape[0])
        if self.kind == "scaled_identity":
            return self.scale * float(v @ v)
        return float(v @ (self.matrix @ v))

    def cross(self, u, v):
        """u^T Sigma v."""
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        self._require_dim(u.shape[0])
        self._require_dim(v.shape[0])
        if self.kind == "scaled_identity":
            return self.scale * float(u @ v)
        return float(u @ (self.matrix @ v))

    def rho(self, p):
        """p * sigma_max(Sigma), the covariance scale constant."""
        return p * self.sigma_max(p)


def gen_design(n, p, sigma_spec, seed):
    """n x p matrix with i.i.d. N(0, Sigma) rows, deterministic per seed."""
    rng = substream(seed, _DOMAIN_DESIGN)
    Z = rng.standard_normal((n, p))
    if sigma_spec.kind == "scaled_identity":
        return np.sqrt(sigma_spec.scale) * Z
    L = sigma_spec.cholesky(p)
    return Z @ L.T


def gen_beta_star(p, k, beta_dist, seed, support="first"):
    """Sparse truth vector with exactly k nonzeros.

    beta_dist is "laplace_unit" (zero-mean unit-variance Laplace, scale
    1/sqrt(2), drawn by inverse CDF) or "constant:<v>".  The support is the
    first k coordinates by default, or a seeded random subset.
    """
    if k > p:
        raise ValueError("k must not exceed p")
    rng = substream(seed, _DOMAIN_BETA)
    beta = np.zeros(p)
    if k == 0:
        return beta
    if support == "first":
        idx = np.arange(k)
    elif support == "random":
        idx = np.sort(rng.choice(p, size=k, replace=False))
    else:
        raise ValueError(f"unknown support rule {support!r}")
    if beta_dist == "laplace_unit":
        u = rng.uniform(-0.5, 0.5, size=k)
        scale = 1.0 / np.sqrt(2.0)
        beta[idx] = -scale * np.sign(u) * np.log1p(-2.0 * np.abs(u))
    elif beta_dist.startswith("constant:"):
        beta[idx] = _spec_number("beta_dist", beta_dist)
    else:
        raise ValueError(f"unknown beta_dist {beta_dist!r}")
    return beta


def _spec_number(key, spec):
    """The number after the colon of a "<kind>:<number>" spec value."""
    try:
        return float(spec.split(":", 1)[1])
    except ValueError as exc:
        raise ValueError(f"{key} = {spec!r}: {exc}") from None


def gen_response(X, beta_star, family, seed, noise_var=None, shape=None):
    """Responses for one of the supported generating families.

    linear needs noise_var; negative_binomial needs the shape parameter and
    uses the exponential link via a gamma-Poisson mixture.
    """
    z = X @ np.asarray(beta_star, dtype=float)
    return _response(z, family, substream(seed, _DOMAIN_RESPONSE), noise_var, shape)


def _response(z, family, rng, noise_var=None, shape=None):
    """Responses drawn from rng given the true linear predictors z = X beta_star.

    Draws go row by row, so calls on consecutive blocks of z draw what one
    call on all of z would; negative_binomial, all gammas first, excepted.
    """
    if family == "linear":
        if noise_var is None or noise_var < 0:
            raise ValueError("linear family requires noise_var >= 0")
        return z + np.sqrt(noise_var) * rng.standard_normal(z.shape[0])
    if family == "logistic":
        return (rng.random(z.shape[0]) < expit(z)).astype(float)
    if family == "poisson_softrect":
        return rng.poisson(_softplus(z)).astype(float)
    if family == "negative_binomial":
        if shape is None or not shape > 0:
            raise ValueError("negative_binomial requires shape > 0")
        lam = rng.gamma(1.0 / shape, shape * np.exp(z))
        return rng.poisson(lam).astype(float)
    raise ValueError(f"unknown response family {family!r}")


@dataclass(frozen=True)
class SimConfig:
    """One simulation study: a sweep over n with a fixed design recipe.

    p and k are given either directly or as ratios of n (p_ratio, k_ratio);
    sigma is "identity", "identity/n", or "scale:<c>".  A design that some
    replicate could not draw is refused here; lambda lives on ModelSpec.
    """

    ns: tuple = (100,)
    p: int | None = None
    p_ratio: float | None = None
    k: int | None = None
    k_ratio: float | None = None
    sigma: str = "identity/n"
    noise_var: float = 1.0
    beta_dist: str = "laplace_unit"
    family: str = "linear"
    reps: int = 1
    seed: int = 0
    k_folds: tuple | None = None
    lambdas: tuple | None = None
    shape: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "ns", tuple(sorted(int(n) for n in self.ns)))
        if self.k_folds is not None:
            object.__setattr__(self, "k_folds", tuple(int(k) for k in self.k_folds))
        if self.lambdas is not None:
            object.__setattr__(self, "lambdas", tuple(float(v) for v in self.lambdas))
        if self.reps < 1:
            raise ValueError("reps must be >= 1")
        _integer("seed", self.seed)
        if (self.p is None) == (self.p_ratio is None):
            raise ValueError("exactly one of p, p_ratio must be set")
        if (self.k is None) == (self.k_ratio is None):
            raise ValueError("exactly one of k, k_ratio must be set")
        # a replicate parses these values when it is drawn: probe them now,
        # so that a design no replicate can use is refused where it is built
        for n in self.ns:
            self.sigma_for(n)
            self.k_for(n)
        gen_beta_star(1, 1, self.beta_dist, self.seed)
        rng = substream(self.seed, _DOMAIN_RESPONSE)
        _response(np.zeros(1), self.family, rng, self.noise_var, self.shape)

    def p_for(self, n):
        p = self.p if self.p is not None else int(round(self.p_ratio * n))
        if p < 1:
            raise ValueError(f"p = {p} at n = {n}; p must be >= 1")
        return p

    def k_for(self, n):
        k = self.k if self.k is not None else int(round(self.k_ratio * n))
        if k < 0:
            raise ValueError(f"k = {k} at n = {n}; k must be >= 0")
        if k > self.p_for(n):
            raise ValueError("k exceeds p")
        return k

    def sigma_for(self, n):
        if self.sigma == "identity":
            return CovSpec("scaled_identity", 1.0)
        if self.sigma == "identity/n":
            return CovSpec("scaled_identity", 1.0 / n)
        if self.sigma.startswith("scale:"):
            scale = _spec_number("sigma", self.sigma)
            if not scale > 0:
                raise ValueError(f"sigma = {self.sigma!r}: scale must be positive")
            return CovSpec("scaled_identity", scale)
        raise ValueError(f"unknown sigma spec {self.sigma!r}")


def gen_replicate(config, n, rep):
    """Design, truth and response for replicate rep of cell n.

    Each (seed, n, rep) triple is hashed into an independent substream, so
    replicates are reproducible individually and in parallel.
    """
    rep_seed = derive_seed(config.seed, n, rep)
    p = config.p_for(n)
    cov = config.sigma_for(n)
    X = gen_design(n, p, cov, rep_seed)
    beta_star = gen_beta_star(p, config.k_for(n), config.beta_dist, rep_seed)
    y = gen_response(
        X,
        beta_star,
        config.family,
        rep_seed,
        noise_var=config.noise_var,
        shape=config.shape,
    )
    return X, beta_star, y, cov
