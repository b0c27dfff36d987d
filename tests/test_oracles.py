import tracemalloc
import warnings

import numpy as np
import pytest

from loorisk.datagen import CovSpec, gen_response, substream
from loorisk.losses import LossSpec, loss_eval
from loorisk.oracles import (
    TrueModel,
    _hermite_rule,
    err_out_linear,
    err_out_logistic,
    err_out_monte_carlo,
    gauss_hermite_expectation,
)
from loorisk.regularizers import RegSpec
from loorisk.solver import ModelSpec

LINEAR_MODEL = ModelSpec(LossSpec("squared"), RegSpec("ridge"), lam=1.0)
LOGISTIC_MODEL = ModelSpec(LossSpec("logistic"), RegSpec("ridge"), lam=1.0)


def random_spd(p, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((p, p)) / p
    return A @ A.T + 0.1 * np.eye(p) / p


def test_hermite_weights_sum_to_sqrt_pi():
    for order in (20, 64):
        nodes, weights = _hermite_rule(order)
        assert np.sum(weights) == pytest.approx(np.sqrt(np.pi), abs=1e-12)
        # the rule is built once per order and shared: the cached arrays are
        # hermgauss's to the bit and refuse writes
        reference = np.polynomial.hermite.hermgauss(order)
        assert nodes.tobytes() == reference[0].tobytes()
        assert weights.tobytes() == reference[1].tobytes()
        assert _hermite_rule(order)[0] is nodes
        with pytest.raises(ValueError):
            weights[0] = 0.0


def test_hermite_second_moment():
    assert gauss_hermite_expectation(lambda z: z**2, 1.0) == pytest.approx(
        1.0, abs=1e-10
    )


def test_linear_oracle_at_truth():
    truth = TrueModel(np.array([1.0, -2.0]), CovSpec("scaled_identity", 1.0), 0.3)
    assert err_out_linear(truth.beta_star, truth) == 0.3


def test_linear_oracle_identity_example():
    truth = TrueModel(np.zeros(2), CovSpec("scaled_identity", 1.0), 2.0)
    assert err_out_linear(np.array([1.0, 1.0]), truth) == 4.0


def test_linear_oracle_scaled_identity():
    truth = TrueModel(np.zeros(3), CovSpec("scaled_identity", 0.25), 1.0)
    beta_hat = np.array([2.0, 0.0, 0.0])
    assert err_out_linear(beta_hat, truth) == pytest.approx(1.0 + 0.25 * 4.0)


def test_linear_oracle_dominates_noise_floor():
    rng = np.random.default_rng(0)
    truth = TrueModel(rng.standard_normal(4), CovSpec("matrix", matrix=random_spd(4, 1)), 0.7)
    for _ in range(20):
        beta_hat = truth.beta_star + rng.standard_normal(4)
        assert err_out_linear(beta_hat, truth) > 0.7
    assert err_out_linear(truth.beta_star, truth) == pytest.approx(0.7)


def test_linear_oracle_against_monte_carlo():
    # phi is the half squared error, so the Monte-Carlo mean is half the
    # closed-form full-square value
    rng = np.random.default_rng(2)
    p = 6
    truth = TrueModel(
        rng.standard_normal(p), CovSpec("matrix", matrix=random_spd(p, 3)), 0.5
    )
    beta_hat = truth.beta_star + 0.5 * rng.standard_normal(p)
    closed = err_out_linear(beta_hat, truth)
    mc_mean, mc_se = err_out_monte_carlo(beta_hat, truth, LINEAR_MODEL, 1_000_000, 17)
    assert abs(2.0 * mc_mean - closed) <= 3.0 * 2.0 * mc_se


def test_logistic_oracle_at_zero_coefficients():
    truth = TrueModel(
        np.array([1.0, 1.0]), CovSpec("scaled_identity", 1.0), family="logistic"
    )
    assert err_out_logistic(np.zeros(2), truth) == pytest.approx(
        np.log(2.0), abs=1e-12
    )


def test_logistic_oracle_rejects_degenerate_truth():
    truth = TrueModel(np.zeros(2), CovSpec("scaled_identity", 1.0), family="logistic")
    with pytest.raises(ValueError):
        err_out_logistic(np.ones(2), truth)


def test_logistic_oracle_quadrature_stability():
    rng = np.random.default_rng(4)
    truth = TrueModel(
        rng.standard_normal(8), CovSpec("matrix", matrix=random_spd(8, 5)),
        family="logistic",
    )
    beta_hat = rng.standard_normal(8)
    e40 = err_out_logistic(beta_hat, truth, quad_order=40)
    e80 = err_out_logistic(beta_hat, truth, quad_order=80)
    assert abs(e40 - e80) <= 1e-8


def test_logistic_oracle_against_monte_carlo():
    rng = np.random.default_rng(6)
    p = 5
    truth = TrueModel(
        2.0 * rng.standard_normal(p), CovSpec("matrix", matrix=random_spd(p, 7)),
        family="logistic",
    )
    beta_hat = rng.standard_normal(p)
    quad = err_out_logistic(beta_hat, truth)
    mc_mean, mc_se = err_out_monte_carlo(beta_hat, truth, LOGISTIC_MODEL, 1_000_000, 23)
    assert abs(mc_mean - quad) <= 3.0 * mc_se


def test_monte_carlo_is_deterministic():
    truth = TrueModel(np.array([0.5, -0.5]), CovSpec("scaled_identity", 1.0), 1.0)
    beta_hat = np.array([0.2, 0.1])
    a = err_out_monte_carlo(beta_hat, truth, LINEAR_MODEL, 5000, 3)
    b = err_out_monte_carlo(beta_hat, truth, LINEAR_MODEL, 5000, 3)
    assert a == b
    c = err_out_monte_carlo(beta_hat, truth, LINEAR_MODEL, 5000, 4)
    assert a != c


def test_monte_carlo_standard_error_scaling():
    truth = TrueModel(np.array([1.0, 0.0]), CovSpec("scaled_identity", 1.0), 1.0)
    beta_hat = np.array([0.5, 0.5])
    _, se_small = err_out_monte_carlo(beta_hat, truth, LINEAR_MODEL, 100, 5)
    _, se_large = err_out_monte_carlo(beta_hat, truth, LINEAR_MODEL, 10_000, 5)
    assert se_small / se_large == pytest.approx(10.0, rel=0.5)


def test_monte_carlo_poisson_self_consistency():
    rng = np.random.default_rng(8)
    p = 4
    truth = TrueModel(
        rng.standard_normal(p) / 2,
        CovSpec("scaled_identity", 0.5),
        family="poisson_softrect",
    )
    model = ModelSpec(LossSpec("poisson_softrect"), RegSpec("ridge"), lam=1.0)
    beta_hat = rng.standard_normal(p) / 2
    m1, se1 = err_out_monte_carlo(beta_hat, truth, model, 400_000, 11)
    m2, se2 = err_out_monte_carlo(beta_hat, truth, model, 400_000, 12)
    assert abs(m1 - m2) <= 4.0 * np.hypot(se1, se2)


def test_monte_carlo_validates_m():
    truth = TrueModel(np.ones(2), CovSpec("scaled_identity", 1.0), 1.0)
    with pytest.raises(ValueError):
        err_out_monte_carlo(np.ones(2), truth, LINEAR_MODEL, 50, 0)


def full_draw_monte_carlo(beta_hat, truth, model, m, seed):
    """Reference estimator: draw x_o ~ N(0, Sigma) in full, then y_o and phi.

    It shares none of the quad/cross algebra of err_out_monte_carlo and the
    closed forms, so it checks that algebra independently.
    """
    p = beta_hat.shape[0]
    X = substream(seed, 0).standard_normal((m, p)) @ truth.sigma_spec.cholesky(p).T
    y = gen_response(
        X,
        truth.beta_star,
        truth.family,
        seed + 1,
        noise_var=truth.noise_var,
        shape=truth.shape,
    )
    values, _, _ = loss_eval(model.phi_spec, y, X @ beta_hat)
    return values.mean(), values.std(ddof=1) / np.sqrt(m)


@pytest.mark.parametrize(
    "family, phi",
    [
        ("linear", LossSpec("squared")),
        ("logistic", LossSpec("logistic")),
        ("poisson_softrect", LossSpec("poisson_softrect")),
        ("negative_binomial", LossSpec("negative_binomial", shape=0.5)),
    ],
)
def test_monte_carlo_matches_full_draw_reference(family, phi):
    rng = np.random.default_rng(40)
    p = 8
    truth = TrueModel(
        rng.standard_normal(p),
        CovSpec("matrix", matrix=random_spd(p, 41)),
        noise_var=0.8 if family == "linear" else 0.0,
        family=family,
        shape=0.5 if family == "negative_binomial" else None,
    )
    beta_hat = truth.beta_star + 0.5 * rng.standard_normal(p)
    model = ModelSpec(phi, RegSpec("ridge"), lam=1.0)
    ref, ref_se = full_draw_monte_carlo(beta_hat, truth, model, 200_000, 1001)
    mc, mc_se = err_out_monte_carlo(beta_hat, truth, model, 200_000, 2002)
    assert abs(mc - ref) <= 4.0 * np.hypot(mc_se, ref_se)


def test_monte_carlo_of_a_constant_phi_is_exact():
    # at beta_hat = 0 every draw scores softplus(0) = log 2, whatever y is;
    # m spans two chunks so the merge is exercised
    truth = TrueModel(
        np.array([1.0, -1.0, 0.5]), CovSpec("matrix", matrix=random_spd(3, 9)),
        family="logistic",
    )
    mean, se = err_out_monte_carlo(np.zeros(3), truth, LOGISTIC_MODEL, 300_000, 5)
    assert mean == loss_eval(LossSpec("logistic"), 1.0, 0.0)[0]
    assert se == 0.0


@pytest.mark.parametrize(
    "sigma",
    [CovSpec("scaled_identity", 0.3), CovSpec("matrix", matrix=random_spd(5, 13))],
)
def test_quad_and_cross_equal_explicit_products(sigma):
    rng = np.random.default_rng(14)
    u, v = rng.standard_normal(5), rng.standard_normal(5)
    matrix = sigma.matrix if sigma.kind == "matrix" else 0.3 * np.eye(5)
    assert sigma.quad(v) == pytest.approx(v @ matrix @ v, rel=1e-12)
    assert sigma.cross(u, v) == pytest.approx(u @ matrix @ v, rel=1e-12)


def test_cross_checks_both_dimensions():
    sigma = CovSpec("matrix", matrix=random_spd(3, 15))
    with pytest.raises(ValueError):
        sigma.cross(np.ones(2), np.ones(3))
    with pytest.raises(ValueError):
        sigma.cross(np.ones(3), np.ones(2))


@pytest.mark.parametrize(
    "beta_star, beta_hat",
    [
        (np.array([1.0, -0.5, 2.0, 0.3]), np.array([0.7, -0.35, 1.4, 0.21])),
        (np.zeros(4), np.array([0.4, -1.0, 0.2, 0.6])),
        (np.array([1.0, -0.5, 2.0, 0.3]), np.zeros(4)),
    ],
    ids=["beta_hat_prop_beta_star", "beta_star_zero", "beta_hat_zero"],
)
def test_monte_carlo_on_a_degenerate_joint_law(beta_star, beta_hat):
    truth = TrueModel(beta_star, CovSpec("matrix", matrix=random_spd(4, 16)), 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mean, se = err_out_monte_carlo(beta_hat, truth, LINEAR_MODEL, 200_000, 17)
    assert np.isfinite(mean) and np.isfinite(se) and se > 0
    closed = err_out_linear(beta_hat, truth)
    assert abs(2.0 * mean - closed) <= 4.0 * 2.0 * se


@pytest.mark.parametrize(
    "sigma", [CovSpec("scaled_identity", 1.0), CovSpec("matrix", matrix=np.eye(3))]
)
def test_monte_carlo_rejects_length_mismatch(sigma):
    truth = TrueModel(np.ones(3), sigma, 1.0)
    with pytest.raises(ValueError):
        err_out_monte_carlo(np.ones(2), truth, LINEAR_MODEL, 1000, 0)


def _mc_oracle(beta_hat, truth):
    model = LINEAR_MODEL if truth.family == "linear" else LOGISTIC_MODEL
    return err_out_monte_carlo(beta_hat, truth, model, 1000, 0)


@pytest.mark.parametrize("where", ["beta_hat", "beta_star"])
@pytest.mark.parametrize(
    "oracle, family",
    [
        (err_out_linear, "linear"),
        (err_out_logistic, "logistic"),
        (_mc_oracle, "logistic"),
    ],
    ids=["linear", "logistic", "monte_carlo"],
)
def test_oracles_refuse_non_finite_coefficients(oracle, family, where):
    # no oracle value means anything then, so each refuses rather than
    # return nan or, for Monte Carlo with a NaN in beta_star, a number
    good, bad = np.array([1.0, -0.5, 0.3]), np.array([1.0, np.nan, 0.3])
    beta_hat, beta_star = (bad, good) if where == "beta_hat" else (good, bad)
    with pytest.raises(ValueError, match=f"non-finite {where}"):
        truth = TrueModel(
            beta_star,
            CovSpec("scaled_identity", 1.0),
            noise_var=1.0 if family == "linear" else 0.0,
            family=family,
        )
        oracle(beta_hat, truth)


@pytest.mark.parametrize(
    "oracle", [err_out_linear, _mc_oracle], ids=["linear", "monte_carlo"]
)
def test_oracles_check_the_covariance_on_entry(oracle):
    non_spd = CovSpec("matrix", matrix=np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(np.linalg.LinAlgError):
        oracle(np.ones(2), TrueModel(np.ones(2), non_spd, 1.0))
    wrong_dimension = CovSpec("matrix", matrix=np.eye(3))
    with pytest.raises(ValueError, match="dimension"):
        oracle(np.ones(2), TrueModel(np.ones(2), wrong_dimension, 1.0))


def test_monte_carlo_refuses_draws_phi_cannot_score():
    # the draws are scored by the unchecked value kernel, so the oracle and
    # TrueModel refuse on entry what that kernel cannot score
    truth = TrueModel(np.ones(2), CovSpec("scaled_identity", 1.0), 1.0)
    with pytest.raises(ValueError, match="responses in"):
        # linear responses are real numbers; the logistic loss scores {0, 1}
        err_out_monte_carlo(np.ones(2), truth, LOGISTIC_MODEL, 1000, 0)
    with pytest.raises(ValueError, match="overflow"), np.errstate(all="ignore"):
        err_out_monte_carlo(np.full(2, 1e200), truth, LINEAR_MODEL, 1000, 0)
    with pytest.raises(ValueError, match="noise_var"):
        TrueModel(np.ones(2), CovSpec("scaled_identity", 1.0), np.inf)


@pytest.mark.parametrize(
    "family, beta_star, beta_hat",
    [
        ("logistic", 1e200, 1.0),
        ("logistic", 1.0, 1e200),
        ("logistic", 1.0, 1e155),
        ("linear", 1.0, 1e200),
    ],
)
def test_closed_form_oracles_refuse_overflowing_predictors(family, beta_star, beta_hat):
    # finite coefficients whose quadratic forms overflow under Sigma = I used
    # to come back as nan or inf
    identity = CovSpec("scaled_identity", 1.0)
    truth = TrueModel(np.full(2, beta_star), identity, 1.0, family)
    oracle = err_out_logistic if family == "logistic" else err_out_linear
    with pytest.raises(ValueError, match="linear predictors overflow"):
        with np.errstate(all="ignore"):
            oracle(np.full(2, beta_hat), truth)


def test_monte_carlo_rejects_non_spd_covariance():
    sigma = CovSpec("matrix", matrix=np.array([[1.0, 2.0], [2.0, 1.0]]))
    truth = TrueModel(np.ones(2), sigma, 1.0)
    with pytest.raises(ValueError):
        err_out_monte_carlo(np.ones(2), truth, LINEAR_MODEL, 1000, 0)


def _peak_traced_bytes(p, kind):
    sigma = (
        CovSpec("scaled_identity", 1.0 / p)
        if kind == "scaled_identity"
        else CovSpec("matrix", matrix=random_spd(p, 18))
    )
    rng = np.random.default_rng(19)
    truth = TrueModel(rng.standard_normal(p), sigma, family="logistic")
    beta_hat = rng.standard_normal(p)
    tracemalloc.start()
    try:
        err_out_monte_carlo(beta_hat, truth, LOGISTIC_MODEL, 200_000, 20)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kind", ["scaled_identity", "matrix"])
def test_monte_carlo_memory_does_not_grow_with_p(kind):
    # a draw of x_o would need 200k x 300 doubles (480 MB) at p = 300
    assert _peak_traced_bytes(300, kind) <= 2.0 * _peak_traced_bytes(3, kind)
