import numpy as np
import pytest
from scipy.special import expit

from loorisk import datagen
from loorisk.cli import load_config
from loorisk.datagen import (
    _DOMAIN_RESPONSE,
    CovSpec,
    SimConfig,
    _response,
    derive_seed,
    gen_beta_star,
    gen_design,
    gen_replicate,
    gen_response,
    substream,
)


def test_design_is_deterministic():
    cov = CovSpec("scaled_identity", 0.5)
    a = gen_design(20, 10, cov, seed=123)
    b = gen_design(20, 10, cov, seed=123)
    assert np.array_equal(a, b)
    c = gen_design(20, 10, cov, seed=124)
    assert not np.array_equal(a, c)


def test_row_norms_match_trace_identity():
    n, p = 400, 200
    cov = CovSpec("scaled_identity", 1.0 / n)
    X = gen_design(n, p, cov, seed=0)
    # E ||x||^2 = tr Sigma = p / n
    assert np.mean(np.sum(X**2, axis=1)) == pytest.approx(p / n, rel=0.05)
    # mean row norm concentrates at sqrt(tr Sigma) for large p
    assert np.mean(np.linalg.norm(X, axis=1)) == pytest.approx(
        np.sqrt(p / n), rel=0.05
    )


def test_explicit_covariance_sampling():
    rng = np.random.default_rng(1)
    A = rng.standard_normal((5, 5))
    sigma = A @ A.T + 0.5 * np.eye(5)
    cov = CovSpec("matrix", matrix=sigma)
    X = gen_design(200_000, 5, cov, seed=2)
    emp = X.T @ X / X.shape[0]
    assert np.max(np.abs(emp - sigma)) <= 0.15


def test_non_spd_matrix_rejected():
    bad = np.array([[1.0, 0.0], [0.0, -1.0]])
    cov = CovSpec("matrix", matrix=bad)
    with pytest.raises(np.linalg.LinAlgError):
        cov.cholesky(2)
    with pytest.raises(ValueError):
        CovSpec("scaled_identity", 0.0)


def test_beta_star_support_and_values():
    beta = gen_beta_star(2000, 100, "constant:0.23570226039551587", seed=3)
    assert np.count_nonzero(beta) == 100
    assert np.all(beta[:100] == 0.23570226039551587)
    # Var(x' beta) = k v^2 = 100 / 18 for Sigma = I
    assert CovSpec("scaled_identity", 1.0).quad(beta) == pytest.approx(
        100.0 / 18.0, rel=1e-12
    )
    assert np.all(gen_beta_star(50, 0, "laplace_unit", seed=4) == 0.0)


def test_laplace_nonzeros_have_unit_variance():
    beta = gen_beta_star(5000, 2000, "laplace_unit", seed=5)
    nz = beta[:2000]
    assert np.var(nz) == pytest.approx(1.0, abs=0.2)
    assert np.mean(nz) == pytest.approx(0.0, abs=0.1)


def test_random_support_option():
    beta = gen_beta_star(100, 10, "laplace_unit", seed=6, support="random")
    assert np.count_nonzero(beta) == 10
    assert np.any(beta[50:] != 0.0)  # support escaped the first half


def test_signal_variance_matches_design_scaling():
    # k = 0.1 n Laplace nonzeros with Sigma = I/n gives Var(x' beta*) = 0.1
    n = 400
    cov = CovSpec("scaled_identity", 1.0 / n)
    beta = gen_beta_star(4000, 40, "laplace_unit", seed=7)
    assert cov.quad(beta) == pytest.approx(0.1, abs=0.05)


def test_linear_response_noise_free():
    X = gen_design(30, 10, CovSpec("scaled_identity", 1.0), seed=8)
    beta = gen_beta_star(10, 5, "laplace_unit", seed=8)
    y = gen_response(X, beta, "linear", seed=9, noise_var=0.0)
    assert np.allclose(y, X @ beta)


def test_logistic_response_fair_coin_at_zero_signal():
    n = 10_000
    X = gen_design(n, 4, CovSpec("scaled_identity", 1.0), seed=10)
    y = gen_response(X, np.zeros(4), "logistic", seed=11)
    assert set(np.unique(y)) <= {0.0, 1.0}
    assert np.mean(y) == pytest.approx(0.5, abs=3.0 / np.sqrt(n))


def test_poisson_response_mean_at_zero_signal():
    n = 10_000
    X = gen_design(n, 4, CovSpec("scaled_identity", 1.0), seed=12)
    y = gen_response(X, np.zeros(4), "poisson_softrect", seed=13)
    log2 = np.log(2.0)
    assert np.mean(y) == pytest.approx(log2, abs=3.0 * np.sqrt(log2 / n))


def test_negative_binomial_response_moments():
    n = 50_000
    X = np.zeros((n, 2))
    shape = 0.5
    y = gen_response(X, np.zeros(2), "negative_binomial", seed=14, shape=shape)
    # exponential link: mean e^0 = 1, variance mu + shape mu^2 = 1.5
    assert np.mean(y) == pytest.approx(1.0, abs=0.05)
    assert np.var(y) == pytest.approx(1.5, abs=0.15)


def test_substreams_have_distinct_fingerprints():
    fingerprints = set()
    for rep in range(1000):
        rng = substream(derive_seed(99, 10, rep))
        fingerprints.add(tuple(rng.standard_normal(16).tolist()))
    assert len(fingerprints) == 1000


def test_integer_seeds_keep_their_streams():
    # values from before seeds were checked for integrality; any integer type
    # keys the same stream
    assert derive_seed(1, 2) == derive_seed(np.int64(1), np.uint8(2))
    assert derive_seed(1, 2) == 15529898885419721899
    assert substream(np.int32(7), 3).integers(0, 2**63) == 8993097214371588835


@pytest.mark.parametrize("seed, path", [(1.5, (2,)), (1.0, ()), (1, (2.5,))])
def test_non_integral_seeds_are_refused(seed, path):
    # int() would truncate 1.5 into seed 1's stream; numpy's own
    # default_rng(1.5) raises TypeError too
    with pytest.raises(TypeError):
        substream(seed, *path)
    with pytest.raises(TypeError):
        derive_seed(seed, *path)


def test_sim_config_refuses_a_non_integral_seed():
    with pytest.raises(ValueError, match="seed must be an integer"):
        SimConfig(ns=(50,), p=20, k=2, seed=1.5)
    assert SimConfig(ns=(50,), p=20, k=2, seed=np.int64(3)).seed == 3


@pytest.mark.parametrize(
    "field, value",
    [("ns", (50.7,)), ("p", 20.5), ("k", 2.5), ("reps", 1.5), ("k_folds", (3.9,))],
)
def test_sim_config_refuses_non_integral_integer_fields(field, value):
    # int() would truncate ns and k_folds into another design; p, k and reps
    # would go through as given and fail, if at all, in a later call
    base = dict(ns=(50,), p=20, k=2, seed=1, k_folds=(3,))
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        SimConfig(**(base | {field: value}))
    integral = SimConfig(
        ns=(np.int64(50),), p=np.int64(20), k=np.int64(2), seed=1, reps=np.int64(1)
    )
    assert integral.ns == (50,)
    plain = gen_replicate(SimConfig(**base), 50, 0)
    for a, b in zip(gen_replicate(integral, 50, 0)[:3], plain[:3]):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("family", ["linear", "logistic", "poisson_softrect"])
def test_responses_drawn_in_blocks_equal_one_draw(family):
    # the Monte-Carlo oracle reads one response stream a block at a time
    z = np.linspace(-3.0, 3.0, 1000)
    whole = _response(z, family, substream(5, _DOMAIN_RESPONSE), noise_var=0.7)
    rng = substream(5, _DOMAIN_RESPONSE)
    blocks = [
        _response(z[i : i + 300], family, rng, noise_var=0.7)
        for i in range(0, 1000, 300)
    ]
    assert np.concatenate(blocks).tobytes() == whole.tobytes()


def test_replicates_are_reproducible():
    config = SimConfig(
        ns=(25,), p_ratio=2.0, k_ratio=0.2, sigma="identity/n",
        family="linear", reps=3, seed=42,
    )
    X1, b1, y1, _ = gen_replicate(config, 25, 1)
    X2, b2, y2, _ = gen_replicate(config, 25, 1)
    assert np.array_equal(X1, X2) and np.array_equal(b1, b2) and np.array_equal(y1, y2)
    X3, _, _, _ = gen_replicate(config, 25, 2)
    assert not np.array_equal(X1, X3)


def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(ns=(10,), p=5, p_ratio=2.0, k=1)
    with pytest.raises(ValueError):
        SimConfig(ns=(10,), p=5, k=1, k_ratio=0.1)
    with pytest.raises(ValueError):
        SimConfig(ns=(10,), p=5, k=1, family="gamma")
    with pytest.raises(ValueError, match="k exceeds p"):
        SimConfig(ns=(10,), p=5, k=6)
    with pytest.raises(ValueError, match="p must be >= 1"):
        SimConfig(ns=(40, 200), p_ratio=0.01, k=0)
    # a design that no replicate could draw is refused when it is built
    for bad in (
        dict(sigma="bogus"),
        dict(sigma="scale:x"),
        dict(beta_dist="constant:x"),
        dict(family="negative_binomial"),
        dict(noise_var=-1.0),
        dict(k=-1),
    ):
        with pytest.raises(ValueError):
            SimConfig(**(dict(ns=(10,), p=5, k=1) | bad))
    assert SimConfig(ns=(10,), p_ratio=3.0, k_ratio=0.1).p_for(10) == 30


@pytest.mark.parametrize(
    "bad, name",
    [
        (dict(ns=(1,)), "ns"),
        (dict(ns=(10, 1)), "ns"),
        (dict(lambdas=(0.5, -1.0)), "lambdas"),
        (dict(lambdas=(0.0,)), "lambdas"),
        (dict(lambdas=(float("nan"),)), "lambdas"),
        (dict(lambdas=(1.0, float("inf"))), "lambdas"),
        (dict(noise_var=float("nan")), "noise_var"),
        (dict(noise_var=float("inf")), "noise_var"),
        (dict(sigma="scale:inf"), "sigma"),
        (dict(p=None, p_ratio=float("inf")), "p_ratio"),
        (dict(k=None, k_ratio=float("inf")), "k_ratio"),
    ],
    ids=[
        "n_1",
        "n_1_among_others",
        "lambda_negative",
        "lambda_0",
        "lambda_nan",
        "lambda_inf",
        "noise_var_nan",
        "noise_var_inf",
        "sigma_scale_inf",
        "p_ratio_inf",
        "k_ratio_inf",
    ],
)
def test_sim_config_refuses_what_no_study_can_run(bad, name):
    # a refit keeps at least one row, every lambda sets a ModelSpec, and a
    # replicate draws finite data
    with pytest.raises(ValueError, match=name):
        SimConfig(**(dict(ns=(10,), p=5, k=1) | bad))


def test_logistic_responses_are_those_drawn_through_expit(monkeypatch):
    # the numpy sigmoid and scipy's expit may differ in the last bits; no
    # logistic response of the table2 presets' replicates 0-9 changes with it
    for preset in ("table2_desk", "table2_full"):
        config = load_config(preset=preset)[0]
        for n in config.ns:
            for rep in range(10):
                y = gen_replicate(config, n, rep)[2]
                with monkeypatch.context() as m:
                    m.setattr(datagen, "_sigmoid", expit)
                    assert np.array_equal(gen_replicate(config, n, rep)[2], y)
