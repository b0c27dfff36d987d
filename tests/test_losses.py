import warnings

import numpy as np
import pytest
from scipy.special import expit

from loorisk.losses import (
    FAMILIES,
    LossSpec,
    _loss_terms,
    _loss_value,
    _sigmoid,
    loss_derivative_bound,
    loss_eval,
)

LOG2 = np.log(2.0)


def sample_points(family, size, seed):
    """Random (y, z) pairs inside the family's response domain."""
    rng = np.random.default_rng(seed)
    z = rng.uniform(-6.0, 6.0, size)
    if family == "logistic":
        y = rng.integers(0, 2, size).astype(float)
    elif family in ("poisson_softrect", "negative_binomial"):
        y = rng.poisson(2.0, size).astype(float)
    else:
        y = rng.uniform(-6.0, 6.0, size)
    return y, z


def spec_for(family):
    kwargs = {
        "pseudo_huber": {"huber_scale": 1.7},
        "smoothed_abs": {"smooth_scale": 4.0},
        "negative_binomial": {"shape": 0.7},
    }.get(family, {})
    return LossSpec(family, **kwargs)


def test_sigmoid_matches_expit_and_saturates_quietly():
    z = np.linspace(-800.0, 800.0, 200_001)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = _sigmoid(z)
    reference = expit(z)
    positive = reference > 0.0
    error = np.abs(s - reference)[positive] / reference[positive]
    assert np.max(error) <= 4.0 * np.finfo(float).eps
    assert np.array_equal(s == 0.0, ~positive)
    assert (s[0], s[-1], _sigmoid(0.0)) == (0.0, 1.0, 0.5)


def test_logistic_at_zero():
    value, d1, d2 = loss_eval(LossSpec("logistic"), 1.0, 0.0)
    assert value == pytest.approx(LOG2, abs=1e-15)
    assert d1 == pytest.approx(-0.5, abs=1e-15)
    assert d2 == pytest.approx(0.25, abs=1e-15)


def test_pseudo_huber_at_perfect_prediction():
    spec = LossSpec("pseudo_huber", huber_scale=2.0)
    for t in (-3.0, 0.0, 0.5, 17.0):
        value, d1, d2 = loss_eval(spec, t, t)
        assert value == 0.0
        assert d1 == 0.0
        assert d2 == 1.0


def test_squared_example():
    value, d1, d2 = loss_eval(LossSpec("squared"), 3.0, 1.0)
    assert (value, d1, d2) == (2.0, -2.0, 1.0)


def test_poisson_softrect_example():
    # value = log 2 - 2 log(log 2); d1 = 0.5 (1 - 2 / log 2); confirmed by
    # central differences below
    spec = LossSpec("poisson_softrect")
    value, d1, d2 = loss_eval(spec, 2.0, 0.0)
    assert value == pytest.approx(LOG2 - 2.0 * np.log(LOG2), rel=1e-14)
    assert d1 == pytest.approx(0.5 * (1.0 - 2.0 / LOG2), rel=1e-14)
    h = 1e-6
    vp, d1p, _ = loss_eval(spec, 2.0, h)
    vm, d1m, _ = loss_eval(spec, 2.0, -h)
    assert (vp - vm) / (2 * h) == pytest.approx(d1, rel=1e-8)
    assert (d1p - d1m) / (2 * h) == pytest.approx(d2, rel=1e-8)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("step", [1e-5, 1e-6])
def test_finite_difference_suite(family, step):
    spec = spec_for(family)
    y, z = sample_points(family, 1000, seed=42)
    _, d1, d2 = loss_eval(spec, y, z)
    vp, d1p, _ = loss_eval(spec, y, z + step)
    vm, d1m, _ = loss_eval(spec, y, z - step)
    fd1 = (vp - vm) / (2 * step)
    fd2 = (d1p - d1m) / (2 * step)
    assert np.all(np.abs(fd1 - d1) <= 1e-5 * np.maximum(1.0, np.abs(d1)))
    assert np.all(np.abs(fd2 - d2) <= 1e-4 * np.maximum(1.0, np.abs(d2)))


@pytest.mark.parametrize("family", FAMILIES)
def test_second_derivative_nonnegative(family):
    spec = spec_for(family)
    y, z = sample_points(family, 1000, seed=7)
    _, _, d2 = loss_eval(spec, y, z)
    assert np.all(d2 >= 0.0)


def test_logistic_first_derivative_below_one():
    # pointwise |d1| <= 1 even though the reported bound constant is 2
    y, z = sample_points("logistic", 1000, seed=3)
    _, d1, _ = loss_eval(LossSpec("logistic"), y, z)
    assert np.all(np.abs(d1) <= 1.0)
    assert loss_derivative_bound(LossSpec("logistic")) == 2.0


def test_pseudo_huber_first_derivative_bounded_by_scale():
    spec = LossSpec("pseudo_huber", huber_scale=1.7)
    y, z = sample_points("pseudo_huber", 1000, seed=5)
    _, d1, _ = loss_eval(spec, y, z)
    assert np.all(np.abs(d1) <= 1.7)


def test_smoothed_abs_first_derivative_bounded_by_one():
    spec = LossSpec("smoothed_abs", smooth_scale=4.0)
    y, z = sample_points("smoothed_abs", 1000, seed=6)
    _, d1, _ = loss_eval(spec, y, z)
    assert np.all(np.abs(d1) <= 1.0)


def test_smoothed_abs_converges_to_absolute_deviation():
    gamma = 1e4
    spec = LossSpec("smoothed_abs", smooth_scale=gamma)
    y, z = sample_points("smoothed_abs", 1000, seed=8)
    value, _, _ = loss_eval(spec, y, z)
    assert np.all(np.abs(value - np.abs(y - z)) <= 4.0 * LOG2 / gamma)


def test_derivative_bounds_per_family():
    assert loss_derivative_bound(LossSpec("logistic")) == 2.0
    assert loss_derivative_bound(LossSpec("pseudo_huber", huber_scale=3.5)) == 3.5
    assert loss_derivative_bound(LossSpec("smoothed_abs", smooth_scale=9.0)) == 1.0
    assert loss_derivative_bound(LossSpec("squared")) is None
    assert loss_derivative_bound(LossSpec("poisson_softrect")) is None
    assert loss_derivative_bound(LossSpec("negative_binomial", shape=1.0)) is None


def test_extreme_linear_predictors_stay_finite():
    for family in FAMILIES:
        spec = spec_for(family)
        y = 1.0 if family != "squared" else 0.5
        for z in (-700.0, 700.0):
            value, d1, d2 = loss_eval(spec, y, z)
            assert np.isfinite(value) and np.isfinite(d1) and np.isfinite(d2)


def test_invalid_responses_rejected():
    with pytest.raises(ValueError):
        loss_eval(LossSpec("logistic"), 2.0, 0.0)
    with pytest.raises(ValueError):
        loss_eval(LossSpec("poisson_softrect"), -1.0, 0.0)
    with pytest.raises(ValueError):
        loss_eval(LossSpec("poisson_softrect"), 1.5, 0.0)
    with pytest.raises(ValueError):
        loss_eval(LossSpec("squared"), np.nan, 0.0)
    with pytest.raises(ValueError):
        loss_eval(LossSpec("squared"), 0.0, np.inf)


def test_spec_parameter_validation():
    with pytest.raises(ValueError):
        LossSpec("pseudo_huber")
    with pytest.raises(ValueError):
        LossSpec("pseudo_huber", huber_scale=-1.0)
    with pytest.raises(ValueError):
        LossSpec("squared", huber_scale=1.0)
    with pytest.raises(ValueError):
        LossSpec("negative_binomial")
    with pytest.raises(ValueError):
        LossSpec("no_such_family")


@pytest.mark.parametrize("family", FAMILIES)
def test_loss_value_is_bit_for_bit_the_value_of_loss_terms(family):
    # the oracles, the objective and the risk scores call the value kernel
    # alone; it must give the very bytes the full kernel gives
    spec = spec_for(family)
    edges = [-700.0, -30.0, -1e-3, 0.0, 1e-3, 30.0, 700.0]
    z = np.concatenate([edges, np.linspace(-700.0, 700.0, 41)])
    y_sample, _ = sample_points(family, z.size, seed=12)
    for y in (y_sample, np.zeros(z.size), np.ones(z.size)):
        value = _loss_value(spec, y, z)
        assert value.tobytes() == _loss_terms(spec, y, z)[0].tobytes()
