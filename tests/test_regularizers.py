import numpy as np
import pytest

from loorisk import regularizers
from loorisk.regularizers import (
    RegSpec,
    prox_step,
    reg_curvature_diag,
    reg_eval,
    reg_value,
    strong_convexity_lower,
)

SEN = RegSpec("smoothed_elastic_net", mix=0.3, smooth_sharpness=5.0)


def test_ridge_at_origin():
    value, grad, hess = reg_eval(RegSpec("ridge"), np.zeros(4))
    assert value == 0.0
    assert np.all(grad == 0.0)
    assert np.all(hess == 1.0)


def test_smoothed_elastic_net_at_origin():
    # pure softplus surrogate: value per coordinate is 2 log 2 / shrpness
    alpha = 3.0
    spec = RegSpec("smoothed_elastic_net", mix=0.0, smooth_sharpness=alpha)
    p = 6
    value, grad, _ = reg_eval(spec, np.zeros(p))
    assert value == pytest.approx(p * 2.0 * np.log(2.0) / alpha, rel=1e-14)
    assert np.all(grad == 0.0)


def test_smoothed_elastic_net_finite_differences():
    beta = np.array([1.0, -2.0])
    h = 1e-6
    _, grad, hess = reg_eval(SEN, beta)
    for j in range(2):
        e = np.zeros(2)
        e[j] = h
        vp, gp, _ = reg_eval(SEN, beta + e)
        vm, gm, _ = reg_eval(SEN, beta - e)
        fd_grad = (vp - vm) / (2 * h)
        fd_hess = (gp[j] - gm[j]) / (2 * h)
        assert fd_grad == pytest.approx(grad[j], rel=1e-5)
        assert fd_hess == pytest.approx(hess[j], rel=1e-4)


def test_smoothed_elastic_net_eval_is_one_parts_call(monkeypatch):
    # reg_eval's value and curvature are reg_value's and reg_curvature_diag's
    # to the bit, and its gradient is 2 mix b + (1 - mix) tanh(s b / 2), all
    # from one evaluation of the surrogate's parts
    grid = np.array(
        [-1e150, -1e3, -40.0, -1.5, -1e-9, -0.0, 0.0, 1e-9, 0.7, 40.0, 1e150]
    )
    block = np.stack([grid, grid[::-1], 0.5 * grid])
    calls = []
    parts = regularizers._smooth_abs_parts

    def counted(beta, sharpness):
        calls.append(1)
        return parts(beta, sharpness)

    for beta in (grid, block):
        value, grad, curv = reg_eval(SEN, beta)
        monkeypatch.setattr(regularizers, "_smooth_abs_parts", counted)
        reg_eval(SEN, beta)
        monkeypatch.undo()
        assert len(calls) == 1
        calls.clear()
        t = np.tanh(0.5 * (SEN.smooth_sharpness * beta))
        expected_grad = 2.0 * SEN.mix * beta + (1.0 - SEN.mix) * t
        expected_value = reg_value(SEN, beta)
        assert np.asarray(value).tobytes() == np.asarray(expected_value).tobytes()
        assert grad.tobytes() == expected_grad.tobytes()
        assert curv.tobytes() == reg_curvature_diag(SEN, beta).tobytes()
        assert type(value) is (float if beta.ndim == 1 else np.ndarray)


def test_prox_l1_soft_threshold():
    out = prox_step(RegSpec("l1"), np.array([3.0, -0.5]), step=1.0, lam=1.0)
    assert np.allclose(out, [2.0, 0.0])


def test_prox_elastic_net_mix_one_is_l1():
    v = np.array([3.0, -0.5, 0.2, -4.0])
    l1 = prox_step(RegSpec("l1"), v, step=0.7, lam=1.3)
    en = prox_step(RegSpec("elastic_net", mix=1.0), v, step=0.7, lam=1.3)
    assert np.array_equal(l1, en)


def test_prox_elastic_net_against_grid_search():
    # minimize 0.5 (b - 4)^2 + 2 (0.25 b^2 + 0.5 |b|) on a 1e-6 grid
    spec = RegSpec("elastic_net", mix=0.5)
    grid = np.arange(0.0, 4.0, 1e-6)
    obj = 0.5 * (grid - 4.0) ** 2 + 2.0 * (0.25 * grid**2 + 0.5 * np.abs(grid))
    best = grid[np.argmin(obj)]
    assert best == pytest.approx(1.5, abs=2e-6)
    out = prox_step(spec, np.array([4.0]), step=1.0, lam=2.0)
    assert out[0] == pytest.approx(1.5, abs=1e-12)


@pytest.mark.parametrize("family,mix", [("l1", None), ("elastic_net", 0.35)])
def test_prox_subgradient_optimality(family, mix):
    spec = RegSpec(family, mix=mix) if mix is not None else RegSpec(family)
    rng = np.random.default_rng(0)
    for _ in range(50):
        v = rng.uniform(-3, 3, 8)
        step = rng.uniform(0.1, 2.0)
        lam = rng.uniform(0.1, 3.0)
        beta = prox_step(spec, v, step, lam)
        m = 1.0 if family == "l1" else spec.mix
        quad = 0.0 if family == "l1" else (1.0 - spec.mix)
        for j in range(8):
            inner = beta[j] - v[j] + step * lam * quad * beta[j]
            if beta[j] != 0.0:
                resid = inner + step * lam * m * np.sign(beta[j])
                assert abs(resid) <= 1e-10
            else:
                assert abs(inner) <= step * lam * m + 1e-10


def test_value_is_even_in_each_coordinate():
    rng = np.random.default_rng(1)
    beta = rng.uniform(-2, 2, 5)
    specs = [
        RegSpec("ridge"),
        SEN,
        RegSpec("l1"),
        RegSpec("elastic_net", mix=0.4),
    ]
    for spec in specs:
        for j in range(5):
            flipped = beta.copy()
            flipped[j] = -flipped[j]
            assert reg_value(spec, flipped) == pytest.approx(
                reg_value(spec, beta), rel=1e-14
            )


def test_smoothed_elastic_net_hessian_range():
    rng = np.random.default_rng(2)
    beta = rng.uniform(-10, 10, 1000)
    _, _, hess = reg_eval(SEN, beta)
    lo = 2.0 * SEN.mix
    hi = 2.0 * SEN.mix + (1.0 - SEN.mix) * SEN.smooth_sharpness / 2.0
    assert np.all(hess >= lo - 1e-12)
    assert np.all(hess <= hi + 1e-12)


def test_strong_convexity_constants():
    assert strong_convexity_lower(RegSpec("ridge"), 0.1) == 0.1
    assert strong_convexity_lower(RegSpec("l1"), 5.0) == 0.0
    assert strong_convexity_lower(RegSpec("elastic_net", mix=0.5), 2.0) == 1.0
    sen = RegSpec("smoothed_elastic_net", mix=0.25, smooth_sharpness=5.0)
    assert strong_convexity_lower(sen, 2.0) == 1.0


def test_strong_convexity_is_curvature_infimum():
    # the infimum of lam * r'' over beta is attained as |beta| grows, where
    # the softplus curvature vanishes
    sen = RegSpec("smoothed_elastic_net", mix=0.25, smooth_sharpness=5.0)
    lam = 2.0
    grid = np.linspace(-50, 50, 20001)
    _, _, hess = reg_eval(sen, grid)
    assert lam * np.min(hess) == pytest.approx(
        strong_convexity_lower(sen, lam), abs=1e-6
    )


def test_curvature_diag_by_family():
    beta = np.array([0.5, -1.0])
    assert np.all(reg_curvature_diag(RegSpec("ridge"), beta) == 1.0)
    assert np.all(reg_curvature_diag(RegSpec("l1"), beta) == 0.0)
    assert np.all(
        reg_curvature_diag(RegSpec("elastic_net", mix=0.3), beta) == 0.7
    )


def test_family_dispatch_errors():
    with pytest.raises(ValueError):
        reg_eval(RegSpec("l1"), np.zeros(2))
    with pytest.raises(ValueError):
        prox_step(RegSpec("ridge"), np.zeros(2), 1.0, 1.0)
    with pytest.raises(ValueError):
        RegSpec("elastic_net")
    with pytest.raises(ValueError):
        RegSpec("elastic_net", mix=1.5)
    with pytest.raises(ValueError):
        RegSpec("smoothed_elastic_net", mix=0.5)
    with pytest.raises(ValueError):
        RegSpec("ridge", mix=0.5)
