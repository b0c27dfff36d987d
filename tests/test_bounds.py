import warnings

import numpy as np
import pytest

from loorisk.bounds import (
    audit_assumptions,
    check_perturb_lemma,
    compute_Cb,
    compute_Cb_tilde,
    compute_Cv_from_parts,
    compute_Cv_logistic,
    pick_audit_indices,
)
from loorisk.datagen import CovSpec, gen_beta_star, gen_design, gen_response
from loorisk.losses import LossSpec
from loorisk.regularizers import RegSpec
from loorisk.solver import Dataset, ModelSpec, fit, fit_leave_one_out


def fitted_instance(n, p, lam, family="squared", seed=0):
    cov = CovSpec("scaled_identity", 1.0 / n)
    X = gen_design(n, p, cov, seed)
    beta = gen_beta_star(p, max(1, p // 10), "laplace_unit", seed)
    if family == "logistic":
        y = gen_response(X, beta, "logistic", seed)
        model = ModelSpec(LossSpec("logistic"), RegSpec("ridge"), lam)
    else:
        y = gen_response(X, beta, "linear", seed, noise_var=1.0)
        model = ModelSpec(LossSpec("squared"), RegSpec("ridge"), lam)
    data = Dataset(X, y)
    full = fit(data, model)
    assert full.converged
    loo = {}
    for i in pick_audit_indices(n, 10):
        res = fit_leave_one_out(data, model, i, warm=full.beta_hat)
        assert res.converged
        loo[i] = res
    return data, model, full, loo


def test_Cb_example_values():
    assert compute_Cb(2, 2, 1, 1, 0.1) == pytest.approx(1600.0, rel=1e-12)
    assert compute_Cb(1, 1, 1, 1, 1) == 1.0
    assert compute_Cb(2, 2, 1, 1, 0.2) == pytest.approx(400.0, rel=1e-12)


def test_Cv_logistic_printed_formula():
    # 56 + 3200 + 80 sqrt(1656) = 6511.52, not the 6311.52 quoted next to it
    value = compute_Cv_logistic(1.0, 1.0, 0.1)
    assert value == pytest.approx(56 + 3200 + 80 * np.sqrt(1656.0), rel=1e-14)
    assert value == pytest.approx(6511.52, abs=0.01)


def test_Cv_logistic_limits():
    assert compute_Cv_logistic(1e-14, 1.0, 0.1) == pytest.approx(6.0, abs=1e-5)
    assert compute_Cv_logistic(1.0, 1.0, 1e14) == pytest.approx(6.0, abs=1e-5)


def test_Cb_tilde_from_audit_moments():
    data, model, full, loo = fitted_instance(30, 30, 0.2, family="logistic", seed=6)
    audit = audit_assumptions(data, model, full, loo, t_grid_size=5)
    tm = audit.tilde_moments
    value = compute_Cb_tilde(
        2.0, 1.0, 1.0, tm["ell_dot_8th"], tm["inv_sigma_min_8th"], tm["x_norm_4th"]
    )
    expected = (
        4.0 * tm["ell_dot_8th"] * tm["inv_sigma_min_8th"] * tm["x_norm_4th"]
    )
    assert value == pytest.approx(expected, rel=1e-12)
    assert np.isfinite(compute_Cv_from_parts(1.0, value))
    with pytest.raises(ValueError):
        compute_Cb_tilde(-1.0, 1.0, 1.0, 1.0, 1.0, 1.0)


def test_Cv_from_parts_examples():
    assert compute_Cv_from_parts(0.0, 0.0) == 0.0
    assert compute_Cv_from_parts(7.5, 0.0) == 7.5
    assert compute_Cv_from_parts(56.0, 1600.0) == pytest.approx(
        compute_Cv_logistic(1.0, 1.0, 0.1), rel=1e-14
    )


def test_Cv_from_parts_monotone():
    rng = np.random.default_rng(0)
    for _ in range(100):
        e, c = rng.uniform(0, 50, 2)
        de, dc = rng.uniform(0, 10, 2)
        base = compute_Cv_from_parts(e, c)
        assert compute_Cv_from_parts(e + de, c) >= base
        assert compute_Cv_from_parts(e, c + dc) >= base


def test_ridge_audit_curvature_floor():
    lam = 0.3
    data, model, full, loo = fitted_instance(30, 20, lam, seed=1)
    audit = audit_assumptions(data, model, full, loo, t_grid_size=5)
    assert audit.nu_emp >= lam - 1e-9


def test_logistic_audit_derivative_bound():
    data, model, full, loo = fitted_instance(40, 40, 0.1, family="logistic", seed=2)
    audit = audit_assumptions(data, model, full, loo, t_grid_size=5)
    assert audit.c0_emp <= 1.0
    assert audit.nu_emp >= 0.1 - 1e-9
    for value in audit.tilde_moments.values():
        assert np.isfinite(value) and value >= 0.0


def test_squared_loss_audit_is_t_independent():
    # with constant curvature the segment Hessians reduce to the sample
    # Gram matrix; at a vanishing penalty nu_emp tracks sigma_min(X'X)
    rng = np.random.default_rng(3)
    n, p = 200, 20
    X = rng.standard_normal((n, p))
    y = rng.standard_normal(n)
    data = Dataset(X, y)
    model = ModelSpec(LossSpec("squared"), RegSpec("ridge"), lam=1e-10)
    full = fit(data, model)
    loo = {
        i: fit_leave_one_out(data, model, i, warm=full.beta_hat)
        for i in pick_audit_indices(n, 5)
    }
    audit = audit_assumptions(data, model, full, loo, t_grid_size=3)
    sigma_min_full = float(np.linalg.eigvalsh(X.T @ X)[0])
    assert audit.nu_emp <= sigma_min_full + 1e-6
    assert audit.nu_emp >= 0.7 * sigma_min_full


def test_audit_min_shrinks_on_nested_t_grids():
    data, model, full, loo = fitted_instance(25, 25, 0.1, family="logistic", seed=4)
    nus = [
        audit_assumptions(data, model, full, loo, t_grid_size=g).nu_emp
        for g in (3, 5, 9)
    ]
    assert nus[0] >= nus[1] >= nus[2]


def test_perturb_lemma_perfectly_fit_duplicate_row():
    # the removed copy exerts no gradient force at the solution, so the
    # leave-one-out fit coincides with the full fit and the bound is 0 <= 0
    X = np.tile([[1.0, 0.5]], (5, 1))
    y = np.zeros(5)
    data = Dataset(X, y)
    model = ModelSpec(LossSpec("squared"), RegSpec("ridge"), lam=1.0)
    full = fit(data, model)
    loo = {0: fit_leave_one_out(data, model, 0, warm=full.beta_hat)}
    rows = check_perturb_lemma(data, model, full, loo, nu_emp=1.0)
    assert rows[0]["lhs"] <= 1e-9
    assert rows[0]["rhs"] <= 1e-9
    assert rows[0]["holds"]


def test_perturb_lemma_identity_example_holds_with_equality():
    # lhs = ||(0,1) - (0.5,1)|| = 0.5; rhs = (0.5 / 1) * 1 = 0.5
    data = Dataset(np.eye(2), np.array([1.0, 2.0]))
    model = ModelSpec(LossSpec("squared"), RegSpec("ridge"), lam=1.0)
    full = fit(data, model)
    loo = {i: fit_leave_one_out(data, model, i, warm=full.beta_hat) for i in (0, 1)}
    # exact segment Hessian: J_{/0} = diag(0, 1) + I has sigma_min = 1
    audit = audit_assumptions(data, model, full, loo, t_grid_size=3)
    assert audit.nu_emp == pytest.approx(1.0, abs=1e-9)
    rows = check_perturb_lemma(data, model, full, loo, audit.nu_emp)
    assert rows[0]["lhs"] == pytest.approx(0.5, abs=1e-9)
    assert rows[0]["rhs"] == pytest.approx(0.5, abs=1e-9)
    assert all(row["holds"] for row in rows)


def test_perturb_lemma_huge_penalty_trivial():
    data = Dataset(np.eye(3), np.array([1.0, -2.0, 0.5]))
    model = ModelSpec(LossSpec("squared"), RegSpec("ridge"), lam=1e12)
    full = fit(data, model)
    loo = {0: fit_leave_one_out(data, model, 0, warm=full.beta_hat)}
    rows = check_perturb_lemma(data, model, full, loo, nu_emp=1e12)
    assert rows[0]["lhs"] <= 1e-10
    assert rows[0]["rhs"] <= 1e-10
    assert rows[0]["holds"]


@pytest.mark.parametrize("family", ["squared", "logistic"])
def test_perturb_lemma_on_random_instances(family):
    data, model, full, loo = fitted_instance(30, 20, 0.2, family=family, seed=5)
    audit = audit_assumptions(data, model, full, loo, t_grid_size=11)
    rows = check_perturb_lemma(data, model, full, loo, audit.nu_emp)
    assert all(row["holds"] for row in rows)


def test_pick_audit_indices():
    assert pick_audit_indices(5, 25) == (0, 1, 2, 3, 4)
    idx = pick_audit_indices(1000, 25)
    assert len(idx) == 25
    assert idx[0] == 0 and idx[-1] == 999
    with pytest.raises(ValueError, match="count must be >= 1"):
        pick_audit_indices(5, 0)


def test_argument_validation():
    with pytest.raises(ValueError):
        compute_Cb(0, 1, 1, 1, 1)
    with pytest.raises(ValueError):
        compute_Cv_logistic(1, 1, 0)
    with pytest.raises(ValueError):
        compute_Cv_from_parts(-1.0, 0.0)

    # NaN and +-inf used to pass the sign checks and come out as nan or inf
    for function, good, names in (
        (compute_Cb, (2, 2, 1, 1, 0.1), ("c0", "c1", "rho", "delta", "nu")),
        (
            compute_Cb_tilde,
            (2, 1, 1, 1, 1, 1),
            ("c1", "rho", "delta", "ell_dot_8th", "inv_sigma_min_8th", "x_norm_4th"),
        ),
        (compute_Cv_from_parts, (56.0, 1600.0), ("E_var", "C_b")),
        (compute_Cv_logistic, (1, 1, 0.1), ("rho", "delta", "lam")),
    ):
        assert np.isfinite(function(*good))
        for position, name in enumerate(names):
            for bad in (np.nan, np.inf, -np.inf):
                args = list(good)
                args[position] = bad
                with pytest.raises(ValueError, match=rf"^{name} = {bad} must be"):
                    function(*args)

    # finite arguments whose constant overflows: refused by the result's
    # name, with no floating-point warning (NumPy) or OverflowError (Python)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for function, args, name in (
            (compute_Cb, (1e200, 1e200, 1, 1, 1), "C_b"),
            (compute_Cb_tilde, (1e200, 1e200, 1, 1, 1, 1), "C_b_tilde"),
            (compute_Cv_from_parts, (1e308, 1e308), "C_v"),
            (compute_Cv_logistic, (1e200, 1e200, 1e-200), "C_b"),
        ):
            with pytest.raises(ValueError, match=rf"^{name} = inf must be"):
                function(*args)
