from dataclasses import replace

import numpy as np
import pytest

from scipy.special import expit

from loorisk import risk, solver
from loorisk.cli import load_config
from loorisk.datagen import (
    CovSpec,
    gen_beta_star,
    gen_design,
    gen_replicate,
    gen_response,
)
from loorisk.losses import LossSpec, loss_eval
from loorisk.regularizers import RegSpec, reg_eval
from loorisk.risk import alo, fold_assignments, kfold_cv, lo_exact, refits
from loorisk.solver import (
    Dataset,
    ModelSpec,
    SolverError,
    SolverOpts,
    fit,
    fit_leave_groups_out,
    fit_leave_one_out,
)

RIDGE_SQ = ModelSpec(LossSpec("squared"), RegSpec("ridge"), lam=1.0)
ENET_SQ = ModelSpec(LossSpec("squared"), RegSpec("elastic_net", mix=0.5), lam=1.0)
PROX_OPTS = SolverOpts(max_iter=20000)


def seeded_ridge_instance(n, p, seed):
    rng = np.random.default_rng(seed)
    return Dataset(rng.standard_normal((n, p)), rng.standard_normal(n))


def enet_instance(seed):
    # |beta*| >= 2 against a penalty of 1 on 40 standard-normal rows: every
    # coefficient stays active, with the sign of beta*, in every refit
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((40, 5))
    beta_star = np.array([3.0, -3.0, 2.0, -2.0, 4.0])
    return Dataset(X, X @ beta_star + 0.5 * rng.standard_normal(40))


def logistic_ridge_instance(n, seed, lam=0.1):
    cov = CovSpec("scaled_identity", 1.0 / n)
    X = gen_design(n, n, cov, seed)
    beta = gen_beta_star(n, max(1, n // 10), "laplace_unit", seed)
    y = gen_response(X, beta, "logistic", seed)
    return Dataset(X, y), ModelSpec(LossSpec("logistic"), RegSpec("ridge"), lam)


def test_lo_identity_example():
    data = Dataset(np.eye(2), np.array([1.0, 2.0]))
    report = lo_exact(data, RIDGE_SQ)
    assert np.allclose(report.per_sample, [0.5, 2.0], atol=1e-12)
    assert report.estimate == pytest.approx(1.25, abs=1e-12)
    assert report.method == "lo_exact"


def test_lo_identical_rows_are_exchangeable():
    data = Dataset(np.tile([[1.0, -0.5]], (6, 1)), np.full(6, 2.0))
    report = lo_exact(data, RIDGE_SQ)
    assert np.max(report.per_sample) - np.min(report.per_sample) <= 1e-12


def test_lo_estimate_invariant_under_row_permutation():
    data = seeded_ridge_instance(12, 5, seed=0)
    perm = np.random.default_rng(1).permutation(12)
    shuffled = Dataset(data.X[perm], data.y[perm])
    a = lo_exact(data, RIDGE_SQ)
    b = lo_exact(shuffled, RIDGE_SQ)
    assert a.estimate == pytest.approx(b.estimate, abs=1e-12)
    assert np.allclose(np.sort(a.per_sample), np.sort(b.per_sample), atol=1e-10)


def test_alo_identity_example_hand_woodbury():
    data = Dataset(np.eye(2), np.array([1.0, 2.0]))
    full = fit(data, RIDGE_SQ)
    report = alo(data, RIDGE_SQ, full)
    assert np.allclose(report.h_diag, [0.5, 0.5], atol=1e-12)
    assert np.allclose(report.per_sample, [0.5, 2.0], atol=1e-12)
    lo = lo_exact(data, RIDGE_SQ)
    assert np.allclose(report.per_sample, lo.per_sample, atol=1e-12)


def test_alo_huge_penalty_kills_correction():
    data = seeded_ridge_instance(10, 4, seed=2)
    model = ModelSpec(LossSpec("squared"), RegSpec("ridge"), lam=1e12)
    full = fit(data, model)
    report = alo(data, model, full)
    assert np.max(report.h_diag) <= 1e-9
    base, _, _ = loss_eval(LossSpec("squared"), data.y, data.X @ full.beta_hat)
    assert np.allclose(report.per_sample, base, atol=1e-9)
    # beta is essentially zero, so these are the at-zero losses
    at_zero, _, _ = loss_eval(LossSpec("squared"), data.y, np.zeros(10))
    assert np.allclose(report.per_sample, at_zero, atol=1e-6)


def test_alo_empty_active_set():
    data = seeded_ridge_instance(8, 5, seed=3)
    model = ModelSpec(LossSpec("squared"), RegSpec("elastic_net", mix=0.5), lam=1e6)
    full = fit(data, model, PROX_OPTS)
    assert np.all(full.beta_hat == 0.0)
    report = alo(data, model, full)
    assert report.active_set is not None and report.active_set.size == 0
    assert np.all(report.h_diag == 0.0)
    at_zero, _, _ = loss_eval(LossSpec("squared"), data.y, np.zeros(8))
    assert np.allclose(report.per_sample, at_zero, atol=1e-12)


def test_alo_l1_active_set_leverages():
    rng = np.random.default_rng(4)
    n, p = 40, 20
    X = rng.standard_normal((n, p))
    y = X @ (rng.standard_normal(p) * (rng.random(p) < 0.4)) + rng.standard_normal(n)
    data = Dataset(X, y)
    model = ModelSpec(LossSpec("squared"), RegSpec("l1"), lam=5.0)
    full = fit(data, model, PROX_OPTS)
    report = alo(data, model, full)
    active = np.flatnonzero(full.beta_hat != 0.0)
    assert np.array_equal(report.active_set, active)
    # direct dense computation of the restricted hat diagonal
    Xs = X[:, active]
    H = Xs @ np.linalg.solve(Xs.T @ Xs, Xs.T)
    assert np.allclose(report.h_diag, np.diag(H), atol=1e-8)


@pytest.mark.parametrize(
    "model, instance, opts",
    [
        (RIDGE_SQ, lambda seed: seeded_ridge_instance(30, 10, seed), None),
        (RIDGE_SQ, lambda seed: seeded_ridge_instance(10, 30, seed), None),
        # FISTA stops on the prox fixed-point residual; at 1e-12 the LO
        # refits are exact well inside the 1e-8 window (1e-9 leaves ~2e-8)
        (ENET_SQ, enet_instance, SolverOpts(tol=1e-12, max_iter=20000)),
    ],
    ids=["shape0", "shape1", "elastic_net"],
)
def test_quadratic_exactness(model, instance, opts):
    for seed in range(10):
        data = instance(100 + seed)
        full = fit(data, model, opts)
        if not model.reg.is_smooth:
            # l1-family ALO is exact only when no refit changes the active
            # set or a sign
            signs = np.sign(full.beta_hat)
            assert np.all(signs != 0)
            for _, res in refits(data, model, range(data.n), full, opts):
                assert np.array_equal(np.sign(res.beta_hat), signs)
        a = alo(data, model, full)
        lo = lo_exact(data, model, opts, full_fit=full)
        assert np.max(np.abs(a.per_sample - lo.per_sample)) <= 1e-8


def test_woodbury_rank_one_downdate_consistency():
    # leave-one-out predictions via an explicit Sherman-Morrison downdate
    # must match the leverage-corrected predictions
    n, p = 20, 8
    data = seeded_ridge_instance(n, p, seed=5)
    full = fit(data, RIDGE_SQ)
    report = alo(data, RIDGE_SQ, full)
    A = data.X.T @ data.X + np.eye(p)
    A_inv = np.linalg.inv(A)
    b = data.X.T @ data.y
    for i in range(n):
        x = data.X[i]
        Ax = A_inv @ x
        A_loo_inv = A_inv + np.outer(Ax, Ax) / (1.0 - x @ Ax)
        beta_loo = A_loo_inv @ (b - x * data.y[i])
        z_loo = float(x @ beta_loo)
        _, d1, d2 = loss_eval(LossSpec("squared"), data.y[i], float(x @ full.beta_hat))
        h = report.h_diag[i]
        z_alo = float(x @ full.beta_hat) + h / (1.0 - h) * d1 / d2
        assert z_alo == pytest.approx(z_loo, abs=1e-8)


def test_h_diag_is_a_contraction_for_ridge():
    for seed, (n, p) in [(6, (25, 10)), (7, (10, 25))]:
        data = seeded_ridge_instance(n, p, seed=seed)
        full = fit(data, RIDGE_SQ)
        report = alo(data, RIDGE_SQ, full)
        assert np.all(report.h_diag >= 0.0)
        assert np.all(report.h_diag < 1.0)


def test_alo_flags_leverage_pole():
    # identity design with near-zero l1 penalty keeps both coordinates
    # active, making the restricted hat matrix the identity
    data = Dataset(np.eye(2), np.array([3.0, 4.0]))
    model = ModelSpec(LossSpec("squared"), RegSpec("l1"), lam=1e-8)
    full = fit(data, model, PROX_OPTS)
    report = alo(data, model, full)
    assert report.n_flagged == 2
    assert np.all(np.isinf(report.per_sample))


def test_alo_requires_converged_fit():
    data, model = logistic_ridge_instance(10, seed=8)
    bad = fit(data, model, SolverOpts(max_iter=1))
    assert not bad.converged
    with pytest.raises(ValueError):
        alo(data, model, bad)


@pytest.mark.parametrize("model", [RIDGE_SQ, ENET_SQ], ids=["ridge", "enet"])
@pytest.mark.parametrize(
    "bad", [np.full(10, np.nan), np.zeros(11)], ids=["nan", "length"]
)
def test_coefficient_vectors_are_checked_where_they_enter(model, bad):
    # each entry point refuses the vector by name; unchecked, a NaN warm start
    # ends in unconverged refits, a NaN beta_hat flags every ALO row at the
    # pole, and a vector of the wrong length fails inside numpy's matmul
    data = seeded_ridge_instance(30, 10, seed=4)
    full = fit(data, model, PROX_OPTS)
    with pytest.raises(ValueError, match="beta0"):
        fit(data, model, PROX_OPTS, beta0=bad)
    with pytest.raises(ValueError, match="warm"):
        next(fit_leave_groups_out(data, model, range(data.n), bad, PROX_OPTS))
    poisoned = replace(full, beta_hat=bad)
    with pytest.raises(ValueError, match="full_fit.beta_hat"):
        alo(data, model, poisoned)
    with pytest.raises(ValueError, match="warm"):
        lo_exact(data, model, PROX_OPTS, full_fit=poisoned)


def test_kfold_equals_lo_when_k_is_n():
    data, model = logistic_ridge_instance(14, seed=9, lam=0.5)
    lo = lo_exact(data, model)
    cv = kfold_cv(data, model, K=14, seed=77)
    assert np.array_equal(lo.per_sample, cv.per_sample)
    assert lo.estimate == cv.estimate


def refit_fails_on_call(monkeypatch, k):
    """Make the engine report the k-th refit (1-based, in the order the
    groups are given) as not converged."""
    real_engine = risk.fit_leave_groups_out

    def fake_engine(data, model, groups, warm, opts=None):
        groups = list(groups)
        failing = np.atleast_1d(groups[k - 1])
        for rows, res in real_engine(data, model, groups, warm, opts):
            if np.array_equal(np.atleast_1d(rows), failing):
                res = replace(res, converged=False)
            yield rows, res

    monkeypatch.setattr(risk, "fit_leave_groups_out", fake_engine)


def test_lo_names_the_row_whose_refit_fails(monkeypatch):
    data = seeded_ridge_instance(8, 3, seed=14)
    refit_fails_on_call(monkeypatch, 4)
    with pytest.raises(SolverError, match=r"rows \[3\] did not converge"):
        lo_exact(data, RIDGE_SQ)


def test_kfold_names_the_rows_of_the_failing_fold(monkeypatch):
    data = seeded_ridge_instance(11, 3, seed=15)
    labels = fold_assignments(11, 3, seed=4)
    rows = np.flatnonzero(labels == 1).tolist()
    refit_fails_on_call(monkeypatch, 2)
    with pytest.raises(SolverError) as info:
        kfold_cv(data, RIDGE_SQ, K=3, seed=4)
    assert f"rows {rows} did not converge" in str(info.value)


def test_kfold_constant_on_duplicated_rows():
    data = Dataset(np.tile([[0.3, -1.2]], (4, 1)), np.full(4, 1.5))
    cv = kfold_cv(data, RIDGE_SQ, K=2, seed=0)
    assert np.max(cv.per_sample) - np.min(cv.per_sample) <= 1e-12


def test_kfold_deterministic_given_seed():
    data, model = logistic_ridge_instance(20, seed=10, lam=0.5)
    a = kfold_cv(data, model, K=5, seed=123)
    b = kfold_cv(data, model, K=5, seed=123)
    assert np.array_equal(a.per_sample, b.per_sample)
    assert a.estimate == b.estimate
    c = kfold_cv(data, model, K=5, seed=124)
    assert not np.array_equal(a.per_sample, c.per_sample)


def test_fold_assignment_sizes():
    labels = fold_assignments(23, 5, seed=1)
    counts = np.bincount(labels, minlength=5)
    assert counts.sum() == 23
    assert counts.max() - counts.min() <= 1


def test_kfold_validates_k():
    data = seeded_ridge_instance(6, 3, seed=11)
    with pytest.raises(ValueError):
        kfold_cv(data, RIDGE_SQ, K=1, seed=0)
    with pytest.raises(ValueError):
        kfold_cv(data, RIDGE_SQ, K=7, seed=0)


def test_custom_error_function():
    # phi need not equal the fitting loss: score LO residuals with the
    # pseudo-Huber function while fitting under squared loss
    data = Dataset(np.eye(2), np.array([1.0, 2.0]))
    model = ModelSpec(
        LossSpec("squared"),
        RegSpec("ridge"),
        lam=1.0,
        phi=LossSpec("pseudo_huber", huber_scale=2.0),
    )
    report = lo_exact(data, model)
    # leave-one-out predictions are 0, so phi(y_i, 0) = f_H(y_i)
    expected = [4.0 * (np.sqrt(1.0 + y * y / 4.0) - 1.0) for y in (1.0, 2.0)]
    assert np.allclose(report.per_sample, expected, atol=1e-10)


def linear_enet_instance(n, seed):
    # squared loss with elastic net on rows N(0, I/n), p = n / 2, a tenth of
    # beta* nonzero (unit Laplace), unit noise
    p = n // 2
    X = gen_design(n, p, CovSpec("scaled_identity", 1.0 / n), seed)
    beta = gen_beta_star(p, max(1, p // 10), "laplace_unit", seed)
    y = gen_response(X, beta, "linear", seed, noise_var=1.0)
    model = ModelSpec(LossSpec("squared"), RegSpec("elastic_net", mix=0.5), lam=1.0)
    return Dataset(X, y), model


def test_alo_lo_gap_shrinks_with_n_for_elastic_net():
    # the mean |ALO - LO| gap should drop by at least x1.5 from n = 50 to
    # n = 200 at a fixed p / n
    gaps = {}
    for n in (50, 200):
        diffs = []
        for rep in range(4):
            data, model = linear_enet_instance(n, seed=2000 + 17 * rep + n)
            full = fit(data, model, PROX_OPTS)
            a = alo(data, model, full)
            lo = lo_exact(data, model, PROX_OPTS, full_fit=full)
            diffs.append(abs(a.estimate - lo.estimate))
        gaps[n] = np.mean(diffs)
    assert gaps[50] / gaps[200] >= 1.5


def test_alo_lo_gap_shrinks_with_n():
    # ridge-logistic design: the mean |ALO - LO| gap should drop by at
    # least x1.5 from n = 100 to n = 400
    gaps = {}
    for n in (100, 400):
        diffs = []
        for rep in range(6):
            data, model = logistic_ridge_instance(n, seed=1000 + 17 * rep + n)
            full = fit(data, model)
            a = alo(data, model, full)
            lo = lo_exact(data, model, full_fit=full)
            diffs.append(abs(a.estimate - lo.estimate))
        gaps[n] = np.mean(diffs)
    assert gaps[100] / gaps[400] >= 1.5


def saturated_logistic_instance():
    # one near-separating column drives |x_i beta_hat| past ~37 on some
    # rows, where the logistic curvature s (1 - s) is exactly 0
    rng = np.random.default_rng(0)
    n, p = 40, 60
    X = rng.standard_normal((n, p)) / np.sqrt(n)
    y = (rng.random(n) < 0.5).astype(float)
    X[:, 0] = 100.0 * (2.0 * y - 1.0) * rng.random(n)
    return Dataset(X, y)


@pytest.mark.parametrize("reg", ["ridge", "l1"])
def test_alo_on_rows_with_zero_loss_curvature(reg):
    data = saturated_logistic_instance()
    model = ModelSpec(LossSpec("logistic"), RegSpec(reg), lam=1.0)
    full = fit(data, model, PROX_OPTS)
    z = data.X @ full.beta_hat
    s = expit(z)
    d1, d2 = s - data.y, s * (1.0 - s)
    assert np.any(d2 == 0.0)
    # reference: q_i = x_{i,S}^T A^{-1} x_{i,S} on the active columns S,
    # z_i + q_i d1_i / (1 - d2_i q_i), scored by the logistic loss
    cols = np.arange(data.p) if reg == "ridge" else np.flatnonzero(full.beta_hat)
    Xs = data.X[:, cols]
    A = Xs.T @ (d2[:, None] * Xs)
    if reg == "ridge":
        A += model.lam * np.eye(data.p)
    q = np.sum(Xs * np.linalg.solve(A, Xs.T).T, axis=1)
    z_loo = z + q * d1 / (1.0 - d2 * q)
    expected = np.logaddexp(0.0, z_loo) - data.y * z_loo

    report = alo(data, model, full)
    assert report.n_flagged == 0
    assert np.allclose(report.per_sample, expected, rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize(
    "model, instance, opts",
    [
        (None, lambda: logistic_ridge_instance(20, seed=10, lam=0.5), None),
        (ENET_SQ, lambda: enet_instance(100), PROX_OPTS),
    ],
    ids=["logistic_ridge", "elastic_net"],
)
def test_kfold_reuses_a_given_full_fit(model, instance, opts):
    data = instance()
    if model is None:
        data, model = data
    full = fit(data, model, opts)
    own = kfold_cv(data, model, K=5, seed=123, opts=opts)
    given = kfold_cv(data, model, K=5, seed=123, opts=opts, full_fit=full)
    assert np.array_equal(own.per_sample, given.per_sample)
    assert own.estimate == given.estimate


def test_nan_newton_candidate_is_never_accepted(monkeypatch):
    # the loss kernels turn NaN at every point the refit without row 3
    # tries after its warm start: the batched Armijo test rejects its first
    # step and hands it to _fit_newton, whose line search must reject each
    # point, so the refit stops unconverged at the warm start and LO names
    # the row
    data = seeded_ridge_instance(8, 3, seed=14)
    full = fit(data, RIDGE_SQ)
    kept = np.delete(data.y, 3)
    real_terms, real_value = solver._loss_terms, solver._loss_value
    real_newton = solver._fit_newton
    batched_calls, poisoned_calls, refit_results = [], [], []

    def poison_refit(y, z, value):
        if np.shape(y) == kept.shape and np.array_equal(y, kept):
            poisoned_calls.append(z)
            if len(poisoned_calls) > 1:
                value = np.full_like(value, np.nan)
        return value

    def poisoned_terms(spec, y, z, **curvature):
        value, *slopes = real_terms(spec, y, z, **curvature)
        if np.ndim(z) == 2:
            # the batched kernel sees one refit per row of z; its first
            # call holds the first step of all eight refits in row order
            batched_calls.append(z)
            if len(batched_calls) == 1:
                value[3] = np.nan
        else:
            value = poison_refit(y, z, value)
        return value, *slopes

    def poisoned_value(spec, y, z):
        # objective() scores by the value kernel alone; the line search
        # scores its candidates by _loss_terms, poisoned above
        return poison_refit(y, z, real_value(spec, y, z))

    def recording_newton(*args):
        refit_results.append(real_newton(*args))
        return refit_results[-1]

    monkeypatch.setattr(solver, "_loss_terms", poisoned_terms)
    monkeypatch.setattr(solver, "_loss_value", poisoned_value)
    monkeypatch.setattr(solver, "_fit_newton", recording_newton)
    with pytest.raises(SolverError, match=r"rows \[3\] did not converge"):
        lo_exact(data, RIDGE_SQ, full_fit=full)
    assert batched_calls[0].shape[0] == 8
    assert len(poisoned_calls) > 1
    failed = refit_results[-1]
    assert not failed.converged
    assert np.array_equal(failed.beta_hat, full.beta_hat)
    assert np.isfinite(failed.objective)


@pytest.mark.parametrize("poison", [np.nan, np.inf], ids=["nan", "inf"])
def test_fista_refit_whose_backtracking_fails_leaves_the_block(
    monkeypatch, caplog, poison
):
    # the loss of the refit without row 7 is poisoned (NaN everywhere, or
    # +inf after the block's first call, which scores the warm starts), so
    # no step passes the quadratic bound and its backtracking pushes L past
    # 1e25 in the first iteration.  That refit leaves the block unconverged
    # at its warm start, although a +inf candidate passes the objective
    # test of a row without momentum; the other refits run on as without it
    rng = np.random.default_rng(29)
    data = Dataset(rng.standard_normal((20, 30)), rng.standard_normal(20))
    full = fit(data, ENET_SQ)
    assert full.converged
    clean = list(fit_leave_groups_out(data, ENET_SQ, range(20), full.beta_hat))
    real_block_loss = solver._block_loss

    def poison_row_7():
        calls = []

        def poisoned_block_loss(loss, y, Z, at):
            f, d1 = real_block_loss(loss, y, Z, at)
            calls.append(1)
            if at is not None and (np.isnan(poison) or len(calls) > 1):
                f = np.where((at[1] == 7).any(axis=1), poison, f)
            return f, d1

        monkeypatch.setattr(solver, "_block_loss", poisoned_block_loss)

    poison_row_7()
    out = list(fit_leave_groups_out(data, ENET_SQ, range(20), full.beta_hat))
    assert "FISTA backtracking failed" in caplog.text
    assert [rows for rows, _ in out] == list(range(20))
    for (rows, res), (_, ref) in zip(out, clean):
        if rows == 7:
            assert not res.converged
            assert res.iterations == 1
            assert np.array_equal(res.beta_hat, full.beta_hat)
        else:
            assert res.converged
            assert res.iterations == ref.iterations
            assert np.max(np.abs(res.beta_hat - ref.beta_hat)) <= 1e-12
    poison_row_7()
    with pytest.raises(SolverError, match=r"rows \[7\] did not converge"):
        list(refits(data, ENET_SQ, range(20), full))


GLM_LOSSES = {
    "squared": (LossSpec("squared"), "linear"),
    "logistic": (LossSpec("logistic"), "logistic"),
    "pseudo_huber": (LossSpec("pseudo_huber", huber_scale=1.0), "linear"),
    "smoothed_abs": (LossSpec("smoothed_abs", smooth_scale=2.0), "linear"),
    "poisson_softrect": (LossSpec("poisson_softrect"), "poisson_softrect"),
    "negative_binomial": (
        LossSpec("negative_binomial", shape=2.0),
        "negative_binomial",
    ),
}
PROX_REGS = {"l1": RegSpec("l1"), "elastic_net": RegSpec("elastic_net", mix=0.5)}
SMOOTH_REGS = {
    "ridge": RegSpec("ridge"),
    "smoothed_elastic_net": RegSpec(
        "smoothed_elastic_net", mix=0.5, smooth_sharpness=10.0
    ),
}


def glm_instance(family, n=20, p=8, seed=21):
    loss, response = GLM_LOSSES[family]
    X = gen_design(n, p, CovSpec("scaled_identity", 1.0 / p), seed)
    beta = gen_beta_star(p, p // 2, "laplace_unit", seed)
    y = gen_response(X, beta, response, seed, noise_var=1.0, shape=loss.shape)
    return Dataset(X, y), loss


def sequential_per_sample(data, model, groups, full):
    """Per-row scores of a loop of fit_leave_one_out over the groups."""
    z = np.empty(data.n)
    for rows in groups:
        res = fit_leave_one_out(data, model, rows, warm=full.beta_hat)
        assert res.converged
        z[rows] = data.X[rows] @ res.beta_hat
    return loss_eval(model.phi_spec, data.y, z)[0]


@pytest.mark.parametrize("reg", list(SMOOTH_REGS))
@pytest.mark.parametrize("family", list(GLM_LOSSES) + ["saturated_logistic"])
def test_batched_refits_equal_sequential_refits(monkeypatch, family, reg):
    if family == "saturated_logistic":
        data, loss = saturated_logistic_instance(), LossSpec("logistic")
    else:
        data, loss = glm_instance(family)
    model = ModelSpec(loss, SMOOTH_REGS[reg], lam=1.0)
    full = fit(data, model)
    labels = fold_assignments(data.n, 5, seed=8)
    folds = [np.flatnonzero(labels == fold) for fold in range(5)]
    real_newton, hand_overs = solver._fit_newton, []

    def counting_newton(*args, **kwargs):
        hand_overs.append(1)
        return real_newton(*args, **kwargs)

    monkeypatch.setattr(solver, "_fit_newton", counting_newton)
    lo = lo_exact(data, model, full_fit=full)
    cv = kfold_cv(data, model, K=5, seed=8, full_fit=full)
    monkeypatch.setattr(solver, "_fit_newton", real_newton)

    expected_lo = sequential_per_sample(data, model, range(data.n), full)
    expected_cv = sequential_per_sample(data, model, folds, full)
    assert np.max(np.abs(lo.per_sample - expected_lo)) <= 1e-8
    assert np.max(np.abs(cv.per_sample - expected_cv)) <= 1e-8
    if family == "saturated_logistic":
        d2 = loss_eval(loss, data.y, data.X @ full.beta_hat)[2]
        assert np.any(d2 == 0.0)
    if (family, reg) == ("squared", "smoothed_elastic_net"):
        # the sharp absolute-value surrogate moves the Hessian too far for
        # some refits, which must then stall and go through _fit_newton
        assert len(hand_overs) > 0


def test_max_iter_caps_every_batched_refit():
    # a refit's batched steps and the steps of its hand-over share one
    # budget; a refit still open when the budget runs out is unconverged,
    # and in the FISTA block it leaves while the others go on
    data, loss = glm_instance("squared")
    for reg, max_iter in [
        (SMOOTH_REGS["smoothed_elastic_net"], 5),
        (RegSpec("elastic_net", mix=0.5), 40),
    ]:
        model = ModelSpec(loss, reg, lam=1.0)
        full = fit(data, model)
        opts = SolverOpts(max_iter=max_iter)
        groups = fit_leave_groups_out(data, model, range(data.n), full.beta_hat, opts)
        results = [res for _, res in groups]
        assert all(res.iterations <= opts.max_iter for res in results)
        assert any(res.converged for res in results)
        open_refits = [res for res in results if not res.converged]
        assert open_refits
        assert all(res.iterations == opts.max_iter for res in open_refits)
        assert all(res.grad_inf_norm > opts.tol for res in open_refits)


def test_few_large_folds_refit_one_group_at_a_time(monkeypatch):
    # the batched setup costs more flops than one factorization per fold
    # when the folds are few and large: 2 folds are refit one at a time,
    # bit for bit as fit_leave_one_out, while 5 folds and LO are batched
    data, loss = glm_instance("logistic")
    model = ModelSpec(loss, SMOOTH_REGS["ridge"], lam=1.0)
    full = fit(data, model)
    real_block, blocks = solver._refit_block, []

    def recording_block(*args):
        blocks.append(args[2])
        return real_block(*args)

    monkeypatch.setattr(solver, "_refit_block", recording_block)
    labels = fold_assignments(data.n, 2, seed=8)
    folds = [np.flatnonzero(labels == fold) for fold in range(2)]
    for rows, res in refits(data, model, folds, full):
        alone = fit_leave_one_out(data, model, rows, warm=full.beta_hat)
        assert np.array_equal(res.beta_hat, alone.beta_hat)
    assert blocks == []
    kfold_cv(data, model, K=5, seed=8, full_fit=full)
    assert [len(held) for held in blocks] == [5]
    lo_exact(data, model, full_fit=full)
    assert [len(held) for held in blocks] == [5, data.n]


@pytest.mark.parametrize(
    "reg", [RegSpec("l1"), RegSpec("elastic_net", mix=0.5)], ids=["l1", "elastic_net"]
)
def test_leave_groups_out_refits_l1_and_elastic_net(reg):
    # the one refit route: groups come back in order of their smallest row;
    # the lockstep FISTA block takes the iterations of fit_leave_one_out from
    # the same start and agrees with it to rounding, and with a tight refit
    # to solver tolerance
    data = enet_instance(7)
    model = ModelSpec(LossSpec("squared"), reg, lam=1.0)
    full = fit(data, model, PROX_OPTS)
    groups = [np.array([9, 3]), 12, np.array([30, 0, 17]), 5]
    out = list(fit_leave_groups_out(data, model, groups, full.beta_hat, PROX_OPTS))
    assert [int(np.min(rows)) for rows, _ in out] == [0, 3, 5, 12]
    tight = replace(PROX_OPTS, tol=1e-13)
    for rows, res in out:
        alone = fit_leave_one_out(data, model, rows, warm=full.beta_hat, opts=PROX_OPTS)
        exact = fit_leave_one_out(data, model, rows, warm=full.beta_hat, opts=tight)
        assert res.converged
        assert res.iterations == alone.iterations
        assert np.max(np.abs(res.beta_hat - alone.beta_hat)) <= 1e-12
        assert np.max(np.abs(res.beta_hat - exact.beta_hat)) <= 1e-8


@pytest.mark.parametrize("reg", list(PROX_REGS))
@pytest.mark.parametrize("family", ["squared", "logistic"])
def test_block_refits_equal_sequential_refits_at_tight_tolerance(family, reg):
    # LO and 5-fold refits of the lockstep FISTA block against one
    # fit_leave_one_out per group, both run to tol = 1e-13, with p > n
    data, loss = glm_instance(family, n=30, p=40)
    model = ModelSpec(loss, PROX_REGS[reg], lam=0.1)
    tight = SolverOpts(tol=1e-13)
    full = fit(data, model, tight)
    assert 0 < np.count_nonzero(full.beta_hat) < data.p
    labels = fold_assignments(data.n, 5, seed=8)
    folds = [np.flatnonzero(labels == fold) for fold in range(5)]
    for groups in (range(data.n), folds):
        block = fit_leave_groups_out(data, model, groups, full.beta_hat, tight)
        for rows, res in block:
            alone = fit_leave_one_out(data, model, rows, warm=full.beta_hat, opts=tight)
            assert res.converged and alone.converged
            held = data.X[np.atleast_1d(rows)]
            assert np.max(np.abs(held @ res.beta_hat - held @ alone.beta_hat)) <= 1e-8


def figure1_desk_replicate(rep):
    sim, model, opts = load_config(preset="figure1_desk")
    X, _, y, _ = gen_replicate(sim, sim.ns[0], rep)
    return Dataset(X, y), model, opts


@pytest.mark.parametrize("rep", [0, 1, 2])
def test_elastic_net_alo_with_an_active_set_larger_than_n(rep):
    # figure1_desk has more active coordinates than its n = 50 rows; the
    # curvature lam (1 - mix) of the quadratic part keeps the restricted
    # matrix positive definite
    data, model, opts = figure1_desk_replicate(rep)
    full = fit(data, model, opts)
    cols = np.flatnonzero(full.beta_hat)
    assert cols.size > data.n
    # reference: q_i = x_{i,S}^T A^{-1} x_{i,S} with
    # A = X_S^T X_S + lam (1 - mix) I, and z_i + q_i d1_i / (1 - q_i) scored
    # by the half squared error
    z = data.X @ full.beta_hat
    Xs = data.X[:, cols]
    A = Xs.T @ Xs + model.lam * (1.0 - model.reg.mix) * np.eye(cols.size)
    q = np.sum(Xs * np.linalg.solve(A, Xs.T).T, axis=1)
    z_loo = z + q * (z - data.y) / (1.0 - q)
    expected = 0.5 * (data.y - z_loo) ** 2

    report = alo(data, model, full)
    assert np.array_equal(report.active_set, cols)
    assert report.n_flagged == 0
    assert np.allclose(report.per_sample, expected, rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize(
    "reg", [RegSpec("l1"), RegSpec("elastic_net", mix=1.0)], ids=["l1", "mix_1"]
)
def test_alo_refuses_an_active_set_larger_than_n_without_curvature(reg):
    # three copies of each of 3 columns on 4 rows: a fit from zero moves the
    # copies alike, so 9 coordinates are active against n = 4
    rng = np.random.default_rng(5)
    A = rng.standard_normal((4, 3))
    data = Dataset(np.hstack([A, A, A]), rng.standard_normal(4))
    model = ModelSpec(LossSpec("squared"), reg, lam=0.01)
    full = fit(data, model, PROX_OPTS)
    assert np.count_nonzero(full.beta_hat) > data.n
    with pytest.raises(SolverError, match="exceeds n=4"):
        alo(data, model, full)


@pytest.mark.parametrize("n, p", [(40, 20), (100, 100), (200, 400)])
@pytest.mark.parametrize(
    "loss, reg",
    [
        ("logistic", "ridge"),
        ("logistic", "smoothed_elastic_net"),
        ("squared", "ridge"),
    ],
)
def test_alo_is_the_first_step_of_the_refit_engine(monkeypatch, loss, reg, n, p):
    # one batched step from beta_hat, on the full-data Hessian corrected for
    # row i by Woodbury, puts x_i^T beta_/i at ALO's z_i + q_i ell'_i / (1 - h_i)
    loss_spec, family = GLM_LOSSES[loss]
    X = gen_design(n, p, CovSpec("scaled_identity", 1.0 / n), seed=31)
    beta_star = gen_beta_star(p, p // 10, "laplace_unit", seed=31)
    data = Dataset(X, gen_response(X, beta_star, family, seed=31, noise_var=1.0))
    model = ModelSpec(loss_spec, SMOOTH_REGS[reg], lam=0.1)
    full = fit(data, model, SolverOpts(tol=1e-12))
    assert full.converged
    real_newton, hand_overs = solver._fit_newton, []

    def counting_newton(*args, **kwargs):
        hand_overs.append(1)
        return real_newton(*args, **kwargs)

    monkeypatch.setattr(solver, "_fit_newton", counting_newton)
    one_step = SolverOpts(max_iter=1)
    refit = fit_leave_groups_out(data, model, range(n), full.beta_hat, one_step)
    z_step = np.array([data.X[i] @ res.beta_hat for i, res in refit])
    monkeypatch.setattr(solver, "_fit_newton", real_newton)
    assert hand_overs == []

    report = alo(data, model, full)
    z = data.X @ full.beta_hat
    _, d1, d2 = loss_eval(loss_spec, data.y, z)
    h = report.h_diag
    z_alo = z + (h / d2) * d1 / (1.0 - h)
    assert np.max(np.abs(z_step - z_alo)) <= 1e-9
    if (loss, reg) == ("squared", "ridge"):
        # the step is exact on a quadratic
        lo = lo_exact(data, model, full_fit=full)
        assert np.array_equal(loss_eval(loss_spec, data.y, z_step)[0], lo.per_sample)


def direct_start(data, model, groups, warm):
    """Objective, gradient and first Newton direction of each refit at warm,
    from the tiled warm start scored on its kept rows, times H^{-1}."""
    X, lam, m = data.X, model.lam, len(groups)
    drop = np.zeros((m, max(len(rows) for rows in groups)), dtype=int)
    for j, rows in enumerate(groups):
        drop[j] = rows[0]
        drop[j, : len(rows)] = rows
    B = np.tile(warm, (m, 1))
    at = solver._drop_index(drop)
    loss_sum, d1 = solver._block_loss(model.loss, data.y, B @ X.T, at)
    loss_grad = d1 @ X
    rv, rg, _ = reg_eval(model.reg, B)
    obj, grad = loss_sum + lam * rv, loss_grad + lam * rg
    d2 = loss_eval(model.loss, data.y, X @ warm)[2]
    H = X.T @ (d2[:, None] * X) + lam * np.diag(reg_eval(model.reg, warm)[2])
    H_inv = np.linalg.inv(H)
    directions = []
    for j, rows in enumerate(groups):
        # H_j^{-1} = H^{-1} + W (I - D Q)^{-1} D W^T for the rows' D, W, Q
        W = H_inv @ X[rows].T
        DQ = d2[rows, None] * (X[rows] @ W)
        correction = W @ np.linalg.solve(np.eye(len(rows)) - DQ, d2[rows, None] * W.T)
        directions.append(-grad[j] @ (H_inv + correction))
    return obj, grad, np.array(directions)


@pytest.mark.parametrize("family", ["logistic", "poisson_softrect"])
@pytest.mark.parametrize("reg", list(SMOOTH_REGS))
@pytest.mark.parametrize("groups", ["lo", "unequal_folds"])
def test_refits_start_from_the_full_fit_terms(monkeypatch, family, reg, groups):
    # the block starts each refit from the full fit's loss terms less those
    # of its held-out rows; that start must be the one a direct evaluation
    # of the warm start on the kept rows gives
    data, loss = glm_instance(family, n=23)
    model = ModelSpec(loss, SMOOTH_REGS[reg], lam=1.0)
    full = fit(data, model, SolverOpts(tol=1e-12))
    if groups == "lo":
        groups = [np.array([i]) for i in range(data.n)]
    else:
        labels = fold_assignments(data.n, 5, seed=8)
        # in the order the engine yields them, by smallest row
        folds = [np.flatnonzero(labels == fold) for fold in range(5)]
        groups = sorted(folds, key=lambda rows: rows[0])
        assert len({rows.size for rows in groups}) == 2
    obj, grad, direction = direct_start(data, model, groups, full.beta_hat)
    real_newton, hand_overs = solver._fit_newton, []

    def counting_newton(*args, **kwargs):
        hand_overs.append(1)
        return real_newton(*args, **kwargs)

    def refit(opts):
        results = fit_leave_groups_out(data, model, groups, full.beta_hat, opts)
        return [res for _, res in results]

    monkeypatch.setattr(solver, "_fit_newton", counting_newton)
    # a tolerance every start meets reports the start itself
    at_start = refit(SolverOpts(tol=1e300))
    one_step = refit(SolverOpts(tol=1e-300, max_iter=1))
    assert hand_overs == []
    assert all(res.iterations == 0 for res in at_start)
    start_obj = np.array([res.objective for res in at_start])
    start_gnorm = np.array([res.grad_inf_norm for res in at_start])
    step = np.array([res.beta_hat for res in one_step]) - full.beta_hat
    assert np.max(np.abs(start_obj - obj) / np.abs(obj)) <= 1e-12
    gnorm = np.max(np.abs(grad), axis=1)
    assert np.max(np.abs(start_gnorm - gnorm) / gnorm) <= 1e-12
    assert np.max(np.abs(step - direction)) <= 1e-12 * np.max(np.abs(direction))


@pytest.mark.parametrize("case", ["ridge", "l1_active_set", "elastic_net_s_above_n"])
def test_alo_leverage_matches_a_dense_solve(monkeypatch, case):
    rng = np.random.default_rng(4)
    if case == "ridge":
        data, model = logistic_ridge_instance(30, seed=3)
        opts = None
    else:
        n, p = (40, 20) if case == "l1_active_set" else (20, 60)
        X = rng.standard_normal((n, p))
        y = X @ (rng.standard_normal(p) * (rng.random(p) < 0.4))
        data = Dataset(X, y + rng.standard_normal(n))
        reg = RegSpec("l1") if case == "l1_active_set" else ENET_SQ.reg
        model = ModelSpec(LossSpec("squared"), reg, lam=5.0 if n == 40 else 0.5)
        opts = PROX_OPTS
    full = fit(data, model, opts)
    real_leverage, calls = risk._leverage, []

    def recording_leverage(Xs, d2, curvature):
        calls.append((Xs, d2, curvature, real_leverage(Xs, d2, curvature)))
        return calls[-1][-1]

    monkeypatch.setattr(risk, "_leverage", recording_leverage)
    report = alo(data, model, full)
    (Xs, d2, curvature, q), = calls
    if case == "elastic_net_s_above_n":
        assert report.active_set.size > data.n
    A = Xs.T @ (d2[:, None] * Xs) + np.diag(curvature)
    reference = np.einsum("ij,ji->i", Xs, np.linalg.solve(A, Xs.T))
    assert np.all(q >= 0.0)
    assert np.max(np.abs(q - reference)) <= 1e-12 * np.max(np.abs(reference))
