
import numpy as np
import pytest
from scipy.linalg import LinAlgError

from loorisk import solver
from loorisk.datagen import CovSpec, gen_beta_star, gen_design, gen_response
from loorisk.losses import LossSpec, loss_eval
from loorisk.regularizers import RegSpec, prox_step, reg_value
from loorisk.risk import fold_assignments
from loorisk.solver import (
    Dataset,
    ModelSpec,
    SolverOpts,
    fit,
    fit_leave_groups_out,
    fit_leave_one_out,
    objective,
)

RIDGE_SQ = ModelSpec(LossSpec("squared"), RegSpec("ridge"), lam=1.0)


def ridge_closed_form(X, y, lam):
    p = X.shape[1]
    return np.linalg.solve(X.T @ X + lam * np.eye(p), X.T @ y)


def logistic_ridge_model(lam):
    return ModelSpec(LossSpec("logistic"), RegSpec("ridge"), lam=lam)


def seeded_logistic_data(n, p, seed):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p)) / np.sqrt(n)
    beta = rng.standard_normal(p)
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-X @ beta))).astype(float)
    return Dataset(X, y)


def test_identity_ridge_closed_form():
    data = Dataset(np.eye(2), np.array([1.0, 2.0]))
    res = fit(data, RIDGE_SQ)
    assert res.converged
    assert np.allclose(res.beta_hat, [0.5, 1.0], atol=1e-12)


@pytest.mark.parametrize("shape", [(30, 10), (10, 30)])
def test_random_ridge_matches_closed_form(shape):
    rng = np.random.default_rng(0)
    n, p = shape
    X = rng.standard_normal((n, p))
    y = rng.standard_normal(n)
    res = fit(Dataset(X, y), ModelSpec(LossSpec("squared"), RegSpec("ridge"), 0.7))
    assert res.converged
    assert np.allclose(res.beta_hat, ridge_closed_form(X, y, 0.7), atol=1e-9)


@pytest.mark.parametrize(
    "loss",
    [
        LossSpec("squared"),
        LossSpec("logistic"),
        LossSpec("pseudo_huber", huber_scale=2.0),
        LossSpec("poisson_softrect"),
    ],
)
def test_huge_penalty_shrinks_to_zero(loss):
    rng = np.random.default_rng(1)
    X = rng.standard_normal((20, 5))
    if loss.family == "logistic":
        y = rng.integers(0, 2, 20).astype(float)
    elif loss.family == "poisson_softrect":
        y = rng.poisson(1.0, 20).astype(float)
    else:
        y = rng.standard_normal(20)
    res = fit(Dataset(X, y), ModelSpec(loss, RegSpec("ridge"), lam=1e12))
    assert res.converged
    assert np.max(np.abs(res.beta_hat)) <= 1e-6


def test_logistic_ridge_matches_slow_gradient_descent():
    # independent first-order oracle: plain gradient descent, 1e5 iterations
    # at step 1e-3
    data = seeded_logistic_data(20, 30, seed=4)
    lam = 1.0
    model = logistic_ridge_model(lam)

    beta = np.zeros(30)
    for _ in range(100_000):
        _, d1, _ = loss_eval(model.loss, data.y, data.X @ beta)
        beta = beta - 1e-3 * (data.X.T @ d1 + lam * beta)
    oracle_obj = objective(data, model, beta)

    res = fit(data, model)
    assert res.converged
    assert res.grad_inf_norm <= 1e-9
    assert res.objective == pytest.approx(oracle_obj, rel=1e-6)


def test_leave_one_out_closed_form():
    data = Dataset(np.eye(2), np.array([1.0, 2.0]))
    res = fit_leave_one_out(data, RIDGE_SQ, 0)
    assert np.allclose(res.beta_hat, [0.0, 1.0], atol=1e-12)


def test_duplicated_row_leave_one_out():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((8, 4))
    y = rng.standard_normal(8)
    X_dup = np.vstack([X, X[3]])
    y_dup = np.append(y, y[3])
    base = fit(Dataset(X, y), RIDGE_SQ)
    dropped = fit_leave_one_out(Dataset(X_dup, y_dup), RIDGE_SQ, 8)
    assert np.allclose(base.beta_hat, dropped.beta_hat, atol=1e-9)


@pytest.mark.parametrize(
    "model",
    [
        logistic_ridge_model(0.5),
        ModelSpec(LossSpec("logistic"), RegSpec("elastic_net", mix=0.5), lam=0.5),
    ],
    ids=["ridge", "elastic_net"],
)
def test_fold_refit_equals_fit_on_kept_rows(model):
    data = seeded_logistic_data(30, 10, seed=13)
    opts = SolverOpts(max_iter=20000)
    warm = fit(data, model, opts).beta_hat
    idx = np.array([2, 7, 19, 25])
    mask = np.ones(data.n, dtype=bool)
    mask[idx] = False
    refit = fit_leave_one_out(data, model, idx, warm=warm, opts=opts)
    direct = fit(Dataset(data.X[mask], data.y[mask]), model, opts, beta0=warm)
    assert data.drop_rows(idx).X.flags.c_contiguous
    assert refit.converged
    assert np.array_equal(refit.beta_hat, direct.beta_hat)
    assert refit.iterations == direct.iterations


@pytest.mark.parametrize(
    "make",
    [
        lambda: ModelSpec(LossSpec("squared"), RegSpec("ridge"), lam=np.inf),
        lambda: LossSpec("pseudo_huber", huber_scale=np.inf),
        lambda: LossSpec("smoothed_abs", smooth_scale=np.inf),
        lambda: LossSpec("negative_binomial", shape=np.inf),
        lambda: RegSpec("smoothed_elastic_net", mix=0.5, smooth_sharpness=np.inf),
        lambda: CovSpec("scaled_identity", np.inf),
        lambda: SolverOpts(tol=np.inf),
    ],
    ids=[
        "lam",
        "huber_scale",
        "smooth_scale",
        "shape",
        "smooth_sharpness",
        "scale",
        "tol",
    ],
)
def test_an_infinite_parameter_is_refused(make):
    # each used to be accepted, to end in a NaN objective or a non-finite design
    with pytest.raises(ValueError, match="finite|< inf"):
        make()


def test_refit_rejects_bad_row_sets():
    data = Dataset(np.eye(3), np.zeros(3))
    with pytest.raises(ValueError):
        fit_leave_one_out(data, RIDGE_SQ, np.array([], dtype=int))
    for rows in (3, -1, np.array([0, 3])):
        with pytest.raises(IndexError):
            fit_leave_one_out(data, RIDGE_SQ, rows)
    for rows in (np.arange(3), np.array([2, 0, 1, 0])):
        with pytest.raises(ValueError):
            fit_leave_one_out(data, RIDGE_SQ, rows)
    with pytest.raises(ValueError):
        fit_leave_one_out(Dataset(np.eye(1), np.zeros(1)), RIDGE_SQ, 0)


def test_warm_and_cold_starts_agree():
    data = seeded_logistic_data(40, 25, seed=6)
    model = logistic_ridge_model(0.5)
    cold = fit(data, model)
    warm_start = cold.beta_hat + np.random.default_rng(7).normal(0, 0.3, 25)
    warm = fit(data, model, beta0=warm_start)
    assert cold.converged and warm.converged
    assert np.max(np.abs(cold.beta_hat - warm.beta_hat)) <= 1e-7


def test_objective_no_worse_than_zero_estimator():
    for seed in range(5):
        data = seeded_logistic_data(30, 20, seed=seed)
        model = logistic_ridge_model(0.2)
        res = fit(data, model)
        assert res.converged
        zero_obj = objective(data, model, np.zeros(20))
        assert res.objective <= zero_obj + 1e-12


def test_tolerance_insensitivity():
    data = seeded_logistic_data(30, 30, seed=8)
    model = logistic_ridge_model(0.1)
    betas = [
        fit(data, model, SolverOpts(tol=tol)).beta_hat
        for tol in (1e-8, 1e-9, 1e-10)
    ]
    for b in betas[1:]:
        assert np.max(np.abs(b - betas[0])) <= 1e-7


def test_fista_matches_slow_ista():
    # independent oracle: unaccelerated proximal gradient with a fixed safe
    # step, run to stagnation
    rng = np.random.default_rng(9)
    n, p = 40, 60
    X = rng.standard_normal((n, p)) / np.sqrt(n)
    y = X @ (rng.standard_normal(p) * (rng.random(p) < 0.2)) + 0.3 * rng.standard_normal(n)
    data = Dataset(X, y)
    reg = RegSpec("elastic_net", mix=0.5)
    model = ModelSpec(LossSpec("squared"), reg, lam=0.05)

    L = np.linalg.eigvalsh(X.T @ X)[-1]
    step = 1.0 / L
    beta = np.zeros(p)
    for _ in range(20_000):
        grad = X.T @ (X @ beta - y)
        beta = prox_step(reg, beta - step * grad, step, model.lam)
    oracle_obj = 0.5 * np.sum((y - X @ beta) ** 2) + model.lam * reg_value(reg, beta)

    res = fit(data, model, SolverOpts(max_iter=20000))
    assert res.converged
    assert res.objective == pytest.approx(oracle_obj, rel=1e-8)
    assert np.max(np.abs(res.beta_hat - beta)) <= 1e-6


def sequential_fista(data, model, opts, beta0):
    """Reference: the solver's monotone FISTA for one fit, written as a
    plain loop.  Returns the solution and the iterations it took."""
    X, y, lam, reg = data.X, data.y, model.lam, model.reg

    def smooth(b):
        values, d1, _ = loss_eval(model.loss, y, X @ b)
        return float(np.sum(values)), X.T @ d1

    def residual(b, g, L):
        step = 1.0 / L
        return float(np.max(np.abs(b - prox_step(reg, b - step * g, step, lam))))

    # step size from the power iteration of the solver, deterministic start
    v = np.random.default_rng(0).standard_normal(data.p)
    v /= np.linalg.norm(v)
    for _ in range(60):
        w = X.T @ (X @ v)
        sigma = np.linalg.norm(w)
        v = w / sigma
    d2 = loss_eval(model.loss, y, X @ beta0)[2]
    L = max(sigma * max(float(np.max(d2)), 1e-12), 1e-12)

    x = beta0
    fx, gx = smooth(x)
    Fx = fx + lam * reg_value(reg, x)
    if residual(x, gx, L) <= opts.tol:
        return x, 0
    yk, fy, gy, t, from_x = x, fx, gx, 1.0, True
    for it in range(1, opts.max_iter + 1):
        while True:
            step = 1.0 / L
            cand = prox_step(reg, yk - step * gy, step, lam)
            diff = cand - yk
            f_cand, g_cand = smooth(cand)
            quad = fy + float(gy @ diff) + 0.5 * L * float(diff @ diff)
            if f_cand <= quad + 1e-12 * (1.0 + abs(fy)):
                break
            L *= 2.0
        F_cand = f_cand + lam * reg_value(reg, cand)
        if from_x or F_cand <= Fx + 1e-14 * (1.0 + abs(Fx)):
            if residual(cand, g_cand, L) <= opts.tol:
                return cand, it
            t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
            yk = cand + ((t - 1.0) / t_next) * (cand - x)
            fy, gy = smooth(yk)
            from_x, t = False, t_next
            x, fx, Fx, gx = cand, f_cand, F_cand, g_cand
        else:
            yk, fy, gy, t, from_x = x, fx, gx, 1.0, True
    raise AssertionError("reference FISTA did not converge")


@pytest.mark.parametrize(
    "reg", [RegSpec("l1"), RegSpec("elastic_net", mix=0.5)], ids=["l1", "elastic_net"]
)
@pytest.mark.parametrize(
    "loss, start",
    [("squared", "zero"), ("logistic", "zero"), ("logistic", "saturated")],
)
def test_fista_block_runs_the_sequential_method(loss, start, reg):
    # the lockstep block, as a full fit and as a block of LO refits, takes
    # the iterations of the plain loop and agrees with it to rounding.  The
    # block sums in another order, and where the residual ends a hair from
    # tol that moves the stop, so a few fits may differ in their count
    data = seeded_logistic_data(30, 40, seed=14)
    model = ModelSpec(LossSpec(loss), reg, lam=0.05)
    opts = SolverOpts()
    beta0 = np.zeros(data.p)
    if start == "saturated":
        # every |x_i^T beta0| is 40, where ell'' is about 4e-18: the first
        # step size is far too long, and every fit backtracks
        z0 = np.where(np.arange(data.n) % 2, 40.0, -40.0)
        beta0 = np.linalg.lstsq(data.X, z0, rcond=None)[0]
    full = fit(data, model, opts, beta0)
    warm = full.beta_hat if start == "zero" else beta0
    pairs = [(full, sequential_fista(data, model, opts, beta0))]
    for i, res in fit_leave_groups_out(data, model, range(data.n), warm):
        pairs.append((res, sequential_fista(data.drop_rows(i), model, opts, warm)))
    assert all(res.converged for res, _ in pairs)
    same = [(res, beta) for res, (beta, its) in pairs if res.iterations == its]
    assert len(same) >= 0.75 * len(pairs)
    for res, beta in same:
        assert np.max(np.abs(res.beta_hat - beta)) <= 1e-12


def fista_lo_block(loss, n=30, p=20, m=4):
    """A block of m LO refits from zero, as fit_leave_groups_out runs it."""
    data = seeded_logistic_data(n, p, seed=31)
    y = data.y if loss == "logistic" else data.X @ np.ones(p) + data.y
    model = ModelSpec(LossSpec(loss), RegSpec("elastic_net", mix=0.5), lam=0.05)
    drop = np.arange(m)[:, None]
    return data.X, y, model, np.zeros((m, p)), drop


def test_quadratic_momentum_gradient_is_the_extrapolated_one(monkeypatch):
    # for squared loss the momentum point's gradient is extrapolated from
    # the candidate's and the iterate's; in every iteration it equals the
    # gradient scored directly at the momentum point's predictors
    X, y, model, B, drop = fista_lo_block("squared")
    real_point, errors = solver._momentum_point, []

    def checked(loss, X, y, Z, at, g_new, g_old, w, out=None):
        f, g = real_point(loss, X, y, Z, at, g_new, g_old, w, out)
        direct = solver._block_loss(loss, y, Z, at)[1] @ X
        scale = np.max(np.abs(direct), axis=1, initial=0.0)
        errors.append(np.max(np.abs(g - direct), axis=1, initial=0.0) / scale)
        return f, g

    monkeypatch.setattr(solver, "_momentum_point", checked)
    opts = SolverOpts(tol=1e-300, max_iter=60)
    results = solver._fista_block(X, y, model, B, drop, opts)
    assert [res.iterations for res in results] == [60] * 4
    assert len(errors) == 60
    assert max(np.max(e, initial=0.0) for e in errors) <= 1e-12


@pytest.mark.parametrize("loss, products", [("squared", 1), ("logistic", 2)])
def test_fista_makes_one_gradient_product_per_iteration_for_quadratic_loss(
    loss, products
):
    # gradient products (rows @ X, not the predictors' rows @ X^T) made by
    # 20 more iterations of the block: the candidates' gradients alone for
    # squared loss, the momentum points' too otherwise
    X, y, model, B, drop = fista_lo_block(loss)
    counted = []

    class CountedDesign(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            if ufunc is np.matmul and inputs[1].shape == X.shape:
                counted.append(1)
            inputs = [np.asarray(a) for a in inputs]
            return getattr(ufunc, method)(*inputs, **kwargs)

    def gradient_products(max_iter):
        counted.clear()
        opts = SolverOpts(tol=1e-300, max_iter=max_iter)
        solver._fista_block(X.view(CountedDesign), y, model, B, drop, opts)
        return len(counted)

    assert gradient_products(40) - gradient_products(20) == 20 * products


def test_fista_l1_kkt_conditions():
    rng = np.random.default_rng(10)
    n, p = 30, 50
    X = rng.standard_normal((n, p)) / np.sqrt(n)
    y = rng.standard_normal(n)
    data = Dataset(X, y)
    model = ModelSpec(LossSpec("squared"), RegSpec("l1"), lam=0.02)
    res = fit(data, model, SolverOpts(tol=1e-9, max_iter=20000))
    assert res.converged
    grad = X.T @ (X @ res.beta_hat - y)
    active = res.beta_hat != 0.0
    assert np.allclose(
        grad[active], -model.lam * np.sign(res.beta_hat[active]), atol=1e-6
    )
    assert np.all(np.abs(grad[~active]) <= model.lam + 1e-6)


def test_nonconvergence_is_reported():
    data = seeded_logistic_data(50, 40, seed=11)
    res = fit(data, logistic_ridge_model(0.1), SolverOpts(max_iter=1))
    assert not res.converged


def test_monotone_objective_on_prox_path():
    rng = np.random.default_rng(12)
    n, p = 25, 40
    X = rng.standard_normal((n, p))
    y = rng.standard_normal(n)
    data = Dataset(X, y)
    model = ModelSpec(LossSpec("squared"), RegSpec("elastic_net", mix=0.5), lam=0.5)
    res = fit(data, model, SolverOpts(max_iter=20000))
    assert res.converged
    assert res.objective <= objective(data, model, np.zeros(p)) + 1e-12


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(np.zeros((3, 2)), np.zeros(4))
    with pytest.raises(ValueError):
        Dataset(np.array([[np.inf, 0.0]]), np.zeros(1))
    with pytest.raises(IndexError):
        fit_leave_one_out(Dataset(np.eye(2), np.zeros(2)), RIDGE_SQ, 5)
    with pytest.raises(ValueError):
        ModelSpec(LossSpec("squared"), RegSpec("ridge"), lam=0.0)


def test_fit_checks_its_input_before_iterating(monkeypatch):
    calls = []
    monkeypatch.setattr(solver, "_loss_terms", lambda *args: calls.append(args))
    monkeypatch.setattr(solver, "_loss_value", lambda *args: calls.append(args))
    off_domain = Dataset(np.eye(2), np.array([0.0, 2.0]))
    with pytest.raises(ValueError, match="responses in"):
        fit(off_domain, logistic_ridge_model(1.0))
    with pytest.raises(ValueError, match="beta0"):
        fit(Dataset(np.eye(2), np.zeros(2)), RIDGE_SQ, beta0=[0.0, np.nan])
    assert calls == []


@pytest.mark.parametrize(
    "y, beta, message",
    [
        ([0.0, 2.0], [0.0, 0.0], "responses in"),
        ([0.0, 1.0], [0.0], r"beta has shape \(1,\)"),
        ([0.0, 1.0], [0.0, np.nan], "non-finite beta"),
    ],
    ids=["response_off_domain", "short_beta", "nan_beta"],
)
def test_objective_checks_its_input_as_fit_does(y, beta, message):
    data = Dataset(np.eye(2), np.array(y))
    with pytest.raises(ValueError, match=message):
        objective(data, logistic_ridge_model(1.0), beta)


def test_singular_newton_system_is_logged_once_per_fit(caplog):
    # separable, p > n, and a penalty whose curvature vanishes away from 0:
    # the Hessian is singular at almost every iterate, and one fit warns once
    rng = np.random.default_rng(0)
    X = rng.standard_normal((20, 40))
    data = Dataset(X, (X[:, 0] > 0).astype(float))
    reg = RegSpec("smoothed_elastic_net", mix=0.0, smooth_sharpness=100.0)
    model = ModelSpec(LossSpec("logistic"), reg, lam=1e-3)
    with caplog.at_level("WARNING", logger="loorisk.solver"):
        fit(data, model, SolverOpts(max_iter=50))
    assert [r.getMessage() for r in caplog.records] == [
        "singular Newton system, falling back to gradient step"
    ]


def test_a_newton_direction_that_does_not_descend_steps_along_minus_grad(monkeypatch):
    # a NaN Newton direction has no negative slope: the fit steps along -grad,
    # through the iterates a singular system at every point gives
    data = seeded_logistic_data(40, 5, 0)
    model, opts = logistic_ridge_model(0.5), SolverOpts(max_iter=200)

    def singular(*args):
        raise LinAlgError("singular")

    with monkeypatch.context() as m:
        m.setattr(solver, "_hessian_factor", singular)
        gradient_only = fit(data, model, opts)
    monkeypatch.setattr("scipy.linalg.cho_solve", lambda f, g, **kw: np.full_like(g, np.nan))
    res = fit(data, model, opts)
    assert gradient_only.converged and res.converged
    assert res.iterations == gradient_only.iterations > 1
    assert res.beta_hat.tobytes() == gradient_only.beta_hat.tobytes()


def test_newton_evaluates_each_point_it_tries_once(monkeypatch):
    # the start and each line-search candidate cost one kernel call; an
    # accepted candidate's terms are the next iterate's, not evaluated again
    data = seeded_logistic_data(40, 20, 0)
    tried = []
    real_terms, real_value = solver._loss_terms, solver._loss_value

    def terms(spec, y, z):
        tried.append(z.tobytes())
        return real_terms(spec, y, z)

    def value(spec, y, z):
        tried.append(z.tobytes())
        return real_value(spec, y, z)

    monkeypatch.setattr(solver, "_loss_terms", terms)
    monkeypatch.setattr(solver, "_loss_value", value)
    res = fit(data, logistic_ridge_model(0.1))
    assert res.converged and res.iterations == 8
    # eight full Newton steps: the start and eight points tried, once each
    assert len(tried) == len(set(tried)) == 1 + res.iterations


def test_armijo_test_rejects_non_descent_and_nan():
    # one test for the damped Newton line search and the batched refits:
    # a lower objective along a direction that does not descend, or a NaN
    # candidate, fails it; rounding-level slack passes a flat full step
    cand = np.array([0.5, 0.5, 0.5, np.nan, 1.0])
    slope = np.array([-1.0, 0.0, 1e-3, -1.0, -1e-20])
    ok = solver._armijo_ok(cand, 1.0, slope)
    assert ok.tolist() == [True, False, False, False, True]
    assert not solver._armijo_ok(0.99999, 1.0, -1.0, t=1.0)
    assert solver._armijo_ok(0.99999, 1.0, -1.0, t=0.05)


def test_weighted_gram_is_exactly_symmetric():
    rng = np.random.default_rng(41)
    X = rng.standard_normal((37, 23))
    w = rng.random(37) * (rng.random(37) < 0.8)
    shift = rng.random(23)
    A = solver._weighted_gram(X, w, shift)
    reference = X.T @ np.diag(w) @ X + np.diag(shift)
    assert np.array_equal(A, A.T)
    assert np.max(np.abs(A - reference)) <= 1e-13 * np.max(np.abs(reference))


def test_inverse_from_the_factor_matches_numpy():
    rng = np.random.default_rng(42)
    X = rng.standard_normal((40, 31)) / np.sqrt(40)
    w, shift = rng.random(40), np.full(31, 0.1)
    H = solver._weighted_gram(X, w, shift)
    H_inv = solver._factor_inverse(solver._hessian_factor(X, w, shift))
    reference = np.linalg.inv(H)
    assert np.array_equal(H_inv, H_inv.T)
    assert np.max(np.abs(H_inv - reference)) <= 1e-12 * np.max(np.abs(reference))


def engine_instance(family, n, p):
    loss, response = {
        "squared": (LossSpec("squared"), "linear"),
        "logistic": (LossSpec("logistic"), "logistic"),
    }[family]
    X = gen_design(n, p, CovSpec("scaled_identity", 1.0 / p), n + p)
    beta = gen_beta_star(p, p // 2, "laplace_unit", n + p)
    return Dataset(X, gen_response(X, beta, response, n + p, noise_var=1.0)), loss


def exact(rows, res):
    """The rows of a refit and its FitResult as exact values."""
    return (
        np.atleast_1d(rows).tolist(), res.beta_hat.tobytes(), res.objective,
        res.grad_inf_norm, res.iterations, res.converged,
    )


@pytest.mark.parametrize("case", ["stalled_lo", "two_folds", "singular_lo"])
def test_the_engine_runs_without_its_reference(monkeypatch, case):
    # fit_leave_one_out is the reference the engine is compared against, so
    # no route of the engine calls it: with it broken, refits that stall and
    # resume _fit_newton, two large folds refit one at a time, and LO on a
    # singular full-data Hessian all converge, the last two bit for bit as
    # the reference
    family, n, p, reg = {
        "stalled_lo": (
            "squared", 150, 40,
            RegSpec("smoothed_elastic_net", mix=0.5, smooth_sharpness=10.0),
        ),
        "two_folds": ("logistic", 140, 30, RegSpec("ridge")),
        "singular_lo": ("logistic", 140, 30, RegSpec("ridge")),
    }[case]
    data, loss = engine_instance(family, n, p)
    model = ModelSpec(loss, reg, lam=1.0)
    warm = fit(data, model).beta_hat
    groups = range(n)
    if case == "two_folds":
        labels = fold_assignments(n, 2, seed=5)
        groups = [np.flatnonzero(labels == fold) for fold in range(2)]

    def broken(*args, **kwargs):
        raise AssertionError("the engine called fit_leave_one_out")

    def singular(factor):
        raise LinAlgError("singular")

    hand_overs, real_newton = [], solver._fit_newton

    def counted_newton(*args, **kwargs):
        hand_overs.append(1)
        return real_newton(*args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(solver, "fit_leave_one_out", broken)
        m.setattr(solver, "_fit_newton", counted_newton)
        if case == "singular_lo":
            m.setattr(solver, "_factor_inverse", singular)
        results = [
            exact(rows, res)
            for rows, res in fit_leave_groups_out(data, model, groups, warm)
        ]
    assert len(results) == len(groups)
    assert all(converged for *_, converged in results)
    if case == "stalled_lo":
        assert hand_overs
    else:
        assert results == [
            exact(rows, fit_leave_one_out(data, model, rows, warm=warm))
            for rows in groups
        ]
