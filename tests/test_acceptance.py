"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  The Monte-Carlo criteria
reuse module-scoped runs; the whole module completes in roughly half an
hour on one core, dominated by the logistic slope study.
"""

import time

import numpy as np
import pytest

from loorisk.bounds import (
    audit_assumptions,
    check_perturb_lemma,
    compute_Cv_logistic,
    pick_audit_indices,
)
from loorisk.cli import load_config, main
from loorisk.datagen import CovSpec, SimConfig, gen_replicate
from loorisk.experiments import run_figure1, run_table1, run_table2
from loorisk.losses import FAMILIES, LossSpec, loss_eval
from loorisk.oracles import (
    TrueModel,
    err_out_linear,
    err_out_logistic,
    err_out_monte_carlo,
)
from loorisk.regularizers import RegSpec, reg_eval, reg_value
from loorisk.risk import alo, lo_exact
from loorisk.solver import Dataset, ModelSpec, fit, fit_leave_one_out

TABLE2_MODEL = ModelSpec(LossSpec("logistic"), RegSpec("ridge"), lam=0.1)
RIDGE_SQ = ModelSpec(LossSpec("squared"), RegSpec("ridge"), lam=1.0)


def report(criterion, ok, detail, elapsed):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {criterion}: {status} - {detail} [{elapsed:.1f}s]")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def table2_full_n100():
    config = SimConfig(
        ns=(100,), p_ratio=1.0, k_ratio=0.1, sigma="identity/n",
        beta_dist="laplace_unit", family="logistic", reps=100, seed=7,
    )
    start = time.perf_counter()
    result = run_table2(config, TABLE2_MODEL)
    return result, time.perf_counter() - start


@pytest.fixture(scope="module")
def table2_slope_run():
    config = SimConfig(
        ns=(100, 300, 500), p_ratio=1.0, k_ratio=0.1, sigma="identity/n",
        beta_dist="laplace_unit", family="logistic", reps=50, seed=7,
    )
    start = time.perf_counter()
    result = run_table2(config, TABLE2_MODEL)
    return result, time.perf_counter() - start


def test_criterion_1_quadratic_exactness():
    start = time.perf_counter()
    worst = 0.0
    count = 0
    for shape in ((30, 10), (10, 30)):
        for seed in range(25):
            rng = np.random.default_rng(1000 + seed + 31 * shape[0])
            data = Dataset(
                rng.standard_normal(shape), rng.standard_normal(shape[0])
            )
            full = fit(data, RIDGE_SQ)
            lo = lo_exact(data, RIDGE_SQ, full_fit=full)
            approx = alo(data, RIDGE_SQ, full)
            worst = max(
                worst, float(np.max(np.abs(lo.per_sample - approx.per_sample)))
            )
            count += 1
    elapsed = time.perf_counter() - start
    report(
        1,
        worst <= 1e-8 and elapsed < 10.0,
        f"max |ALO_i - LO_i| = {worst:.2e} over {count} ridge instances",
        elapsed,
    )


def test_criterion_2_table2_reproduction(table2_full_n100):
    result, elapsed = table2_full_n100
    mse = result.rows[0]["mse"]
    lo_lim, hi_lim = 0.0136 - 4 * 0.0019, 0.0136 + 4 * 0.0019
    report(
        2,
        lo_lim <= mse <= hi_lim and elapsed < 900.0,
        f"n=p=100 logistic-ridge MSE = {mse:.4f}, window [{lo_lim:.4f}, {hi_lim:.4f}]",
        elapsed,
    )


def test_criterion_3_table1_desk_scale():
    sim, model, opts = load_config(preset="table1_desk")
    start = time.perf_counter()
    result = run_table1(sim, model, opts)
    elapsed = time.perf_counter() - start
    mse40 = result.rows[0]["mse"]
    slope = result.slope_fit["slope"]
    ok = (
        abs(mse40 - 0.0156) <= 4 * 0.0021
        and -1.4 <= slope <= -0.6
        and elapsed < 1800.0
    )
    report(
        3,
        ok,
        f"MSE(n=40) = {mse40:.4f} (target 0.0156 +- 0.0084), slope = {slope:.3f}",
        elapsed,
    )


def test_criterion_4_logistic_slope_law(table2_slope_run):
    result, elapsed = table2_slope_run
    slope = result.slope_fit["slope"]
    report(
        4,
        -1.3 <= slope <= -0.7 and elapsed < 1800.0,
        f"log MSE ~ log n slope = {slope:.3f} over n = (100, 300, 500)",
        elapsed,
    )


def test_mse_times_n_stays_bounded(table2_slope_run):
    # the 1/n law implies n * MSE is flat across the sweep
    rows = table2_slope_run[0].rows
    scaled = [row["n"] * row["mse"] for row in rows]
    assert max(scaled) / min(scaled) <= 3.0


def test_criterion_5_bound_dominance(table2_full_n100, table2_slope_run):
    start = time.perf_counter()
    rows = table2_full_n100[0].rows + table2_slope_run[0].rows
    checked = []
    for row in rows:
        bound = compute_Cv_logistic(1.0, 1.0, row["lam"]) / row["n"]
        assert bound == pytest.approx(row["bound_over_n"], rel=1e-12)
        checked.append(row["mse"] <= bound / 10.0)
    margin = max(r["mse"] / r["bound_over_n"] for r in rows)
    report(
        5,
        all(checked),
        f"all {len(rows)} logistic rows satisfy MSE <= bound/10 "
        f"(worst MSE/bound = {margin:.2e})",
        time.perf_counter() - start,
    )


def test_criterion_6_kfold_bias_ordering():
    sim, model, opts = load_config(preset="figure1_desk")
    start = time.perf_counter()
    result = run_figure1(sim, model, opts)
    elapsed = time.perf_counter() - start
    by_name = {r["estimator"]: r for r in result.rows}
    means = {k: by_name[k]["mse"] for k in by_name}
    ses = {k: by_name[k]["mse_se"] for k in by_name}

    def ordered(a, b):
        return means[a] - means[b] >= -np.hypot(ses[a], ses[b])

    ok_order = (
        ordered("kfold3", "kfold5")
        and ordered("kfold5", "kfold7")
        and ordered("kfold7", "lo_exact")
    )
    lo_vs_oracle = abs(means["lo_exact"] - means["oracle"])
    ok_oracle = lo_vs_oracle <= 2.0 * np.hypot(ses["lo_exact"], ses["oracle"])
    detail = (
        "means K3/K5/K7/LO/oracle = "
        + "/".join(
            f"{means[k]:.3f}"
            for k in ("kfold3", "kfold5", "kfold7", "lo_exact", "oracle")
        )
    )
    report(6, ok_order and ok_oracle and elapsed < 600.0, detail, elapsed)


def test_criterion_7_derivative_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(77)
    worst_d1 = worst_d2 = 0.0

    def fd_check(evaluate, points):
        nonlocal worst_d1, worst_d2
        h = 1e-6
        _, d1, d2 = evaluate(points)
        vp, d1p, _ = evaluate(points + h)
        vm, d1m, _ = evaluate(points - h)
        fd1 = (vp - vm) / (2 * h)
        fd2 = (d1p - d1m) / (2 * h)
        e1 = float(np.max(np.abs(fd1 - d1) / np.maximum(1.0, np.abs(d1))))
        e2 = float(np.max(np.abs(fd2 - d2) / np.maximum(1.0, np.abs(d2))))
        worst_d1 = max(worst_d1, e1)
        worst_d2 = max(worst_d2, e2)
        assert e1 <= 1e-5 and e2 <= 1e-4

    params = {
        "pseudo_huber": {"huber_scale": 1.7},
        "smoothed_abs": {"smooth_scale": 4.0},
        "negative_binomial": {"shape": 0.7},
    }
    for family in FAMILIES:
        spec = LossSpec(family, **params.get(family, {}))
        z = rng.uniform(-6, 6, 1000)
        if family == "logistic":
            y = rng.integers(0, 2, 1000).astype(float)
        elif family in ("poisson_softrect", "negative_binomial"):
            y = rng.poisson(2.0, 1000).astype(float)
        else:
            y = rng.uniform(-6, 6, 1000)
        fd_check(lambda zz, s=spec, yy=y: loss_eval(s, yy, zz), z)

    for reg in (
        RegSpec("ridge"),
        RegSpec("smoothed_elastic_net", mix=0.3, smooth_sharpness=5.0),
    ):
        # the penalty is separable: per-coordinate values come from
        # single-element calls, the coordinatewise gradient from a bulk shift
        beta = rng.uniform(-4, 4, 1000)
        h = 1e-6
        _, grad, hess = reg_eval(reg, beta)
        vp = np.array([reg_value(reg, np.array([b + h])) for b in beta])
        vm = np.array([reg_value(reg, np.array([b - h])) for b in beta])
        _, gp, _ = reg_eval(reg, beta + h)
        _, gm, _ = reg_eval(reg, beta - h)
        fd1 = (vp - vm) / (2 * h)
        fd2 = (gp - gm) / (2 * h)
        e1 = float(np.max(np.abs(fd1 - grad) / np.maximum(1.0, np.abs(grad))))
        e2 = float(np.max(np.abs(fd2 - hess) / np.maximum(1.0, np.abs(hess))))
        worst_d1 = max(worst_d1, e1)
        worst_d2 = max(worst_d2, e2)
        assert e1 <= 1e-5 and e2 <= 1e-4

    elapsed = time.perf_counter() - start
    report(
        7,
        elapsed < 5.0,
        f"6 losses + 2 regularizers, 1000 points each; worst rel err "
        f"d1 = {worst_d1:.1e}, d2 = {worst_d2:.1e}",
        elapsed,
    )


def test_criterion_8_oracle_cross_validation():
    start = time.perf_counter()
    p, m = 20, 10_000_000
    worst_sigma = 0.0
    for seed in range(20):
        rng = np.random.default_rng(9000 + seed)
        A = rng.standard_normal((p, p)) / p
        cov = CovSpec("matrix", matrix=A @ A.T + np.eye(p) / p)

        beta_star = rng.standard_normal(p)
        beta_hat = beta_star + 0.5 * rng.standard_normal(p)

        truth_log = TrueModel(beta_star, cov, family="logistic")
        quad = err_out_logistic(beta_hat, truth_log, quad_order=64)
        mc, se = err_out_monte_carlo(
            beta_hat, truth_log, TABLE2_MODEL, m, seed=seed
        )
        worst_sigma = max(worst_sigma, abs(mc - quad) / se)
        assert abs(mc - quad) <= 3.0 * se

        truth_lin = TrueModel(beta_star, cov, noise_var=0.8, family="linear")
        closed = err_out_linear(beta_hat, truth_lin)
        mc_lin, se_lin = err_out_monte_carlo(
            beta_hat, truth_lin, RIDGE_SQ, m, seed=seed
        )
        # phi is the half squared error; the closed form is the full square
        worst_sigma = max(worst_sigma, abs(2 * mc_lin - closed) / (2 * se_lin))
        assert abs(2.0 * mc_lin - closed) <= 3.0 * 2.0 * se_lin
    elapsed = time.perf_counter() - start
    report(
        8,
        elapsed < 300.0,
        f"20 logistic + 20 linear instances at m = 1e7; worst |gap| = "
        f"{worst_sigma:.2f} standard errors",
        elapsed,
    )


def test_criterion_9_assumption_audits():
    start = time.perf_counter()
    details = []
    all_hold = True

    def audited_instance(family, n, p, lam, seed):
        config = SimConfig(
            ns=(n,), p=p, k=max(1, p // 10), sigma="identity/n",
            noise_var=1.0, family=family, reps=1, seed=seed,
        )
        X, _, y, _ = gen_replicate(config, n, 0)
        loss = LossSpec("logistic" if family == "logistic" else "squared")
        model = ModelSpec(loss, RegSpec("ridge"), lam)
        data = Dataset(X, y)
        full = fit(data, model)
        assert full.converged
        loo = {}
        for i in pick_audit_indices(n, 25):
            res = fit_leave_one_out(data, model, i, warm=full.beta_hat)
            assert res.converged
            loo[i] = res
        return data, model, full, loo

    for family, n, p, lam, seed in (
        ("linear", 60, 40, 0.3, 1),
        ("linear", 40, 80, 1.0, 2),
        ("logistic", 80, 80, 0.1, 3),
        ("logistic", 50, 50, 0.1, 4),
    ):
        data, model, full, loo = audited_instance(family, n, p, lam, seed)
        audit = audit_assumptions(data, model, full, loo, t_grid_size=11)
        rows = check_perturb_lemma(data, model, full, loo, audit.nu_emp)
        holds = all(r["holds"] for r in rows)
        all_hold = all_hold and holds and audit.nu_emp >= lam - 1e-9
        if family == "logistic":
            all_hold = all_hold and audit.c0_emp <= 1.0
        details.append(
            f"{family}(n={n},p={p}): nu_emp={audit.nu_emp:.3f}>=lam={lam}, "
            f"c0_emp={audit.c0_emp:.3f}, perturb {sum(r['holds'] for r in rows)}"
            f"/{len(rows)}"
        )
    report(9, all_hold, "; ".join(details), time.perf_counter() - start)


def test_criterion_10_cli_determinism(tmp_path):
    start = time.perf_counter()
    config = tmp_path / "run.cfg"
    config.write_text(
        "[design]\nns = 60\np_ratio = 1\nk_ratio = 0.1\nsigma = identity/n\n"
        "family = logistic\n\n[model]\nloss = logistic\nreg = ridge\n"
        "lambda = 0.1\n\n[experiment]\nkind = table2\nreps = 8\nseed = 21\n"
    )
    out1, out2 = tmp_path / "a", tmp_path / "b"
    code1 = main(
        ["simulate", "table2", "--config", str(config), "--seed", "7",
         "--out", str(out1)]
    )
    code2 = main(
        ["simulate", "table2", "--config", str(config), "--seed", "7",
         "--out", str(out2)]
    )
    bytes1 = (out1 / "results.csv").read_bytes()
    bytes2 = (out2 / "results.csv").read_bytes()
    ok = code1 == 0 and code2 == 0 and bytes1 == bytes2
    report(
        10,
        ok,
        f"repeated CLI run produced byte-identical results.csv "
        f"({len(bytes1)} bytes)",
        time.perf_counter() - start,
    )
