import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from multiprocessing import get_context

import numpy as np
import pytest

from loorisk import experiments, risk, solver
from loorisk.cli import main
from loorisk.datagen import SimConfig, derive_seed
from loorisk.experiments import (
    fit_loglog_slope,
    mse_of_estimator,
    run_figure1,
    run_table1,
    run_table2,
)
from loorisk.losses import LossSpec
from loorisk.oracles import TrueModel, err_out_linear, err_out_logistic
from loorisk.regularizers import RegSpec
from loorisk.risk import kfold_cv, lo_exact
from loorisk.solver import ModelSpec, SolverError

TABLE2_MODEL = ModelSpec(LossSpec("logistic"), RegSpec("ridge"), lam=0.1)
TABLE1_MODEL = ModelSpec(LossSpec("squared"), RegSpec("elastic_net", mix=0.5), lam=5.0)


TINY_TABLE2_CFG = """
[design]
ns = 30
p_ratio = 1
k_ratio = 0.1
sigma = identity/n
family = logistic

[model]
loss = logistic
reg = ridge
lambda = 0.1

[experiment]
reps = 3
seed = 5
"""


def tiny_table2_config(**over):
    base = dict(
        ns=(30,), p_ratio=1.0, k_ratio=0.1, sigma="identity/n",
        family="logistic", reps=3, seed=5,
    )
    base.update(over)
    return SimConfig(**base)


def test_loglog_slope_exact_inverse_law():
    ns = [50, 100, 200, 400]
    out = fit_loglog_slope(ns, [3.0 / n for n in ns])
    assert out["slope"] == pytest.approx(-1.0, abs=1e-12)
    assert out["adj_r2"] == pytest.approx(1.0, abs=1e-12)
    assert out["slope_se"] == pytest.approx(0.0, abs=1e-10)


def test_loglog_slope_constant_series():
    out = fit_loglog_slope([50, 100, 200], [0.7, 0.7, 0.7])
    assert out["slope"] == pytest.approx(0.0, abs=1e-12)


def test_loglog_slope_on_benchmark_series():
    # a five-point MSE series decaying roughly like 1/n
    ns = [40, 80, 120, 160, 200]
    mses = [0.0156, 0.0064, 0.0039, 0.0038, 0.0028]
    # independent oracle: plain-float normal equations
    xs = [math.log(n) for n in ns]
    ys = [math.log(v) for v in mses]
    m = len(xs)
    sx, sy = sum(xs), sum(ys)
    sxx = sum(x * x for x in xs)
    sxy = sum(x * y for x, y in zip(xs, ys))
    hand_slope = (m * sxy - sx * sy) / (m * sxx - sx * sx)
    assert hand_slope == pytest.approx(-1.0433227259176356, rel=1e-12)

    out = fit_loglog_slope(ns, mses)
    assert out["slope"] == pytest.approx(hand_slope, rel=1e-12)
    assert abs(out["slope"] - (-1.03)) <= 0.15


def test_loglog_slope_validation():
    with pytest.raises(ValueError):
        fit_loglog_slope([10, 20], [1.0, 0.5])
    with pytest.raises(ValueError):
        fit_loglog_slope([10, 20, 30], [1.0, -0.5, 0.2])


def test_mse_of_estimator_examples():
    assert mse_of_estimator([1.0, 2.0], [1.0, 2.0]) == (0.0, 0.0)
    assert mse_of_estimator([1.0, 1.0], [0.0, 2.0]) == (1.0, 0.0)
    # a single replicate has no standard error
    assert mse_of_estimator([1.0], [3.0]) == (4.0, None)
    with pytest.raises(ValueError):
        mse_of_estimator([1.0], [1.0, 2.0])


def test_mse_of_estimator_against_plain_python():
    rng = np.random.default_rng(0)
    errs = rng.uniform(0, 2, 37).tolist()
    ests = rng.uniform(0, 2, 37).tolist()
    sq = [(e - o) ** 2 for e, o in zip(ests, errs)]
    mean = sum(sq) / len(sq)
    var = sum((s - mean) ** 2 for s in sq) / (len(sq) - 1)
    se = math.sqrt(var / len(sq))
    mse, mse_se = mse_of_estimator(errs, ests)
    assert mse == pytest.approx(mean, rel=1e-12)
    assert mse_se == pytest.approx(se, rel=1e-12)


def test_table2_is_deterministic():
    config = tiny_table2_config()
    a = run_table2(config, TABLE2_MODEL)
    b = run_table2(config, TABLE2_MODEL)
    for ra, rb in zip(a.rows, b.rows):
        assert ra["mse"] == rb["mse"]
        assert ra["mse_se"] == rb["mse_se"]
        assert ra["bound_over_n"] == rb["bound_over_n"]


def test_table2_bound_column():
    config = tiny_table2_config()
    result = run_table2(config, TABLE2_MODEL)
    row = result.rows[0]
    # rho = p sigma_max(I/n) = 1 and delta = 1 at n = p
    from loorisk.bounds import compute_Cv_logistic

    expected = compute_Cv_logistic(1.0, 1.0, 0.1) / row["n"]
    assert row["bound_over_n"] == pytest.approx(expected, rel=1e-12)
    assert row["mse"] >= 0.0


def test_table2_rejects_wrong_family():
    config = tiny_table2_config(family="linear")
    with pytest.raises(ValueError):
        run_table2(config, TABLE2_MODEL)
    with pytest.raises(ValueError):
        run_table1(tiny_table2_config(), TABLE1_MODEL)


def test_table1_smoke_and_slope_fit():
    config = SimConfig(
        ns=(20, 30, 40), p_ratio=2.0, k_ratio=0.1, sigma="identity/n",
        noise_var=1.0, family="linear", reps=3, seed=9,
    )
    result = run_table1(config, TABLE1_MODEL)
    assert [r["n"] for r in result.rows] == [20, 30, 40]
    assert result.slope_fit is not None
    assert all(r["mse"] >= 0 for r in result.rows)
    assert all(r["bound_over_n"] is None for r in result.rows)


def test_figure1_structure_and_oracle_column():
    config = SimConfig(
        ns=(16,), p=30, k=3, sigma="identity", noise_var=2.0,
        beta_dist="constant:0.23570226039551587", family="linear",
        reps=4, seed=13, k_folds=(3, 5),
    )
    model = ModelSpec(LossSpec("squared"), RegSpec("elastic_net", mix=0.5), lam=1.0)
    result = run_figure1(config, model)
    names = [r["estimator"] for r in result.rows]
    assert names == ["kfold3", "kfold5", "lo_exact", "oracle"]
    for row in result.rows:
        assert row["mse"] > 0.0
        assert row["mse_se"] is not None
    # oracle mean must exceed the irreducible noise level
    oracle = next(r for r in result.rows if r["estimator"] == "oracle")
    assert oracle["mse"] > 2.0


def test_figure1_requires_folds():
    config = SimConfig(
        ns=(16,), p=30, k=3, sigma="identity", noise_var=2.0,
        family="linear", reps=2, seed=13,
    )
    model = ModelSpec(LossSpec("squared"), RegSpec("elastic_net", mix=0.5), lam=1.0)
    with pytest.raises(ValueError):
        run_figure1(config, model)


def tiny_figure1_config(**over):
    base = dict(
        ns=(16,), p=30, k=3, sigma="identity", noise_var=2.0,
        beta_dist="constant:0.23570226039551587", family="linear",
        reps=2, seed=13, k_folds=(3,),
    )
    base.update(over)
    return SimConfig(**base)


FIGURE1_MODEL = ModelSpec(LossSpec("squared"), RegSpec("elastic_net", mix=0.5), lam=1.0)


def test_parallel_replicates_match_serial():
    cases = [
        (run_table2, tiny_table2_config(reps=4), TABLE2_MODEL),
        (run_table2, tiny_table2_config(ns=(30, 40), reps=2), TABLE2_MODEL),
        (run_figure1, tiny_figure1_config(lambdas=(0.5, 1.0)), FIGURE1_MODEL),
    ]
    for runner, config, model in cases:
        serial = runner(config, model, threads=1)
        parallel = runner(config, model, threads=2)
        assert len(serial.rows) == len(parallel.rows)
        for rs, rp in zip(serial.rows, parallel.rows):
            rs.pop("wall_time")
            rp.pop("wall_time")
            assert rs == rp


@pytest.fixture
def pool_sizes(monkeypatch):
    """The worker counts of the pools the studies start; each pool runs its
    tasks in this process."""
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers, initializer=None, initargs=()):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", RecordingPool)
    return sizes


def test_pool_starts_no_more_workers_than_replicates(pool_sizes):
    # a fork pool starts all its workers at the first submit, so threads
    # beyond the replicate count would only start idle processes
    run_table2(tiny_table2_config(reps=2), TABLE2_MODEL, threads=10_000)
    assert pool_sizes == [2]
    run_table2(tiny_table2_config(reps=1), TABLE2_MODEL, threads=10_000)
    assert pool_sizes == [2]  # one replicate runs serially


def test_simulate_runs_a_worker_per_usable_cpu_by_default(
    pool_sizes, tmp_path, monkeypatch
):
    # without --threads or LOORISK_THREADS: min(usable CPUs, reps) workers,
    # the CPUs from the affinity set, else from os.cpu_count
    config = tmp_path / "table2.cfg"
    config.write_text(TINY_TABLE2_CFG)  # reps = 3
    argv = ["simulate", "table2", "--config", str(config)]
    monkeypatch.delenv("LOORISK_THREADS", raising=False)
    for cpus in (8, 2, 1):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)))
        assert main(argv) == 0
    assert pool_sizes == [3, 2]  # one CPU runs serially
    # the variable wins over the CPUs, and the flag over both
    monkeypatch.setenv("LOORISK_THREADS", "2")
    assert main(argv) == 0
    assert main(argv + ["--threads", "3"]) == 0
    assert pool_sizes == [3, 2, 2, 3]
    monkeypatch.delenv("LOORISK_THREADS")
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert main(argv) == 0
    assert pool_sizes == [3, 2, 2, 3, 2]


def blas_threads():
    return {name: get() for name, get in solver._openblas("get").items()}


def test_pool_workers_take_the_blas_threads_of_the_starting_process(monkeypatch):
    # serial and pooled runs compute alike: a spawned worker, which would
    # start with OpenBLAS's own thread counts, takes this process's
    counts, worker_counts = ({"numpy": 1, "scipy": 1}, {"numpy": 2, "scipy": 1}), []

    class ProbedPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, mp_context=get_context("spawn"), **kwargs)
            worker_counts.append(self.submit(blas_threads))

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", ProbedPool)
    before = blas_threads()
    assert set(before) == {"numpy", "scipy"}
    try:
        for threads in counts:
            solver._pin_blas(threads)
            run_table2(tiny_table2_config(reps=2), TABLE2_MODEL, threads=2)
    finally:
        solver._pin_blas(before)
    assert tuple(future.result(timeout=120) for future in worker_counts) == counts


def test_figure1_names_the_replicate_of_a_failing_refit(monkeypatch):
    config = SimConfig(
        ns=(16,), p=30, k=3, sigma="identity", noise_var=2.0,
        beta_dist="constant:0.23570226039551587", family="linear",
        reps=2, seed=13, k_folds=(3,),
    )
    model = ModelSpec(LossSpec("squared"), RegSpec("elastic_net", mix=0.5), lam=1.0)
    # a replicate makes 16 LO refits, then 3 fold refits: refit 37 is the
    # second fold of replicate 1
    real_engine = risk.fit_leave_groups_out
    calls = []

    def fake_engine(data, model, groups, warm, opts=None):
        for rows, res in real_engine(data, model, groups, warm, opts):
            calls.append(res)
            yield rows, replace(res, converged=False) if len(calls) == 37 else res

    monkeypatch.setattr(risk, "fit_leave_groups_out", fake_engine)
    with pytest.raises(SolverError, match=r"did not converge \(n=16, rep=1\)$"):
        run_figure1(config, model)
    assert len(calls) == 37


@pytest.mark.parametrize(
    "runner, config, model",
    [
        (
            run_table1,
            SimConfig(ns=(20,), p_ratio=2.0, k_ratio=0.1, family="linear"),
            replace(TABLE1_MODEL, loss=LossSpec("pseudo_huber", huber_scale=1.0)),
        ),
        (
            run_table2,
            tiny_table2_config(),
            replace(TABLE2_MODEL, loss=LossSpec("squared")),
        ),
        (
            run_figure1,
            tiny_figure1_config(),
            replace(FIGURE1_MODEL, phi=LossSpec("smoothed_abs", smooth_scale=4.0)),
        ),
    ],
    ids=["table1", "table2", "figure1"],
)
def test_studies_refuse_a_loss_their_oracle_cannot_score(runner, config, model):
    with pytest.raises(ValueError, match="loss as its error function"):
        runner(config, model)


@pytest.mark.parametrize("k_folds", [(3, 40), (1,)], ids=["K_above_n", "K_below_2"])
def test_figure1_refuses_folds_that_cannot_exist(monkeypatch, k_folds):
    # figure1's elastic-net fits and refits all run in the FISTA block
    calls = []
    real_block = solver._fista_block

    def counting_block(*args, **kwargs):
        calls.append(1)
        return real_block(*args, **kwargs)

    monkeypatch.setattr(solver, "_fista_block", counting_block)
    config = tiny_figure1_config(ns=(12,), k_folds=k_folds)
    with pytest.raises(ValueError, match="2 <= K <= n"):
        run_figure1(config, FIGURE1_MODEL)
    # refused before any refit runs
    assert calls == []


@pytest.mark.parametrize(
    "runner, config, model, key",
    [
        (
            run_table1,
            SimConfig(
                ns=(20,), p_ratio=2.0, k_ratio=0.1, family="linear", reps=2,
                k_folds=(3,),
            ),
            TABLE1_MODEL,
            "k_folds",
        ),
        (run_table2, tiny_table2_config(lambdas=(0.1, 0.2)), TABLE2_MODEL, "lambdas"),
        (run_figure1, tiny_figure1_config(ns=(12, 16)), FIGURE1_MODEL, "ns"),
    ],
    ids=["table1_k_folds", "table2_lambdas", "figure1_two_ns"],
)
def test_studies_refuse_what_they_would_ignore(monkeypatch, runner, config, model, key):
    # a table reads one lambda and no folds, figure1 one n: each used to run
    # without what it does not read
    calls = []
    real_gen = experiments.gen_replicate

    def counting_gen(*args):
        calls.append(1)
        return real_gen(*args)

    monkeypatch.setattr(experiments, "gen_replicate", counting_gen)
    with pytest.raises(ValueError, match=key):
        runner(config, model)
    # refused before any replicate runs
    assert calls == []


def test_table2_refuses_a_noise_var_its_oracle_cannot_take():
    # the logistic family draws no noise, so SimConfig lets any value through;
    # the oracle's TrueModel does not, and the study refuses it before a replicate
    with pytest.raises(ValueError, match="noise_var"):
        run_table2(tiny_table2_config(noise_var=-1.0), TABLE2_MODEL)


def replicate_values(config, model, n, rep):
    """Oracle, LO and K-fold values of one replicate from the public functions,
    in phi units."""
    data, beta_star, cov, full = experiments._fitted_replicate(config, model, n, rep)
    truth = TrueModel(beta_star, cov, config.noise_var, config.family)
    if config.family == "logistic":
        values = {"oracle": err_out_logistic(full.beta_hat, truth)}
    else:
        values = {"oracle": 0.5 * err_out_linear(full.beta_hat, truth)}
    values["lo_exact"] = lo_exact(data, model, full_fit=full).estimate
    for K in config.k_folds or ():
        seed = derive_seed(config.seed, n, rep, K)
        values[f"kfold{K}"] = kfold_cv(data, model, K, seed, full_fit=full).estimate
    return values


@pytest.mark.parametrize(
    "runner, config, model",
    [
        (
            run_table1,
            SimConfig(
                ns=(20, 30), p_ratio=2.0, k_ratio=0.1, sigma="identity/n",
                noise_var=1.0, family="linear", reps=3, seed=9,
            ),
            TABLE1_MODEL,
        ),
        (run_table2, tiny_table2_config(ns=(30, 40)), TABLE2_MODEL),
    ],
    ids=["table1", "table2"],
)
def test_table_rows_are_the_mse_of_lo_against_the_oracle(runner, config, model):
    rows = runner(config, model).rows
    assert [row["n"] for row in rows] == list(config.ns)
    for row in rows:
        reps = [replicate_values(config, model, row["n"], r) for r in range(3)]
        expected = mse_of_estimator(
            [v["oracle"] for v in reps], [v["lo_exact"] for v in reps]
        )
        assert (row["estimator"], row["mse"], row["mse_se"]) == ("lo_exact", *expected)


def test_figure1_rows_are_the_mean_of_the_doubled_estimates():
    config = tiny_figure1_config(reps=3, k_folds=(3, 4), lambdas=(0.5, 1.0))
    rows = run_figure1(config, FIGURE1_MODEL).rows
    names = ["kfold3", "kfold4", "lo_exact", "oracle"]
    assert [(row["lam"], row["estimator"]) for row in rows] == [
        (lam, name) for lam in (0.5, 1.0) for name in names
    ]
    for row in rows:
        model = replace(FIGURE1_MODEL, lam=row["lam"])
        values = np.array(
            [
                2.0 * replicate_values(config, model, 16, r)[row["estimator"]]
                for r in range(3)
            ]
        )
        se = float(np.std(values, ddof=1) / np.sqrt(3))
        assert (row["mse"], row["mse_se"]) == (float(np.mean(values)), se)
