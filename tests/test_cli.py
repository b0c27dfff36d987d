import json
import os
import shlex
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import loorisk
import loorisk.cli
from loorisk.cli import PRESETS, load_config, main
from loorisk.experiments import ExperimentResult
from loorisk.reporting import to_jsonable, write_results
from loorisk.datagen import SimConfig
from loorisk.losses import LossSpec
from loorisk.regularizers import RegSpec
from loorisk.risk import RiskReport
from loorisk.solver import ModelSpec, SolverOpts

TINY_TABLE2 = """
[design]
ns = 25
p_ratio = 1
k_ratio = 0.1
sigma = identity/n
family = logistic

[model]
loss = logistic
reg = ridge
lambda = 0.1

[experiment]
kind = table2
reps = 3
seed = 5
"""

TINY_LO = """
[design]
ns = 12
p = 6
k = 2
sigma = identity/n
noise_var = 1.0
family = linear

[model]
loss = squared
reg = ridge
lambda = 0.5

[experiment]
reps = 1
seed = 2
"""


@pytest.fixture
def table2_cfg(tmp_path):
    path = tmp_path / "table2.cfg"
    path.write_text(TINY_TABLE2)
    return path


@pytest.fixture
def lo_cfg(tmp_path):
    path = tmp_path / "lo.cfg"
    path.write_text(TINY_LO)
    return path


def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 2


def test_bounds_prints_constants(capsys):
    assert main(["bounds", "--rho", "1", "--delta", "1", "--lambda", "0.1"]) == 0
    out = capsys.readouterr().out
    assert "C_b = 1600" in out
    assert "C_v = 6511.518" in out


def test_bounds_writes_the_ridge_logistic_report(tmp_path):
    out = tmp_path / "bounds"
    argv = ["bounds", "--rho", "1", "--delta", "1", "--lambda", "0.1", "--n", "100"]
    assert main(argv + ["--out", str(out)]) == 0
    assert (out / "results.csv").read_text().splitlines() == [
        "quantity,value",
        "rho,1",
        "delta,1",
        "c0,2",
        "c1,2",
        "nu,0.10000000000000001",
        "C_b,1600",
        "C_v,6511.5183919001283",
        "bound_over_n,65.115183919001282",
    ]


def test_unknown_subcommand_exits_2():
    assert main(["no-such-command"]) == 2


def test_missing_config_exits_2(capsys):
    assert main(["lo"]) == 2
    assert "config" in capsys.readouterr().err


def test_malformed_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[design]\nns = forty\n[model]\nlambda = 0.1\n")
    assert main(["lo", "--config", str(bad)]) == 2
    assert "ns" in capsys.readouterr().err
    for key, value in (("k_folds", "3, x"), ("lambdas", "1, y")):
        bad.write_text(TINY_LO + f"{key} = {value}\n")
        assert main(["lo", "--config", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert key in err


def test_missing_required_key_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[design]\nns = 10\np = 5\nk = 1\n[model]\nloss = squared\n")
    assert main(["lo", "--config", str(bad)]) == 2
    assert "lambda" in capsys.readouterr().err


def test_simulate_is_byte_deterministic(table2_cfg, tmp_path):
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    assert main(["simulate", "table2", "--config", str(table2_cfg),
                 "--out", str(out1)]) == 0
    assert main(["simulate", "table2", "--config", str(table2_cfg),
                 "--out", str(out2)]) == 0
    assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()


def test_simulate_csv_schema(table2_cfg, tmp_path):
    out = tmp_path / "run"
    assert main(["simulate", "table2", "--config", str(table2_cfg),
                 "--out", str(out)]) == 0
    header = (out / "results.csv").read_text().splitlines()[0]
    assert header == "n,p,lambda,estimator,mse,mse_se,bound_over_n"


def test_lo_alo_cv_fit_subcommands(lo_cfg, tmp_path):
    for name in ("fit", "lo", "alo"):
        out = tmp_path / name
        assert main([name, "--config", str(lo_cfg), "--out", str(out)]) == 0
        assert (out / "results.csv").exists()
        assert (out / "report.json").exists()
        assert (out / "manifest.json").exists()
    assert main(["cv", "--config", str(lo_cfg), "--k", "3",
                 "--out", str(tmp_path / "cv")]) == 0


def test_audit_subcommand(lo_cfg, tmp_path):
    out = tmp_path / "audit"
    assert main(["audit", "--config", str(lo_cfg), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["audit"]["nu_emp"] >= 0.5 - 1e-9


@pytest.mark.parametrize("nu_emp", [0.0, -1e-15])
def test_audit_with_a_curvature_floor_that_is_not_positive_exits_1(
    lo_cfg, tmp_path, capsys, monkeypatch, nu_emp
):
    # a singular segment Hessian's smallest eigenvalue is 0 up to rounding, of
    # either sign; this used to end in a ValueError traceback
    audit = loorisk.cli.audit_assumptions
    monkeypatch.setattr(
        loorisk.cli,
        "audit_assumptions",
        lambda *args, **kw: replace(audit(*args, **kw), nu_emp=nu_emp),
    )
    out = tmp_path / "audit"
    assert main(["audit", "--config", str(lo_cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ") and err.count("\n") == 1
    assert f"nu_emp = {nu_emp}" in err
    assert not out.exists()


def test_report_json_round_trip(lo_cfg, tmp_path):
    from loorisk.datagen import gen_replicate
    from loorisk.risk import lo_exact
    from loorisk.solver import Dataset

    sim, model, opts = load_config(path=str(lo_cfg))
    X, _, y, _ = gen_replicate(sim, sim.ns[0], 0)
    report = lo_exact(Dataset(X, y), model, opts)
    paths = write_results(report, tmp_path / "rt")
    parsed = json.loads(paths[1].read_text())
    assert parsed == to_jsonable(report)


def test_manifest_digests_verify(lo_cfg, tmp_path):
    import hashlib

    out = tmp_path / "dig"
    assert main(["lo", "--config", str(lo_cfg), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    for entry in manifest["outputs"]:
        digest = hashlib.sha256((out / entry["path"]).read_bytes()).hexdigest()
        assert digest == entry["sha256"]
        assert (out / entry["path"]).stat().st_size == entry["bytes"]


@pytest.mark.parametrize("command", ["bounds", "fit"])
def test_out_naming_a_file_is_a_usage_error_before_the_run(
    lo_cfg, tmp_path, capsys, command
):
    afile = tmp_path / "afile"
    afile.write_text("")
    args = {
        "bounds": ["bounds", "--rho", "1", "--delta", "1", "--lambda", "0.1"],
        "fit": ["fit", "--config", str(lo_cfg)],
    }[command]
    assert main(args + ["--out", str(afile)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"usage error: --out {afile}:")
    # nothing ran: no summary was printed
    assert captured.out == ""


def test_a_failed_run_removes_the_out_levels_it_created(tmp_path):
    out = tmp_path / "x" / "a" / "b"
    args = ["fit", "--config", str(tmp_path / "missing.cfg"), "--out", str(out)]
    assert main(args) == 2
    assert list(tmp_path.iterdir()) == []


def test_a_failed_run_removes_a_level_created_on_the_way_through_dot_dot(tmp_path):
    # makedirs creates a on the way to a/../b; the level a/.. is the working
    # directory, whose failed removal must not end the clean-up
    out = tmp_path / "a" / ".." / "b"
    args = ["fit", "--config", str(tmp_path / "missing.cfg"), "--out", str(out)]
    assert main(args) == 2
    assert list(tmp_path.iterdir()) == []


def test_a_run_whose_fit_does_not_converge_exits_1(table2_cfg, capsys):
    table2_cfg.write_text(TINY_TABLE2 + "\n[solver]\nmax_iter = 1\n")
    assert main(["simulate", "table2", "--config", str(table2_cfg)]) == 1
    err = capsys.readouterr().err
    assert "numerical failure: full fit did not converge (n=25, rep=0)" in err


def test_a_failed_run_keeps_an_out_directory_that_existed(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    args = ["fit", "--config", str(tmp_path / "missing.cfg"), "--out", str(out)]
    assert main(args) == 2
    assert out.is_dir() and list(out.iterdir()) == []


def test_a_failed_run_keeps_a_directory_reached_through_a_missing_level(
    tmp_path, monkeypatch
):
    # x/../e names e only once x exists; the run must create neither x nor
    # anything under e
    monkeypatch.chdir(tmp_path)
    (tmp_path / "e").mkdir()
    args = ["fit", "--config", str(tmp_path / "missing.cfg"), "--out", "x/../e/y"]
    assert main(args) == 2
    assert (tmp_path / "e").is_dir() and list((tmp_path / "e").iterdir()) == []
    assert not (tmp_path / "x").exists()


def test_out_under_a_file_is_a_usage_error_before_the_run(lo_cfg, tmp_path, capsys):
    (tmp_path / "afile").write_text("")
    out = tmp_path / "afile" / "sub"
    assert main(["fit", "--config", str(lo_cfg), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"usage error: --out {out}:")
    assert captured.out == ""


@pytest.mark.skipif(
    os.name != "posix" or os.geteuid() == 0,
    reason="root writes to a read-only directory",
)
def test_out_under_a_read_only_directory_is_a_usage_error_before_the_run(
    lo_cfg, tmp_path, capsys
):
    locked = tmp_path / "locked"
    locked.mkdir(mode=0o500)
    out = locked / "run"
    try:
        assert main(["fit", "--config", str(lo_cfg), "--out", str(out)]) == 2
    finally:
        locked.chmod(0o700)
    captured = capsys.readouterr()
    assert captured.err.startswith(f"usage error: --out {out}:")
    assert captured.out == ""
    assert not out.exists()


def test_manifest_records_the_arguments_main_parsed(lo_cfg, tmp_path, monkeypatch):
    monkeypatch.setattr("sys.argv", ["loorisk", "--unrelated", "flag"])
    out = tmp_path / "a run"
    args = ["lo", "--config", str(lo_cfg), "--out", str(out)]
    assert main(args) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert shlex.split(manifest["command"]) == args


@pytest.mark.parametrize(
    "args, seed",
    [
        (["fit", "--preset", "table2_desk"], 7),
        (["lo", "--preset", "table2_desk", "--seed", "3"], 3),
        (["bounds", "--rho", "1", "--delta", "1", "--lambda", "0.1"], None),
    ],
    ids=["config_seed", "seed_override", "bounds"],
)
def test_manifest_records_the_seed_the_run_used(tmp_path, args, seed):
    out = tmp_path / "run"
    assert main(args + ["--out", str(out)]) == 0
    assert json.loads((out / "manifest.json").read_text())["seed"] == seed


def test_empty_experiment_writes_header_only(tmp_path):
    config = SimConfig(ns=(10,), p=5, k=1)
    empty = ExperimentResult("table2", [], None, config)
    paths = write_results(empty, tmp_path / "empty")
    lines = paths[0].read_text().splitlines()
    assert lines == ["n,p,lambda,estimator,mse,mse_se,bound_over_n"]


def test_write_results_refuses_an_object_that_is_not_a_result(tmp_path):
    with pytest.raises(TypeError, match="cannot serialize dict"):
        write_results({"estimate": 1.0}, tmp_path / "bad")
    assert not (tmp_path / "bad" / "results.csv").exists()


def test_csv_cells_keep_text_and_print_numbers_with_format_real(tmp_path):
    # one cell rule for every result type: an int prints as str prints it, a
    # missing value as an empty cell
    report = RiskReport(np.array([0.1, 2.0]), 1.05, "lo_exact")
    lines = write_results(report, tmp_path / "risk")[0].read_text().splitlines()
    assert lines == ["index,per_sample,h_diag", "0,0.10000000000000001,", "1,2,"]
    config = SimConfig(ns=(10,), p=5, k=1)
    row = dict(n=10, p=5, lam=0.5, estimator="lo_exact", mse=1.0)
    row.update(mse_se=None, bound_over_n=None)
    result = ExperimentResult("table2", [row], None, config)
    lines = write_results(result, tmp_path / "exp")[0].read_text().splitlines()
    assert lines[1] == "10,5,0.5,lo_exact,1,,"


def test_seventeen_digit_reals(table2_cfg, tmp_path):
    out = tmp_path / "digits"
    assert main(["simulate", "table2", "--config", str(table2_cfg),
                 "--out", str(out)]) == 0
    rows = (out / "results.csv").read_text().splitlines()[1:]
    mse_field = rows[0].split(",")[4]
    assert float(mse_field) == float(f"{float(mse_field):.17g}")


def test_all_presets_parse():
    for preset in PRESETS:
        sim, model, opts = load_config(preset=preset)
        assert sim.reps >= 1
        assert model.lam > 0


def test_presets_are_the_packaged_files():
    for preset in ("table1", "table2", "figure1"):
        assert {f"{preset}_desk", f"{preset}_full"} <= set(PRESETS)


def test_missing_keys_take_the_dataclass_defaults(tmp_path):
    path = tmp_path / "minimal.cfg"
    path.write_text("[design]\nns = 30, 20\np = 8\nk = 2\n[model]\nlambda = 0.3\n")
    sim, model, opts = load_config(path=str(path))
    assert sim == SimConfig(ns=(20, 30), p=8, k=2)
    assert model == ModelSpec(LossSpec("squared"), RegSpec("ridge"), 0.3)
    assert opts == SolverOpts()


def test_seed_override_changes_results(lo_cfg, tmp_path):
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert main(["lo", "--config", str(lo_cfg), "--out", str(out1)]) == 0
    assert main(["lo", "--config", str(lo_cfg), "--seed", "99",
                 "--out", str(out2)]) == 0
    assert (out1 / "results.csv").read_bytes() != (out2 / "results.csv").read_bytes()


def test_threads_env_fallback(table2_cfg, tmp_path, monkeypatch):
    monkeypatch.setenv("LOORISK_THREADS", "not-a-number")
    assert main(["simulate", "table2", "--config", str(table2_cfg)]) == 2
    monkeypatch.setenv("LOORISK_THREADS", "2")
    out = tmp_path / "env"
    assert main(["simulate", "table2", "--config", str(table2_cfg),
                 "--out", str(out)]) == 0


def test_results_do_not_depend_on_the_blas_threads(tmp_path):
    # a fresh process per run, whose OpenBLAS starts with the threads the
    # environment asks for; at n = p = 300 two threads moved the last digits
    config = tmp_path / "table2.cfg"
    text = TINY_TABLE2.replace("ns = 25", "ns = 300").replace("reps = 3", "reps = 2")
    config.write_text(text)
    src = str(Path(loorisk.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    csvs = []
    for threads in ("1", "2"):
        out = tmp_path / f"blas{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
        argv = ["simulate", "table2", "--config", str(config), "--out", str(out)]
        command = [sys.executable, "-m", "loorisk.cli", *argv]
        subprocess.run(command, env=env, check=True, capture_output=True, timeout=300)
        csvs.append((out / "results.csv").read_bytes())
    assert csvs[0] == csvs[1]


def run_fresh_python(code, **env):
    """Run code in a new interpreter on this checkout's loorisk: this test
    process has long imported scipy.linalg."""
    src = str(Path(loorisk.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path, **env)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


ELASTIC_NET_PATH = """
import sys
import loorisk
import loorisk.cli
from loorisk.bounds import _ridge_logistic_report
from loorisk.cli import load_config
from loorisk.datagen import gen_replicate
from loorisk.losses import LossSpec
from loorisk.oracles import TrueModel, err_out_linear
from loorisk.regularizers import RegSpec
from loorisk.risk import kfold_cv, lo_exact
from loorisk.solver import Dataset, ModelSpec, fit

sim, model, opts = load_config(preset="figure1_desk")
assert model.reg.family == "elastic_net"
X, beta_star, y, cov = gen_replicate(sim, sim.ns[0], 0)
data = Dataset(X, y)
full = fit(data, model, opts)
lo_exact(data, model, opts, full)
kfold_cv(data, model, 5, sim.seed, opts, full)
err_out_linear(full.beta_hat, TrueModel(beta_star, cov, sim.noise_var, sim.family))
_ridge_logistic_report(1, 1, 0.1, 100)
assert "scipy.linalg" not in sys.modules, "loaded without a Cholesky factor"

y01 = (y > 0).astype(float)
fit(Dataset(X, y01), ModelSpec(LossSpec("logistic"), RegSpec("ridge"), lam=0.1))
assert "scipy.linalg" in sys.modules, "a Newton fit factored without it"
"""


def test_scipy_linalg_loads_at_the_first_cholesky_factor():
    # the CLI, the l1 / elastic-net path, the oracle and the bound report
    # factor no matrix, so a process that runs only them never pays for
    # scipy.linalg; a ridge-logistic fit's Newton step loads it
    run_fresh_python(ELASTIC_NET_PATH)


BLAS_PINNED_BEFORE_SCIPY = """
import sys
import numpy as np
from loorisk.losses import LossSpec
from loorisk.regularizers import RegSpec
from loorisk.risk import alo
from loorisk.solver import Dataset, ModelSpec, _openblas, _pin_blas, fit

assert "scipy.linalg" not in sys.modules
_pin_blas({"numpy": 1, "scipy": 1})
rng = np.random.default_rng(0)
X = rng.standard_normal((60, 20))
data = Dataset(X, X @ rng.standard_normal(20) + rng.standard_normal(60))
model = ModelSpec(LossSpec("squared"), RegSpec("ridge"), lam=1.0)
alo(data, model, fit(data, model))
assert "scipy.linalg" in sys.modules
threads = {name: get() for name, get in _openblas("get").items()}
assert threads == {"numpy": 1, "scipy": 1}, threads
"""


def test_a_blas_pin_made_before_scipy_loads_holds_after():
    # _pin_blas sets the threads of scipy's bundled OpenBLAS before
    # scipy.linalg exists; the library it loads is the one scipy.linalg
    # then links to, not a second copy at the environment's two threads
    run_fresh_python(BLAS_PINNED_BEFORE_SCIPY, OPENBLAS_NUM_THREADS="2")


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_below_1_exit_2(table2_cfg, capsys, monkeypatch, threads):
    # refused before any replicate runs, from the flag or from the variable
    argv = ["simulate", "table2", "--config", str(table2_cfg)]
    assert main(argv + ["--threads", threads]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: --threads")
    monkeypatch.setenv("LOORISK_THREADS", threads)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: LOORISK_THREADS")


@pytest.mark.parametrize(
    "argv, old, new, message",
    [
        (["lo"], "ns = 12", "ns = 1", "ns = (1,)"),
        (["audit"], "ns = 12", "ns = 1", "ns = (1,)"),
        (["simulate", "table1"], "ns = 12", "ns = 1", "ns = (1,)"),
        (
            ["simulate", "figure1"],
            "seed = 2",
            "seed = 2\nlambdas = 0.5, -1",
            "lambdas = (0.5, -1.0)",
        ),
        (["simulate", "figure1"], "seed = 2", "seed = 2\nlambdas = nan", "(nan,)"),
    ],
    ids=["lo_n_1", "audit_n_1", "table1_n_1", "lambda_negative", "lambda_nan"],
)
def test_design_no_study_can_run_exits_2(tmp_path, capsys, argv, old, new, message):
    # each of these used to exit 1 with a traceback from the first replicate
    bad = tmp_path / "bad.cfg"
    bad.write_text((TINY_LO + "k_folds = 3\n").replace(old, new))
    assert main(argv + ["--config", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert message in err


def test_loss_that_cannot_score_the_family_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text(TINY_LO.replace("loss = squared", "loss = logistic"))
    assert main(["lo", "--config", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "family = linear" in err


def test_simulate_on_a_config_the_study_cannot_run_exits_2(lo_cfg, capsys):
    assert main(["simulate", "table2", "--config", str(lo_cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "table2 requires the logistic family" in err


def test_simulate_on_a_preset_of_another_study_exits_2(capsys):
    # table1 reads no k_folds; it used to run figure1's design without them
    assert main(["simulate", "table1", "--preset", "figure1_desk"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert "k_folds" in err


def test_simulate_on_a_loss_the_oracle_cannot_score_exits_2(table2_cfg, capsys):
    table2_cfg.write_text(TINY_TABLE2.replace("loss = logistic", "loss = squared"))
    assert main(["simulate", "table2", "--config", str(table2_cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "table2 requires the logistic loss" in err


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("sigma = identity/n", "sigma = bogus", "unknown sigma spec"),
        ("family = linear", "family = linear\nbeta_dist = bogus", "unknown beta_dist"),
        ("k = 2", "k_ratio = 2", "k exceeds p"),
        ("family = linear", "family = negative_binomial", "requires shape > 0"),
        ("ns = 12\np = 6\nk = 2", "ns = 40\np_ratio = 0.01\nk = 0", "p must be >= 1"),
        ("sigma = identity/n", "sigma = scale:x", "sigma = 'scale:x'"),
        ("sigma = identity/n", "sigma = scale:-1", "sigma = 'scale:-1'"),
        (
            "family = linear",
            "family = linear\nbeta_dist = constant:x",
            "beta_dist = 'constant:x'",
        ),
        ("lambda = 0.5", "lambda = inf", "[model]: lam must be positive and finite"),
        ("seed = 2", "seed = 2\nlambdas = 1.0, inf", "lambdas = (1.0, inf)"),
        ("noise_var = 1.0", "noise_var = nan", "requires 0 <= noise_var < inf"),
        ("sigma = identity/n", "sigma = scale:inf", "sigma = 'scale:inf'"),
        (
            "loss = squared",
            "loss = pseudo_huber\nhuber_scale = inf",
            "requires 0 < huber_scale < inf",
        ),
        (
            "reg = ridge",
            "reg = smoothed_elastic_net\nmix = 0.5\nsharpness = inf",
            "requires 0 < smooth_sharpness < inf",
        ),
        (
            "lambda = 0.5",
            "lambda = 0.5\n[solver]\ntol = inf",
            "[solver]: tol must be positive and finite",
        ),
        ("p = 6", "p_ratio = inf", "p_ratio = inf: not finite"),
        ("k = 2", "k_ratio = inf", "k_ratio = inf: not finite"),
    ],
    ids=[
        "sigma",
        "beta_dist",
        "k_above_p",
        "negative_binomial_without_shape",
        "p_below_1",
        "sigma_scale_not_a_number",
        "sigma_scale_not_positive",
        "beta_dist_constant_not_a_number",
        "lambda_inf",
        "lambdas_inf",
        "noise_var_nan",
        "sigma_scale_inf",
        "huber_scale_inf",
        "sharpness_inf",
        "tol_inf",
        "p_ratio_inf",
        "k_ratio_inf",
    ],
)
def test_unusable_design_value_exits_2(tmp_path, capsys, old, new, message):
    # each of these used to pass load_config and then fail with a traceback
    # or a numerical failure in the first replicate, or (lambdas) run
    bad = tmp_path / "bad.cfg"
    bad.write_text(TINY_LO.replace(old, new))
    assert main(["lo", "--config", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert message in err


def test_a_negative_noise_var_exits_2_for_every_family(table2_cfg, capsys):
    # only the linear family's responses read noise_var, and only they
    # checked it: lo on this logistic config printed an estimate, exit 0
    logistic = TINY_TABLE2.replace("family = logistic", "family = logistic\nnoise_var = -1")
    table2_cfg.write_text(logistic)
    assert main(["lo", "--config", str(table2_cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "requires 0 <= noise_var < inf" in err


@pytest.mark.parametrize(
    "extra, message",
    [
        ("rep = 100\n", "[experiment] unknown key 'rep'"),
        ("seeds = 5\n", "[experiment] unknown key 'seeds'"),
        ("[solvr]\ntol = 1e-12\n", "[solvr] unknown key 'tol'"),
        ("[solvr]\n", "unknown section [solvr]"),
    ],
    ids=["rep", "seeds", "solvr_tol", "empty_section"],
)
def test_unknown_config_key_exits_2(tmp_path, capsys, extra, message):
    bad = tmp_path / "bad.cfg"
    bad.write_text(TINY_LO + extra)
    assert main(["lo", "--config", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert message in err



@pytest.mark.parametrize(
    "argv, flag",
    [
        (["cv", "--k", "1"], "--k"),
        (["cv", "--k", "13"], "--k"),
        (["audit", "--t-grid", "1"], "--t-grid"),
        (["audit", "--sample-i", "-2"], "--sample-i"),
        (["audit", "--sample-i", "0"], "--sample-i"),
        (["lo", "--tol", "-1"], "--tol"),
        (["lo", "--tol", "0"], "--tol"),
        (["lo", "--tol", "inf"], "--tol"),
        (["fit", "--seed", "-3"], "--seed"),
        (["bounds", "--rho", "1", "--delta", "1", "--lambda", "-1"], "--lambda"),
        (["bounds", "--rho", "1", "--delta", "1", "--lambda", "1", "--n", "0"], "--n"),
        (["bounds", "--rho", "1", "--delta", "1", "--lambda", "1", "--n", "-5"], "--n"),
        (["bounds", "--rho", "inf", "--delta", "1", "--lambda", "1"], "rho = inf"),
        (["bounds", "--rho", "1", "--delta", "inf", "--lambda", "1"], "delta = inf"),
        (["bounds", "--rho", "1", "--delta", "1", "--lambda", "inf"], "lam = inf"),
        (
            ["bounds", "--rho", "1e200", "--delta", "1e200", "--lambda", "1e-200"],
            "C_b = inf",
        ),
    ],
    ids=[
        "k_1",
        "k_above_n",
        "t_grid_1",
        "sample_i_negative",
        "sample_i_0",
        "tol_negative",
        "tol_0",
        "tol_inf",
        "seed_negative",
        "lambda_negative",
        "n_0",
        "n_negative",
        "rho_inf",
        "delta_inf",
        "lambda_inf",
        "constants_overflow",
    ],
)
def test_flag_value_the_library_refuses_exits_2(lo_cfg, capsys, argv, flag):
    # each of these used to end in a traceback and exit 1, or (--sample-i 0)
    # to audit no row and exit 0
    if argv[0] != "bounds":
        argv = argv + ["--config", str(lo_cfg)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and err.count("\n") == 1
    assert flag in err
