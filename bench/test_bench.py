"""Tests of the benchmark itself (not collected by the library's suite).

    python3 -m pytest bench/test_bench.py

Most runs are one second long, so a run holds one item (one traced pair).
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(BENCH_DIR))
from run import tail  # noqa: E402


def run_bench(workload, trace, seed=3, seconds=1, cwd=None, script=BENCH_DIR / "run.py"):
    return subprocess.run(
        [
            sys.executable,
            str(script),
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--seconds",
            str(seconds),
            "--trace",
            str(trace),
        ],
        capture_output=True,
        text=True,
        timeout=170,
        check=False,
        cwd=cwd,
    )


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_short_run_emits_every_metric_with_its_unit(workload, trace):
    result = result_of(run_bench(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    for m in result["metrics"].values():
        assert isinstance(m["value"], float) and math.isfinite(m["value"])


def test_counts_cover_the_whole_pool_whatever_the_run_reaches():
    short = result_of(run_bench("enet_lo_kfold", 1))["metrics"]
    longer = result_of(run_bench("enet_lo_kfold", 1, seed=11, seconds=6))["metrics"]
    for m in SPEC["per_layer"]:
        if m["unit"] in ("count", "bytes"):
            assert short[m["name"]] == longer[m["name"]], m["name"]
    assert short["risk.lo_exact.refits"]["value"] == 8 * 50
    assert short["risk.kfold_cv.refits"]["value"] == 8 * (3 + 5 + 7)


def copy_checkout(tmp_path, with_src=True):
    """A copy of the benchmark (and the library source) to run or edit."""
    ignore = shutil.ignore_patterns("out", "baseline", "__pycache__")
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=ignore)
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    if with_src:
        shutil.copytree(BENCH_DIR.parent / "src", tmp_path / "src", ignore=ignore)
    return tmp_path / "bench" / "run.py"


def run_with_perturbed_references(tmp_path, workload, trace, edit):
    script = copy_checkout(tmp_path)
    path = script.parent / "references.json"
    references = json.loads(path.read_text())
    for entry in references[workload].values():
        edit(entry)
    path.write_text(json.dumps(references))
    return result_of(run_bench(workload, trace, cwd=tmp_path, script=script))


def test_perturbed_estimate_fails_the_gate(tmp_path):
    def shift_lo(entry):
        entry["lo"] += 1e-3

    result = run_with_perturbed_references(tmp_path, "logistic_ridge_lo", 1, shift_lo)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1
    assert result["metrics"]["failed_frac"]["value"] == 1.0


def test_perturbed_serial_csv_fails_the_gate(tmp_path):
    def shift_mse(entry):
        header, first, *rest = entry["results_csv"].split("\n")
        cells = first.split(",")
        cells[4] = repr(float(cells[4]) * (1 + 1e-3))
        entry["results_csv"] = "\n".join([header, ",".join(cells), *rest])

    result = run_with_perturbed_references(tmp_path, "table2_pool", 0, shift_mse)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1


def test_refuses_to_run_without_the_library_source(tmp_path):
    script = copy_checkout(tmp_path, with_src=False)
    proc = run_bench("oracle_mc", 0, cwd=tmp_path, script=script)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    values = [float(v) for v in range(30, 0, -1)]
    assert tail(values) == {
        "value": 20.0,
        "percentile": 100.0 * 20 / 30,
        "samples_beyond": 10,
    }
    assert tail([float(v) for v in range(1, 22)])["value"] == 11.0
    # with fewer samples the percentile would lie below the median: no tail
    assert tail([float(v) for v in range(1, 21)]) is None
