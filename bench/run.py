"""Seeded benchmark of the LO / ALO / K-fold studies.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs one workload closed-loop (one item after another, single benchmark
process) for about --seconds seconds, checks every item against the
reference values in references.json, and prints as its last line one JSON
object with the keys correct, attempted, failed and metrics.  With
--trace 0 the metrics are the end-to-end ones; with --trace 1 each item runs
twice, once plain and once with a perf_counter span around every library
call, and the metrics are the per-layer ones.  The lines before it record
the machine facts, the run conditions and the run notes.  See README.md for the workloads and
metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("logistic_ridge_lo", "enet_lo_kfold", "oracle_mc", "table2_pool")
# Applied before numpy loads, and inherited by the set-up processes and the
# table2 pool workers.  On a 2-core box the library default (one OpenBLAS
# thread per core in every process) made a table2_pool item take 50-107 s
# against 3.8-4.4 s with one thread per worker, and made the serial
# workloads slower and less steady.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1"}
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "LOORISK_THREADS",
)
COLD_STARTS = 5
# replicate_s_tail needs ten samples beyond a percentile at or above the median
TAIL_MIN_SAMPLES = 21
LAYERS = (
    "datagen.gen_replicate",
    "solver.fit",
    "risk.lo_exact",
    "risk.alo",
    "risk.kfold_cv",
    "oracles.err_out_logistic",
    "oracles.err_out_linear",
    "oracles.err_out_monte_carlo",
    "cli.load_config",
    "experiments.run_table2",
    "reporting.write_results",
)
# exact counts, summed over every entry of the workload's fixed pool
COUNTS = {
    "solver.fit.iters": "count",
    "risk.lo_exact.refits": "count",
    "risk.kfold_cv.refits": "count",
    "risk.alo.n_flagged": "count",
    "oracles.err_out_monte_carlo.bytes_computed": "bytes",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--out", type=Path, help="also write the full record here")
    return parser.parse_args(argv)


class Tracer:
    """Spans of one item: (layer, seconds) for each library call."""

    def __init__(self):
        self.spans = []

    def call(self, name, fn, *args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append((name, time.perf_counter() - start))


def plain_call(name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


def run_item(workload, key, references, traced):
    """Run and check one item; the check is outside the timed region."""
    from loorisk import SolverError

    tracer = Tracer() if traced else None
    call = tracer.call if traced else plain_call
    record = {"key": key, "traced": traced, "misses": []}
    start = time.perf_counter()
    try:
        outputs = workload.run(key, call)
    except SolverError as exc:
        record["wall_s"] = time.perf_counter() - start
        record["misses"] = [f"SolverError: {exc}"]
    else:
        record["wall_s"] = time.perf_counter() - start
        record["misses"] = workload.check(key, outputs, references)
        record["csv_identical"] = outputs.get("csv_identical")
    if traced:
        record["spans"] = tracer.spans
    return record


def run_loop(workload, seed, seconds, references, traced):
    """Closed loop over the seeded item stream until the time is spent.

    A new item (or, traced, a plain/traced pair of the same item) starts
    only if the mean cycle so far still fits before the deadline.
    """
    from workloads import item_keys

    records = []
    cycles = []
    start = time.perf_counter()
    deadline = start + seconds
    for index, key in enumerate(item_keys(workload, seed)):
        now = time.perf_counter()
        if cycles and now + statistics.fmean(cycles) > deadline:
            break
        if traced:
            # alternate which copy goes first, so drift cancels in the pairs
            order = (False, True) if index % 2 == 0 else (True, False)
            records.extend(run_item(workload, key, references, t) for t in order)
        else:
            records.append(run_item(workload, key, references, False))
        cycles.append(time.perf_counter() - now)
    return records, time.perf_counter() - start


def cold_start_seconds(workload_name):
    """Median set-up time over COLD_STARTS fresh processes."""
    times = []
    for _ in range(COLD_STARTS):
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "cold_start.py"), workload_name],
            capture_output=True,
            text=True,
            timeout=120,
            check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"cold start failed:\n{proc.stderr}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times), times


def tail(values):
    """The highest percentile with at least ten samples beyond it.

    Returns {"value", "percentile", "samples_beyond"}, or None when there are
    fewer than TAIL_MIN_SAMPLES samples: the percentile would then lie below
    the median and would not be a tail.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < TAIL_MIN_SAMPLES:
        return None
    index = n - 11
    return {
        "value": ordered[index],
        "percentile": 100.0 * (index + 1) / n,
        "samples_beyond": 10,
    }


def peak_rss_mb(pool_workers):
    """Peak resident set of this process, plus the pool's if it has one.

    The pool is counted as pool_workers processes, each at the largest peak
    among the children waited for so far.  Read it before the set-up
    processes run, so that only the pool workers (and getconf) are children.
    """
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if pool_workers:
        kb += pool_workers * resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0


def blas_facts():
    """Name, version, configuration and live thread count of each BLAS."""
    import ctypes
    import glob

    import numpy
    import scipy

    facts = {}
    for module in (numpy, scipy):
        info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        entry = {
            "name": info.get("name"),
            "version": info.get("version"),
            "config": info.get("openblas configuration"),
            "threads": None,
        }
        libs = os.path.join(
            os.path.dirname(os.path.dirname(module.__file__)),
            f"{module.__name__}.libs",
        )
        for path in glob.glob(os.path.join(libs, "*openblas*")):
            lib = ctypes.CDLL(path)
            for symbol in (
                "scipy_openblas_get_num_threads64_",
                "scipy_openblas_get_num_threads",
                "openblas_get_num_threads",
            ):
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.argtypes = []
                    fn.restype = ctypes.c_int
                    entry["threads"] = fn()
                    break
        facts[module.__name__] = entry
    return facts


def l3_cache_bytes():
    try:
        proc = subprocess.run(
            ["getconf", "LEVEL3_CACHE_SIZE"],
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
        return int(proc.stdout.strip())
    except (OSError, ValueError, subprocess.SubprocessError):
        return None


def machine_facts(workload):
    import numpy
    import scipy
    from loorisk import oracles

    facts = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_facts(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "l3_cache_bytes": l3_cache_bytes(),
    }
    conditions = {
        "workload": workload.name,
        "loop": "closed, single benchmark process",
        "blas_env": BLAS_ENV,
        "pool_workers": workload.pool_workers,
    }
    if hasattr(workload, "draws"):
        conditions["mc_draws_per_item"] = workload.draws
        conditions["mc_chunk_rows"] = getattr(oracles, "_MC_CHUNK", None)
        conditions["mc_chunk_bytes"] = (
            min(workload.draws, conditions["mc_chunk_rows"] or workload.draws)
            * workload.base.n
            * 8
        )
    return facts, conditions


def metric(value, unit):
    return {"value": float(value), "unit": unit}


def end_to_end_metrics(workload, records, rss_mb, setup_s):
    per_replicate = [r["wall_s"] / workload.replicates_per_item for r in records]
    total_wall = sum(r["wall_s"] for r in records)
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "replicates_per_s": metric(
            len(records) * workload.replicates_per_item / total_wall, "1/s"
        ),
        "replicate_s_p50": metric(statistics.median(per_replicate), "s"),
        "peak_rss_mb": metric(rss_mb, "MB"),
    }
    notes = {"samples": len(per_replicate), "replicate_s_tail": tail(per_replicate)}
    return metrics, notes


def per_layer_metrics(records, pool_counts):
    traced = [r for r in records if r["traced"]]
    walls = [r["wall_s"] for r in traced]
    total_wall = sum(walls)
    layer_time = {layer: [] for layer in LAYERS}
    uncovered = []
    for r in traced:
        per_layer = dict.fromkeys(LAYERS, 0.0)
        for name, seconds in r["spans"]:
            per_layer[name] += seconds
        for layer in LAYERS:
            layer_time[layer].append(per_layer[layer])
        uncovered.append(r["wall_s"] - sum(s for _, s in r["spans"]))

    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.s"] = metric(statistics.median(layer_time[layer]), "s")
        metrics[f"{layer}.share"] = metric(
            100.0 * sum(layer_time[layer]) / total_wall, "%"
        )

    def total(name):
        return sum(counts.get(name, 0) for counts in pool_counts.values())

    for name, unit in COUNTS.items():
        metrics[name] = metric(total(name), unit)
    # every item of a workload does the same number of refits and draws
    refits = total("risk.lo_exact.refits") / len(pool_counts)
    lo_s = statistics.median(layer_time["risk.lo_exact"])
    metrics["risk.lo_exact.per_refit_ms"] = metric(
        1000.0 * lo_s / refits if refits else 0.0, "ms"
    )
    draws = total("oracles.err_out_monte_carlo.draws") / len(pool_counts)
    mc_s = statistics.median(layer_time["oracles.err_out_monte_carlo"])
    metrics["oracles.err_out_monte_carlo.draws_per_s"] = metric(
        draws / mc_s if mc_s > 0 else 0.0, "1/s"
    )
    identical = [r["csv_identical"] for r in traced if r.get("csv_identical") is not None]
    metrics["reporting.results_csv.identical_frac"] = metric(
        sum(identical) / len(identical) if identical else 0.0, "frac"
    )
    metrics["trace.uncovered_s"] = metric(statistics.median(uncovered), "s")
    # records come in plain/traced pairs of one item, in either order
    overhead = []
    for first, second in zip(records[0::2], records[1::2]):
        t, p = (first, second) if first["traced"] else (second, first)
        overhead.append(t["wall_s"] / p["wall_s"] - 1.0)
    metrics["trace.overhead_frac"] = metric(statistics.median(overhead), "frac")
    failed = sum(1 for r in records if r["misses"])
    metrics["failed_frac"] = metric(failed / len(records), "frac")
    return metrics


def main(argv=None):
    args = parse_args(argv)
    if not args.seconds > 0:
        sys.exit("--seconds must be positive")
    os.environ.update(BLAS_ENV)
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    references = json.loads((BENCH_DIR / "references.json").read_text())
    references = references[args.workload]
    facts, conditions = machine_facts(workload)
    print(json.dumps({"machine": facts, "conditions": conditions}), flush=True)

    workload.cold_fits()  # warm this process before timing
    if args.trace:
        pool_counts = workload.pool_counts()
    records, loop_s = run_loop(
        workload, args.seed, args.seconds, references, bool(args.trace)
    )
    if args.trace:
        metrics = per_layer_metrics(records, pool_counts)
        notes = {
            "items": len(records) // 2,
            "counts_per_pool_entry": {str(k): v for k, v in pool_counts.items()},
        }
    else:
        rss_mb = peak_rss_mb(workload.pool_workers)
        setup_s, setup_samples = cold_start_seconds(args.workload)
        metrics, notes = end_to_end_metrics(workload, records, rss_mb, setup_s)
        notes["setup_samples_s"] = setup_samples
    failed = [r for r in records if r["misses"]]
    notes["loop_s"] = loop_s
    notes["misses"] = [{"key": r["key"], "misses": r["misses"]} for r in failed]
    print(json.dumps({"notes": notes}), flush=True)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(
            json.dumps(
                {
                    "machine": facts,
                    "conditions": conditions,
                    "args": {
                        "workload": args.workload,
                        "seed": args.seed,
                        "seconds": args.seconds,
                        "trace": args.trace,
                    },
                    "notes": notes,
                    "metrics": metrics,
                    "items": records,
                },
                indent=1,
                default=str,
            )
            + "\n"
        )
    print(
        json.dumps(
            {
                "correct": not failed,
                "attempted": len(records),
                "failed": len(failed),
                "metrics": metrics,
            }
        )
    )


if __name__ == "__main__":
    main()
