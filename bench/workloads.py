"""The four benchmark workloads and their correctness gate.

Each workload names a fixed pool of items (replicate indices, fitted
coefficient vectors or table2 config seeds).  The run seed only picks the
order in which a run visits the pool, so every item has a reference value
recorded in references.json and every run is checked against it.

Library calls go through ``call(name, fn, *args)``, which the runner binds
either to a plain call or to a span recorder.  No timing code lives inside
the library.
"""

from __future__ import annotations

import csv
import io
import os
import sys
from dataclasses import replace
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
if not (SRC / "loorisk" / "__init__.py").is_file():
    raise ImportError(f"library source not found under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from loorisk import (  # noqa: E402
    Dataset,
    SolverError,
    TrueModel,
    alo,
    derive_seed,
    err_out_linear,
    err_out_logistic,
    err_out_monte_carlo,
    fit,
    gen_replicate,
    kfold_cv,
    lo_exact,
    run_table2,
    write_results,
)
from loorisk.cli import load_config  # noqa: E402

OUT_DIR = BENCH_DIR / "out"

# An estimate passes when |value - reference| <= REL_TOL * max(1, |reference|).
# Refits that agree per row to 1e-8 (a solver-tolerance change) pass; the
# elastic-net ALO fix of ROADMAP item 3 (0.725 -> 0.564) would not.
REL_TOL = 1e-6
# Monte-Carlo mean against quadrature, in Monte-Carlo standard errors.
MC_SE_LIMIT = 5.0
# Draws per oracle_mc item: half of the library's 200k-row chunk, so one
# chunk of MC_DRAWS x 300 doubles (240 MB) per call.
MC_DRAWS = 100_000

TABLE2_CONFIG = """\
# table2 design at desk scale with reduced reps, written by the benchmark.
[design]
ns = 100, 300
p_ratio = 1
k_ratio = 0.1
sigma = identity/n
beta_dist = laplace_unit
family = logistic

[model]
loss = logistic
reg = ridge
lambda = 0.1

[solver]
tol = 1e-9
max_iter = 500

[experiment]
kind = table2
reps = {reps}
seed = {seed}
"""


def close(value, reference):
    return abs(value - reference) <= REL_TOL * max(1.0, abs(reference))


def check_values(outputs, reference):
    """Names of the reference values that an item's outputs miss."""
    return [
        name
        for name, ref in reference.items()
        if name not in outputs or not close(outputs[name], ref)
    ]


class Workload:
    """Shared defaults: an item is its pool entry, checked value by value."""

    replicates_per_item = 1
    pool_workers = None  # set when items run on a process pool

    def cold_fits(self):
        """The first full fit, which pays the import-time and BLAS warm-up."""
        X, _, y, _ = gen_replicate(self.sim, self.n, self.pool[0])
        fit(Dataset(X, y), self.model, self.opts)

    def pool_counts(self):
        """Exact counts per pool entry, independent of how far a run gets."""
        return {entry: {} for entry in self.pool}

    def key(self, item, rng):
        return item

    def check(self, key, outputs, references):
        return check_values(outputs, references[str(key)])


class LogisticRidgeLO(Workload):
    """table2_desk design at n = p = 300: fit, LO, ALO, quadrature oracle."""

    name = "logistic_ridge_lo"
    pool = tuple(range(12))
    n = 300

    def __init__(self):
        sim, self.model, self.opts = load_config(preset="table2_desk")
        self.sim = replace(sim, ns=(self.n,))

    def run(self, rep, call):
        X, beta_star, y, cov = call(
            "datagen.gen_replicate", gen_replicate, self.sim, self.n, rep
        )
        data = Dataset(X, y)
        full = call("solver.fit", fit, data, self.model, self.opts)
        if not full.converged:
            raise SolverError(f"full fit did not converge (rep={rep})")
        lo = call(
            "risk.lo_exact", lo_exact, data, self.model, self.opts, full_fit=full
        )
        approx = call("risk.alo", alo, data, self.model, full)
        truth = TrueModel(beta_star, cov, family="logistic")
        oracle = call(
            "oracles.err_out_logistic", err_out_logistic, full.beta_hat, truth
        )
        return {"lo": lo.estimate, "alo": approx.estimate, "oracle": oracle}

    def pool_counts(self):
        """Full-fit iterations and ALO flags; LO refits once per sample."""
        counts = {}
        for rep in self.pool:
            X, _, y, _ = gen_replicate(self.sim, self.n, rep)
            data = Dataset(X, y)
            full = fit(data, self.model, self.opts)
            counts[rep] = {
                "solver.fit.iters": full.iterations,
                "risk.lo_exact.refits": data.n,
                "risk.alo.n_flagged": alo(data, self.model, full).n_flagged,
            }
        return counts


class EnetLOKfold(Workload):
    """figure1_desk design (n = 50, p = 200): FISTA fit, LO, K-fold 3/5/7."""

    name = "enet_lo_kfold"
    pool = tuple(range(8))

    def __init__(self):
        self.sim, self.model, self.opts = load_config(preset="figure1_desk")
        self.n = self.sim.ns[0]

    def run(self, rep, call):
        X, beta_star, y, cov = call(
            "datagen.gen_replicate", gen_replicate, self.sim, self.n, rep
        )
        data = Dataset(X, y)
        full = call("solver.fit", fit, data, self.model, self.opts)
        if not full.converged:
            raise SolverError(f"full fit did not converge (rep={rep})")
        lo = call(
            "risk.lo_exact", lo_exact, data, self.model, self.opts, full_fit=full
        )
        outputs = {"lo": lo.estimate}
        for K in self.sim.k_folds:
            fold_seed = derive_seed(self.sim.seed, self.n, rep, K)
            cv = call(
                "risk.kfold_cv", kfold_cv, data, self.model, K, fold_seed, self.opts
            )
            outputs[f"kfold{K}"] = cv.estimate
        truth = TrueModel(
            beta_star, cov, noise_var=self.sim.noise_var, family="linear"
        )
        outputs["oracle"] = call(
            "oracles.err_out_linear", err_out_linear, full.beta_hat, truth
        )
        return outputs

    def pool_counts(self):
        """Full-fit iterations; LO refits once per sample, K-fold once per fold."""
        counts = {}
        for rep in self.pool:
            X, _, y, _ = gen_replicate(self.sim, self.n, rep)
            full = fit(Dataset(X, y), self.model, self.opts)
            counts[rep] = {
                "solver.fit.iters": full.iterations,
                "risk.lo_exact.refits": self.n,
                "risk.kfold_cv.refits": sum(self.sim.k_folds),
            }
        return counts


class OracleMC(Workload):
    """Monte-Carlo oracle on beta_hat fitted from logistic_ridge_lo replicates.

    An item is (replicate, Monte-Carlo seed); the seed is drawn from the run
    seed, so the check is statistical: the Monte-Carlo mean must lie within
    MC_SE_LIMIT standard errors of the quadrature oracle, and the quadrature
    oracle must match its recorded reference.
    """

    name = "oracle_mc"
    pool = (0, 1, 2, 3)
    draws = MC_DRAWS

    def __init__(self):
        self.base = LogisticRidgeLO()
        self.fitted = {}

    def cold_fits(self):
        for rep in self.pool:
            X, beta_star, y, cov = gen_replicate(self.base.sim, self.base.n, rep)
            full = fit(Dataset(X, y), self.base.model, self.base.opts)
            if not full.converged:
                raise SolverError(f"full fit did not converge (rep={rep})")
            truth = TrueModel(beta_star, cov, family="logistic")
            self.fitted[rep] = (full.beta_hat, truth)

    def key(self, rep, rng):
        return rep, int(rng.integers(0, 2**63))

    def run(self, key, call):
        rep, mc_seed = key
        beta_hat, truth = self.fitted[rep]
        mc_mean, mc_se = call(
            "oracles.err_out_monte_carlo",
            err_out_monte_carlo,
            beta_hat,
            truth,
            self.base.model,
            self.draws,
            mc_seed,
        )
        oracle = call("oracles.err_out_logistic", err_out_logistic, beta_hat, truth)
        return {"mc_mean": mc_mean, "mc_se": mc_se, "oracle": oracle}

    def pool_counts(self):
        """Draws per item and the bytes of the draws computed (m x p doubles)."""
        return {
            rep: {
                "oracles.err_out_monte_carlo.draws": self.draws,
                "oracles.err_out_monte_carlo.bytes_computed": self.draws
                * self.fitted[rep][0].size
                * 8,
            }
            for rep in self.pool
        }

    def check(self, key, outputs, references):
        rep, _ = key
        misses = check_values(
            {"oracle": outputs["oracle"]},
            {"oracle": references[str(rep)]["oracle"]},
        )
        gap = abs(outputs["mc_mean"] - outputs["oracle"])
        if not gap <= MC_SE_LIMIT * outputs["mc_se"]:
            misses.append("mc_mean")
        return misses


def same_cell(cell, reference):
    if cell == reference:
        return True
    try:
        return close(float(cell), float(reference))
    except ValueError:
        return False


class Table2Pool(Workload):
    """cli.load_config -> run_table2(threads=nproc) -> write_results."""

    name = "table2_pool"
    pool = (7, 8, 9, 10)
    reps = 4
    replicates_per_item = 2 * reps  # ns = 100, 300

    def __init__(self):
        self.pool_workers = len(os.sched_getaffinity(0))
        self.dir = OUT_DIR / self.name
        self.config_paths = {}
        for seed in self.pool:
            path = self.dir / f"table2_seed{seed}.cfg"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(TABLE2_CONFIG.format(reps=self.reps, seed=seed))
            self.config_paths[seed] = path

    def cold_fits(self):
        sim, model, opts = load_config(self.config_paths[self.pool[0]])
        X, _, y, _ = gen_replicate(sim, sim.ns[0], 0)
        fit(Dataset(X, y), model, opts)

    def run(self, seed, call, threads=None):
        sim, model, opts = call("cli.load_config", load_config, self.config_paths[seed])
        result = call(
            "experiments.run_table2",
            run_table2,
            sim,
            model,
            opts,
            threads=self.pool_workers if threads is None else threads,
        )
        out = self.dir / f"seed{seed}"
        call("reporting.write_results", write_results, result, out)
        return {"results_csv": (out / "results.csv").read_text()}

    def check(self, seed, outputs, references):
        """Field-by-field check against the serial results.csv.

        Also records in outputs whether the bytes are identical.
        """
        reference = references[str(seed)]["results_csv"]
        outputs["csv_identical"] = outputs["results_csv"] == reference
        rows = list(csv.reader(io.StringIO(outputs["results_csv"])))
        ref_rows = list(csv.reader(io.StringIO(reference)))
        matches = len(rows) == len(ref_rows) and all(
            len(row) == len(ref_row) and all(map(same_cell, row, ref_row))
            for row, ref_row in zip(rows, ref_rows)
        )
        return [] if matches else ["results_csv"]


WORKLOADS = {
    w.name: w for w in (LogisticRidgeLO, EnetLOKfold, OracleMC, Table2Pool)
}


def item_keys(workload, seed):
    """Endless item keys for a run: the pool in seeded order, cycled."""
    rng = np.random.default_rng(seed)
    while True:
        for i in rng.permutation(len(workload.pool)):
            yield workload.key(workload.pool[i], rng)
