"""Record the reference values the benchmark checks every item against.

    OPENBLAS_NUM_THREADS=1 python3 bench/make_references.py

Runs every pool item of every workload serially and writes
references.json: the LO, ridge ALO, K-fold and closed-form oracle values
per replicate, and the serial (threads=1) results.csv of each table2
config.  Elastic-net ALO is deliberately absent: on the figure1 design it
raises SolverError and its values are wrong until ROADMAP item 3 lands.
Re-record only when an estimator's definition changes, never to make a
failing run pass.
"""

import json
import time

from run import plain_call
from workloads import BENCH_DIR, EnetLOKfold, LogisticRidgeLO, OracleMC, Table2Pool


def main():
    references = {}
    for workload in (LogisticRidgeLO(), EnetLOKfold()):
        entries = {}
        for rep in workload.pool:
            start = time.perf_counter()
            outputs = workload.run(rep, plain_call)
            entries[str(rep)] = outputs
            print(workload.name, rep, f"{time.perf_counter() - start:.3f}s", flush=True)
        references[workload.name] = entries
    # oracle_mc reuses the quadrature oracle of the replicates it was fit on
    references["oracle_mc"] = {
        str(rep): {"oracle": references["logistic_ridge_lo"][str(rep)]["oracle"]}
        for rep in OracleMC.pool
    }
    table2 = Table2Pool()
    entries = {}
    for seed in table2.pool:
        start = time.perf_counter()
        outputs = table2.run(seed, plain_call, threads=1)
        entries[str(seed)] = outputs
        print(table2.name, seed, f"{time.perf_counter() - start:.3f}s", flush=True)
    references[table2.name] = entries
    path = BENCH_DIR / "references.json"
    path.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    print("wrote", path)


if __name__ == "__main__":
    main()
