"""Set-up time of one workload in a fresh process.

Times the library import and the workload's first full fits (all of them
for oracle_mc) and prints the seconds as the last line.  Usage:

    python3 bench/cold_start.py <workload>
"""

import time

START = time.perf_counter()

import sys  # noqa: E402

from workloads import WORKLOADS  # noqa: E402


def main():
    workload = WORKLOADS[sys.argv[1]]()
    workload.cold_fits()
    print(repr(time.perf_counter() - START))


if __name__ == "__main__":
    main()
