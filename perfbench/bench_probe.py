"""Set-up probe: time one fresh process from its first import to a runnable workload.

Run by ``run.py`` in a subprocess, several times per benchmark run, so that
``setup_s`` covers the imports as well as topology build, packet
materialisation and grid expansion.  Prints one JSON line,
``{"setup_s": <seconds>}``.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from bench_workloads import WORKLOADS  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    # The first simulated slot follows directly once the runner holds its tasks.
    workload.spec(workload.build(args.seed)).tasks()
    print(json.dumps({"setup_s": time.perf_counter() - START}))


if __name__ == "__main__":
    main()
