"""Rewrite ``pins.json`` from the current program's output at each default seed.

Run from the repository root after a change that is *meant* to alter
simulation results::

    python3 perfbench/repin.py
"""

import json
import sys

import run


def main() -> None:
    sys.path[:0] = [str(run.ROOT / "src"), str(run.HERE)]
    from bench_workloads import WORKLOADS

    pins = {
        name: {"seed": workload.default_seed, "sha256": run.digest(run.pinned_rows(name))}
        for name, workload in WORKLOADS.items()
    }
    run.PINS.write_text(json.dumps(pins, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(pins, indent=2))


if __name__ == "__main__":
    main()
