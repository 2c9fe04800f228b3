"""Simulator benchmark: packets/s on three seeded workloads, with a per-layer trace.

Usage (from the repository root)::

    python3 perfbench/run.py --workload dense-d4 --seed 16 --seconds 10 --trace 0

With ``--trace 0`` the run reports the end-to-end metrics, measured with
tracing off; with ``--trace 1`` it alternates untraced and traced passes and
reports the per-layer metrics of ``BENCHMARK.json`` plus the trace overhead.
Every run also checks the program's outputs (see :func:`check_outputs`).  The
last line of standard output is the JSON result; the lines before it are a
readable table, the machine stamp and any failures by name.

The loop is closed with one caller: ``ExperimentRunner(jobs=1)`` runs one cell
at a time in this process, and a pass runs every cell of the workload once.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINS = HERE / "pins.json"

#: Fresh-process set-up probes per run (after one discarded warm-up probe).
SETUP_PROBES = 4

END_TO_END_UNITS = {
    "packets_per_s": "packets/s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "cell_s_p50": "s",
    "cell_s_p90": "s",
}

PER_LAYER_UNITS = {
    "scheduler.calls": "count",
    "scheduler.busy_s": "s",
    "scheduler.call_us_p50": "us",
    "scheduler.call_us_p99": "us",
    "scheduler.matched_per_call": "chunks",
    "scheduler.empty_frac": "ratio",
    "matching_index.tasks": "count",
    "matching_index.evictions": "count",
    "pool.add_busy_s": "s",
    "pool.remove_calls": "count",
    "pool.remove_busy_s": "s",
    "pool.edge_snapshot_calls": "count",
    "pool.edge_snapshot_busy_s": "s",
    "pool.edge_snapshot_len_mean": "chunks",
    "pool.depth_p50": "chunks",
    "pool.depth_max": "chunks",
    "dispatcher.calls": "count",
    "dispatcher.busy_s": "s",
    "dispatcher.call_us_p50": "us",
    "dispatcher.call_us_p99": "us",
    "dispatcher.fixed_link_frac": "ratio",
    "dispatcher.memo_hit_ratio": "ratio",
    "dispatcher.memo_lookups": "count",
    "impact_index.consolidations": "count",
    "engine.self_s": "s",
    "engine.slots": "count",
    "engine.skipped_frac": "ratio",
    "workloads.gen_s": "s",
    "network.build_s": "s",
    "scenarios.materialise_s": "s",
    "runner.tasks": "count",
    "runner.self_s": "s",
    "trace.spans": "count",
    "trace.wall_s": "s",
    "trace_overhead": "x",
    "failed_frac": "ratio",
}


class Outcome:
    """Attempted/failed bookkeeping; every failure is kept by name."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []

    def check(self, what: str, ok: bool) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    def guard(self, what: str, fn: Callable[[], Any], units: int = 1) -> Any:
        """Run ``fn`` as ``units`` attempts; an exception fails them all, named ``what``."""
        self.attempted += units
        try:
            return fn()
        except Exception as exc:  # a failing simulation is a result, not a crash
            self.failures.extend([f"{what}: {exc!r}"] * units)
            return None

    @property
    def failed(self) -> int:
        return len(self.failures)


def machine_stamp() -> Dict[str, Any]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
    }


@contextmanager
def pinned(turn: int) -> Iterator[None]:
    """Pin this process to one CPU for the block, taking the CPUs in turn.

    Neighbouring tenants slow each CPU in turn for seconds at a time;
    alternating CPUs between passes lets every cell meet a quiet one.
    """
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[turn % len(cpus)]})
    try:
        yield
    finally:
        os.sched_setaffinity(0, cpus)


def digest(rows: List[Dict[str, Any]]) -> str:
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()


# ---------------------------------------------------------------------- #
# passes
# ---------------------------------------------------------------------- #
def run_pass(spec: Any) -> Tuple[List[Dict[str, Any]], List[float]]:
    """Run every cell of ``spec`` once: ``(rows, seconds per cell)``.

    With ``jobs=1`` the runner computes a cell when its first row is pulled,
    so the time between the first rows of consecutive cells is one cell.
    """
    from bench_workloads import cell_key
    from repro.experiments.runner import ExperimentRunner, RunnerConfig

    rows: List[Dict[str, Any]] = []
    cell_seconds: List[float] = []
    last_key: Any = object()
    previous = time.perf_counter()
    for row in ExperimentRunner(RunnerConfig(jobs=1)).iter_rows(spec):
        key = cell_key(row)
        if key != last_key:
            now = time.perf_counter()
            cell_seconds.append(now - previous)
            previous, last_key = now, key
        rows.append(row)
    return rows, cell_seconds


def lane_packets(rows: List[Dict[str, Any]]) -> float:
    """Packets simulated, counted once per policy lane (one row per lane)."""
    return sum(row["num_packets"] for row in rows)


def memo_counts(rows: List[Dict[str, Any]]) -> Tuple[int, int]:
    """Shared-dispatch hits and misses recorded in the rows (one set per cell)."""
    from bench_workloads import cell_key

    per_cell = {cell_key(row): row["shared_dispatch"] for row in rows if "shared_dispatch" in row}
    groups = [group for memo in per_cell.values() for group in memo]
    return sum(g[0] for g in groups), sum(g[1] for g in groups)


def probe_setup(workload: str, seed: int, count: int) -> List[float]:
    """``count`` fresh-process set-up times (after one discarded warm-up probe)."""
    command = [sys.executable, str(HERE / "bench_probe.py"), "--workload", workload,
               "--seed", str(seed)]
    times = []
    for turn in range(count + 1):
        with pinned(turn):  # the probe inherits this process's CPU
            done = subprocess.run(command, capture_output=True, text=True, timeout=120, check=True)
        times.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return times[1:]


# ---------------------------------------------------------------------- #
# correctness
# ---------------------------------------------------------------------- #
def load_pins() -> Dict[str, Dict[str, Any]]:
    return json.loads(PINS.read_text(encoding="utf-8"))


def pinned_rows(name: str) -> List[Dict[str, Any]]:
    """One pass of ``name`` at its default seed (what ``pins.json`` pins)."""
    from bench_workloads import WORKLOADS

    workload = WORKLOADS[name]
    return run_pass(workload.spec(workload.build(workload.default_seed)))[0]


def check_outputs(
    workload: Any, seed: int, cells: Any, rows: List[Dict[str, Any]], outcome: Outcome
) -> None:
    """Untimed checks of the program's outputs; each mismatch is named.

    * the summaries of the default seed match the digest pinned in
      ``pins.json`` (the pass already run is reused when ``seed`` is it);
    * a prefix of this seed's workload gives identical summaries on
      ``engine="reference"`` and ``engine="indexed"``.
    """
    name = workload.name
    pin = load_pins()[name]
    default_rows = rows if seed == pin["seed"] else outcome.guard(
        f"{name}: default-seed pass", lambda: pinned_rows(name)
    )
    if default_rows is not None:
        outcome.check(
            f"{name}: summaries of seed {pin['seed']} differ from the pinned digest",
            digest(default_rows) == pin["sha256"],
        )
    prefixes = outcome.guard(
        f"{name}: reference cross-check",
        lambda: [run_pass(workload.prefix_spec(cells, mode))[0]
                 for mode in ("indexed", "reference")],
    )
    if prefixes is not None:
        outcome.check(
            f"{name}: seed {seed} prefix differs between the indexed and reference engines",
            prefixes[0] == prefixes[1],
        )


# ---------------------------------------------------------------------- #
# the two kinds of run
# ---------------------------------------------------------------------- #
def measure_end_to_end(
    workload: Any, seed: int, seconds: float, outcome: Outcome, probes: int = SETUP_PROBES
) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Tracing off: packets/s, seconds per cell, set-up time and peak memory.

    Every timed pass runs the same cells and must repeat the first pass's
    summaries.  Each cell keeps its best time over the passes, so a cold
    first pass needs no separate warm-up.  The host's speed drifts by tens
    of percent over seconds, and the drift only ever slows a cell, so the
    best time is the steady estimate.  ``packets_per_s`` divides one pass's
    lane-packets by the sum of the best cell times.
    """
    from bench_layers import percentile

    name = workload.name
    setup = probe_setup(name, seed, probes) if probes else []
    cells = workload.build(seed)
    spec = workload.spec(cells)
    cells_per_pass = len(spec.grid)
    reference: Optional[List[Dict[str, Any]]] = None
    best: List[float] = []
    passes = 0
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        gc.collect()  # every pass starts from the same heap state
        with pinned(passes):
            result = outcome.guard(f"{name}: timed pass", lambda: run_pass(spec), cells_per_pass)
        if result is None:
            break
        rows, per_cell = result
        if reference is None:
            reference = rows
        elif rows != reference:
            outcome.failures.append(f"{name}: a timed pass gave different summaries")
        best = per_cell if not best else [min(a, b) for a, b in zip(best, per_cell)]
        passes += 1
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if reference is not None:
        check_outputs(workload, seed, cells, reference, outcome)
    if not best:
        return {}, {}
    metrics = {
        "packets_per_s": lane_packets(reference) / sum(best),
        "setup_s": statistics.median(setup) if setup else 0.0,
        "peak_rss_mib": peak_rss_mib,
        "cell_s_p50": percentile(best, 50),
        "cell_s_p90": percentile(best, 90),
    }
    samples = {"passes": passes, "cells": len(best), "setup_probes": len(setup)}
    return metrics, samples


def measure_layers(
    workload: Any, seed: int, seconds: float, outcome: Outcome
) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Alternate untraced and traced full passes (set-up included) for ``seconds``.

    The per-layer values come from the fastest traced pass, so its self
    times and child spans still add up to its wall time.  ``trace_overhead``
    is the fastest traced pass over the fastest untraced one.
    """
    from bench_layers import Tracer, layer_metrics, traced

    name = workload.name

    def untraced_pass() -> Tuple[List[Dict[str, Any]], float, Any]:
        start = time.perf_counter()
        cells = workload.build(seed)
        rows = run_pass(workload.spec(cells))[0]
        return rows, time.perf_counter() - start, cells

    def traced_pass() -> Tuple[List[Dict[str, Any]], float, Tracer]:
        tracer = Tracer()
        with traced(tracer):
            start = time.perf_counter()
            rows = run_pass(workload.spec(workload.build(seed, tracer)))[0]
            wall = time.perf_counter() - start
        return rows, wall, tracer

    untraced_best = traced_best = float("inf")
    layers: Dict[str, float] = {}
    passes = 0
    reference: Optional[List[Dict[str, Any]]] = None
    cells: Any = None
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        with pinned(passes):
            gc.collect()
            plain = outcome.guard(f"{name}: untraced pass", untraced_pass)
            gc.collect()
            spied = outcome.guard(f"{name}: traced pass", traced_pass)
        if plain is None or spied is None:
            break
        rows, wall, cells = plain
        traced_rows, traced_wall, tracer = spied
        reference = rows
        outcome.check(f"{name}: traced summaries differ from untraced", traced_rows == rows)
        if any("shared_dispatch" in row for row in rows):
            outcome.check(
                f"{name}: traced memo hit/miss counts differ from untraced",
                (tracer.memo_hits, tracer.memo_misses) == memo_counts(rows),
            )
        untraced_best = min(untraced_best, wall)
        if traced_wall < traced_best:
            traced_best, layers = traced_wall, layer_metrics(tracer)
        passes += 1
        del tracer, spied
    if reference is not None:
        check_outputs(workload, seed, cells, reference, outcome)
    if not passes:
        return {}, {}
    metrics = dict(layers)
    metrics["trace_overhead"] = traced_best / untraced_best
    metrics["failed_frac"] = outcome.failed / outcome.attempted
    return metrics, {"traced_passes": passes}


# ---------------------------------------------------------------------- #
# command line
# ---------------------------------------------------------------------- #
def result_line(
    metrics: Dict[str, float], units: Dict[str, str], outcome: Outcome
) -> Dict[str, Any]:
    return {
        "correct": outcome.failed == 0 and set(metrics) == set(units),
        "attempted": max(outcome.attempted, 1),
        "failed": outcome.failed,
        "metrics": {
            key: {"value": metrics[key], "unit": unit} for key, unit in units.items()
            if key in metrics
        },
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no source tree at {ROOT / 'src' / 'repro'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from bench_workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    workload = WORKLOADS[args.workload]
    outcome = Outcome()
    if args.trace:
        metrics, samples = measure_layers(workload, args.seed, args.seconds, outcome)
        units = PER_LAYER_UNITS
    else:
        metrics, samples = measure_end_to_end(workload, args.seed, args.seconds, outcome)
        units = END_TO_END_UNITS

    print(json.dumps({"machine": machine_stamp(), "workload": args.workload,
                      "seed": args.seed, "samples": samples}))
    for key, unit in units.items():
        if key in metrics:
            print(f"{key:32s} {metrics[key]:>16.6g} {unit}")
    for failure in outcome.failures:
        print(f"FAILED {failure}")
    print(json.dumps(result_line(metrics, units, outcome)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
