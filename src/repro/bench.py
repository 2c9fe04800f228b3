"""Benchmark trajectory institution: sectioned runs, history files, trend checks.

Five named *sections* each measure one engine hot path on a seeded cell,
always verifying bit-identity against the reference configuration before
trusting a timing:

* ``dispatch`` — reference adjacency scan vs the incremental impact index;
* ``scheduler`` — from-scratch greedy stable matching vs the incremental
  matching repairer, on a densified cell;
* ``transmit`` — the indexed engine vs the reference engine on the
  saturated-pairs cell (few hot edges with deep per-edge queues), recording
  both transmit-phase times;
* ``run_multi`` — per-lane dispatch vs shared-dispatch memo lanes;
* ``streaming`` — full retention vs aggregate (O(active) memory) retention
  over the same stream.

Each section run appends one machine-stamped *history point* to the
per-section ``BENCH_<section>.json`` file (``BENCH_dispatch.json`` keeps its
legacy name and absorbs its pre-existing points).  :func:`check_history`
implements the CI regression gate: a new point fails when its throughput
drops more than ``tolerance`` below the best prior point recorded on
*comparable hardware at the same scale* — points from other machines or
other scales are never compared, so a laptop can't "regress" against a CI
runner and a smoke-scale check can't fail against a full-scale history.

:func:`load_history` migrates the legacy single-point file shape and refuses
corrupt documents instead of overwriting them.
"""

from __future__ import annotations

import json
import os
import platform
import time
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.core import OpportunisticLinkScheduler
from repro.network import projector_fabric
from repro.simulation import EngineConfig, SimulationEngine, simulate, timed_policy
from repro.utils.atomic import atomic_write_text
from repro.workloads import uniform_weights
from repro.workloads.adversarial import (
    iter_contention_hotspot_workload,
    iter_saturated_pairs_workload,
)

__all__ = [
    "SECTIONS",
    "load_history",
    "save_history",
    "bench_path",
    "machine_stamp",
    "machine_key",
    "point_scale",
    "point_throughput",
    "validate_point",
    "check_history",
    "run_section",
    "render_report",
    "build_cell",
    "build_saturated_cell",
    "time_single",
    "time_single_phases",
    "time_multi",
    "NUM_LANES",
]

#: The named benchmark sections, in report order.
SECTIONS = ("dispatch", "scheduler", "transmit", "run_multi", "streaming")

#: Lanes used by the ``run_multi`` section (the historical script's value).
NUM_LANES = 4

#: Current history-point schema version.
POINT_SCHEMA = 1

#: Per-section default scales: (packets, edge delay).  Sized so a full
#: five-section sweep stays in CI-smoke territory at 16 racks.
_SECTION_DEFAULTS: Dict[str, Tuple[int, int]] = {
    "dispatch": (1500, 1),
    "scheduler": (2500, 4),
    "transmit": (4000, 4),
    "run_multi": (1000, 1),
    "streaming": (20000, 1),
}


# ---------------------------------------------------------------------- #
# history files
# ---------------------------------------------------------------------- #
def load_history(path: Path) -> list:
    """Existing history points of ``path``, migrating the legacy shape.

    Returns ``[]`` when the file does not exist.  A PR-7+ document is a dict
    with a ``history`` list; a pre-history file is a single benchmark point
    (a dict without ``history``) and becomes the first entry.  Corrupt JSON
    or an unrecognised shape raises :class:`ValueError` so the caller can
    abort instead of silently overwriting the recorded trajectory.
    """
    path = Path(path)
    if not path.exists():
        return []
    try:
        existing = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"{path} is not valid JSON ({exc}); fix or move the file, then re-run"
        ) from exc
    if not isinstance(existing, dict):
        raise ValueError(
            f"{path} holds a top-level {type(existing).__name__}, expected a "
            "benchmark document; fix or move the file, then re-run"
        )
    if "history" in existing:
        history = existing["history"]
        if not isinstance(history, list):
            raise ValueError(
                f"{path} has a non-list 'history' "
                f"({type(history).__name__}); fix or move the file, then re-run"
            )
        return history
    # Pre-history single-point file: keep it as the first entry.
    legacy = dict(existing)
    legacy.pop("benchmark", None)
    return [legacy]


def save_history(path: Union[str, Path], history: list, tag: str) -> Path:
    """Atomically write ``history`` to ``path`` in the canonical document shape.

    Histories accumulate across runs, so a crash mid-write must never clobber
    the recorded trajectory: the document is staged in a temp file and
    ``os.replace``d into place.
    """
    return atomic_write_text(
        path, json.dumps({"benchmark": tag, "history": history}, indent=2) + "\n"
    )


def bench_path(section: str, directory: Union[str, Path]) -> Path:
    """The history file of ``section`` under ``directory``."""
    _require_section(section)
    return Path(directory) / f"BENCH_{section}.json"


def bench_tag(section: str) -> str:
    """The document tag of ``section`` (``dispatch`` keeps its legacy tag)."""
    _require_section(section)
    return f"{section}-hot-path"


def _require_section(section: str) -> None:
    if section not in SECTIONS:
        raise ValueError(f"unknown bench section {section!r}; choose from {SECTIONS}")


# ---------------------------------------------------------------------- #
# point identity: machine, scale, throughput
# ---------------------------------------------------------------------- #
def machine_stamp() -> Dict[str, Any]:
    """The recording machine, in the shape every history point carries."""
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(),
    }


def machine_key(point: Dict[str, Any]) -> Optional[Tuple[str, str, Any]]:
    """Hardware-comparability key of a history point (``None`` if unstamped).

    Two points are throughput-comparable only when platform, interpreter
    implementation and CPU count all match; the Python patch version is
    deliberately excluded (3.12.1 vs 3.12.2 runs stay comparable).
    """
    machine = point.get("machine")
    if not isinstance(machine, dict):
        return None
    try:
        return (
            str(machine["platform"]),
            str(machine["implementation"]),
            machine["cpu_count"],
        )
    except KeyError:
        return None


def point_scale(point: Dict[str, Any]) -> Optional[Tuple[int, int]]:
    """``(num_racks, num_packets)`` of a history point (``None`` if unknown).

    Understands both the sectioned schema (``cell.num_packets``) and the
    legacy dispatch points (packet count under ``single_run``).
    """
    cell = point.get("cell")
    if not isinstance(cell, dict):
        return None
    racks = cell.get("num_racks")
    packets = cell.get("num_packets")
    if packets is None:
        single = point.get("single_run")
        if isinstance(single, dict):
            packets = single.get("num_packets")
    if racks is None or packets is None:
        return None
    return int(racks), int(packets)


def point_throughput(point: Dict[str, Any]) -> Optional[float]:
    """The packets/sec headline of a history point (``None`` if unknown)."""
    value = point.get("throughput_pps")
    if value is None:
        single = point.get("single_run")
        if isinstance(single, dict):
            value = single.get("packets_per_s_indexed")
    return None if value is None else float(value)


def validate_point(point: Dict[str, Any]) -> List[str]:
    """Schema problems of a sectioned history point (empty list = valid)."""
    problems: List[str] = []
    if point.get("schema") != POINT_SCHEMA:
        problems.append(f"schema must be {POINT_SCHEMA}, got {point.get('schema')!r}")
    if point.get("section") not in SECTIONS:
        problems.append(f"unknown section {point.get('section')!r}")
    if machine_key(point) is None:
        problems.append("missing or incomplete machine stamp")
    if point_scale(point) is None:
        problems.append("missing cell scale (num_racks / num_packets)")
    throughput = point_throughput(point)
    if throughput is None or throughput <= 0:
        problems.append(f"throughput_pps must be positive, got {throughput!r}")
    if point.get("bit_identical") is not True:
        problems.append("bit_identical is not true")
    if not isinstance(point.get("recorded_at"), str):
        problems.append("missing recorded_at timestamp")
    return problems


# ---------------------------------------------------------------------- #
# the regression gate
# ---------------------------------------------------------------------- #
def check_history(
    history: List[Dict[str, Any]],
    point: Dict[str, Any],
    tolerance: float,
) -> Tuple[bool, str]:
    """Gate ``point`` against the best comparable prior point of ``history``.

    Pure function of its inputs: compares throughput only against prior
    points with the same :func:`machine_key` AND the same
    :func:`point_scale`; passes (with an explanatory message) when no prior
    point is comparable.  Fails when the new throughput is more than
    ``tolerance`` (a fraction, e.g. ``0.3`` = 30%) below the comparable
    best.
    """
    if not 0 <= tolerance < 1:
        raise ValueError(f"tolerance must lie in [0, 1), got {tolerance}")
    throughput = point_throughput(point)
    if throughput is None:
        return False, "new point carries no throughput_pps"
    key = machine_key(point)
    scale = point_scale(point)
    comparable = [
        prior
        for prior in history
        if machine_key(prior) == key
        and point_scale(prior) == scale
        and point_throughput(prior) is not None
    ]
    if not comparable:
        return True, (
            f"no comparable prior point (machine {key!r} at scale {scale!r}); "
            f"recorded {throughput:.1f} packets/s as the new baseline"
        )
    best = max(point_throughput(prior) for prior in comparable)
    floor = best * (1.0 - tolerance)
    if throughput >= floor:
        return True, (
            f"{throughput:.1f} packets/s vs best comparable {best:.1f} "
            f"(floor {floor:.1f} at {tolerance:.0%} tolerance): OK"
        )
    return False, (
        f"REGRESSION: {throughput:.1f} packets/s is below the floor "
        f"{floor:.1f} ({tolerance:.0%} under the best comparable prior "
        f"point {best:.1f} from {len(comparable)} comparable points)"
    )


# ---------------------------------------------------------------------- #
# seeded cells and timed runs
# ---------------------------------------------------------------------- #
def build_cell(num_racks: int, num_packets: int, seed: int, delay: int = 1):
    """The seeded dense-contention cell shared with benchmarks E15/E16.

    ``delay`` is the uniform reconfigurable-edge delay ``d(e)``: every
    dispatched packet splits into ``d(e)`` chunks, so raising it densifies
    the pending pool without adding dispatch work — the scheduler-phase
    stress knob.
    """
    start = time.perf_counter()
    topology = projector_fabric(
        num_racks=num_racks,
        lasers_per_rack=2,
        photodetectors_per_rack=2,
        delay=delay,
        seed=seed,
    )
    packets = list(
        iter_contention_hotspot_workload(
            topology,
            num_packets=num_packets,
            side="receiver",
            hot_fraction=0.95,
            arrival_rate=8.0,
            weight_sampler=uniform_weights(1, 10),
            seed=seed + 1,
        )
    )
    return topology, packets, time.perf_counter() - start


def build_saturated_cell(num_racks: int, num_packets: int, seed: int, delay: int = 1):
    """The saturated-pairs cell of the ``transmit`` section.

    Eight node-disjoint hot edges the matching serves every slot, each with
    a pending queue hundreds of chunks deep — the worst case for any
    per-edge queue walk in the transmission step.
    """
    start = time.perf_counter()
    topology = projector_fabric(
        num_racks=num_racks,
        lasers_per_rack=2,
        photodetectors_per_rack=2,
        delay=delay,
        seed=seed,
    )
    packets = list(
        iter_saturated_pairs_workload(
            topology,
            num_packets=num_packets,
            num_pairs=8,
            hot_fraction=0.95,
            arrival_rate=8.0,
            weight_sampler=uniform_weights(1, 10),
            seed=seed + 1,
        )
    )
    return topology, packets, time.perf_counter() - start


def time_single(topology, packets, engine_mode: str, incremental: bool = True):
    """One ALG run; returns (seconds, summary)."""
    start = time.perf_counter()
    result = simulate(
        topology,
        OpportunisticLinkScheduler(incremental_scheduler=incremental),
        packets,
        engine=engine_mode,
        max_slots=10_000_000,
    )
    return time.perf_counter() - start, result.summary()


def time_single_phases(topology, packets, engine_mode: str, incremental: bool):
    """One instrumented ALG run; returns (seconds, phase timings, summary)."""
    policy, timings = timed_policy(
        OpportunisticLinkScheduler(incremental_scheduler=incremental)
    )
    start = time.perf_counter()
    result = simulate(
        topology, policy, packets, engine=engine_mode, max_slots=10_000_000
    )
    return time.perf_counter() - start, timings, result.summary()


def time_multi(topology, packets, engine_mode: str, share: bool):
    """Four ALG lanes through run_multi; returns (seconds, summaries, memo stats)."""
    engine = SimulationEngine(
        topology,
        config=EngineConfig(
            engine=engine_mode, share_dispatch=share, max_slots=10_000_000
        ),
    )
    lanes = {f"alg{i}": OpportunisticLinkScheduler() for i in range(NUM_LANES)}
    start = time.perf_counter()
    results = engine.run_multi(packets, lanes)
    elapsed = time.perf_counter() - start
    summaries = {name: res.summary() for name, res in results.items()}
    return elapsed, summaries, engine.last_shared_dispatch_stats


# ---------------------------------------------------------------------- #
# section runners
# ---------------------------------------------------------------------- #
class BenchBitIdentityError(AssertionError):
    """A benchmark configuration diverged from its reference run."""


def _require_identical(section: str, what: str, left, right) -> None:
    if left != right:
        raise BenchBitIdentityError(
            f"bench section {section!r}: {what} diverged from the reference — "
            "timings are untrustworthy; fix the engines before benchmarking"
        )


def _point(
    section: str,
    racks: int,
    packets: int,
    seed: int,
    delay: int,
    throughput: float,
    speedup: float,
    details: Dict[str, Any],
) -> Dict[str, Any]:
    return {
        "schema": POINT_SCHEMA,
        "section": section,
        "recorded_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "machine": machine_stamp(),
        "cell": {
            "topology": "projector",
            "num_racks": racks,
            "num_packets": packets,
            "edge_delay": delay,
            "seed": seed,
        },
        "throughput_pps": round(throughput, 1),
        "speedup": round(speedup, 2),
        "bit_identical": True,
        "details": details,
    }


def run_section(
    section: str,
    packets: Optional[int] = None,
    racks: int = 16,
    seed: int = 15,
) -> Dict[str, Any]:
    """Run one named section and return its (schema-valid) history point.

    Every section verifies summary bit-identity between its optimised and
    reference configurations before reporting; a divergence raises
    :class:`BenchBitIdentityError` instead of recording a lie.
    """
    _require_section(section)
    default_packets, delay = _SECTION_DEFAULTS[section]
    num_packets = default_packets if packets is None else packets

    if section == "dispatch":
        topology, cell_packets, gen_s = build_cell(racks, num_packets, seed)
        ref_s, ref_summary = time_single(topology, cell_packets, "reference")
        idx_s, idx_summary = time_single(topology, cell_packets, "indexed")
        _require_identical(section, "indexed summary", idx_summary, ref_summary)
        return _point(
            section, racks, len(cell_packets), seed, delay,
            throughput=len(cell_packets) / idx_s,
            speedup=ref_s / idx_s,
            details={
                "workload_generation_s": round(gen_s, 4),
                "reference_s": round(ref_s, 4),
                "indexed_s": round(idx_s, 4),
                "packets_per_s_reference": round(len(cell_packets) / ref_s, 1),
            },
        )

    if section == "scheduler":
        topology, cell_packets, gen_s = build_cell(racks, num_packets, seed, delay=delay)
        incr_s, incr_summary = time_single(topology, cell_packets, "indexed")
        flat_s, flat_summary = time_single(
            topology, cell_packets, "indexed", incremental=False
        )
        _require_identical(section, "flat-scheduler summary", flat_summary, incr_summary)
        return _point(
            section, racks, len(cell_packets), seed, delay,
            throughput=len(cell_packets) / incr_s,
            speedup=flat_s / incr_s,
            details={
                "workload_generation_s": round(gen_s, 4),
                "flat_s": round(flat_s, 4),
                "incremental_s": round(incr_s, 4),
            },
        )

    if section == "transmit":
        topology, cell_packets, gen_s = build_saturated_cell(
            racks, num_packets, seed, delay=delay
        )
        ref_s, ref_phases, ref_summary = time_single_phases(
            topology, cell_packets, "reference", incremental=False
        )
        idx_s, idx_phases, idx_summary = time_single_phases(
            topology, cell_packets, "indexed", incremental=True
        )
        _require_identical(section, "indexed summary", idx_summary, ref_summary)
        return _point(
            section, racks, len(cell_packets), seed, delay,
            throughput=len(cell_packets) / idx_s,
            speedup=ref_s / idx_s,
            details={
                "workload_generation_s": round(gen_s, 4),
                "reference_s": round(ref_s, 4),
                "indexed_s": round(idx_s, 4),
                "reference_transmit_s": round(ref_phases.transmit_s, 4),
                "indexed_transmit_s": round(idx_phases.transmit_s, 4),
            },
        )

    if section == "run_multi":
        topology, cell_packets, gen_s = build_cell(racks, num_packets, seed)
        per_lane_s, per_lane_summaries, _ = time_multi(
            topology, cell_packets, "reference", share=False
        )
        shared_s, shared_summaries, memo_stats = time_multi(
            topology, cell_packets, "indexed", share=True
        )
        _require_identical(
            section, "shared-dispatch summaries", shared_summaries, per_lane_summaries
        )
        return _point(
            section, racks, len(cell_packets), seed, delay,
            throughput=len(cell_packets) * NUM_LANES / shared_s,
            speedup=per_lane_s / shared_s,
            details={
                "workload_generation_s": round(gen_s, 4),
                "num_lanes": NUM_LANES,
                "per_lane_reference_s": round(per_lane_s, 4),
                "shared_indexed_s": round(shared_s, 4),
                "memo": memo_stats,
            },
        )

    # streaming: full-retention list input vs aggregate retention consuming
    # the generator lazily — same summary, O(active chunks) memory.
    topology, cell_packets, gen_s = build_cell(racks, num_packets, seed)
    start = time.perf_counter()
    full = simulate(
        topology,
        OpportunisticLinkScheduler(),
        cell_packets,
        engine="indexed",
        max_slots=10_000_000,
    )
    full_s = time.perf_counter() - start
    stream = iter_contention_hotspot_workload(
        topology,
        num_packets=num_packets,
        side="receiver",
        hot_fraction=0.95,
        arrival_rate=8.0,
        weight_sampler=uniform_weights(1, 10),
        seed=seed + 1,
    )
    start = time.perf_counter()
    agg = simulate(
        topology,
        OpportunisticLinkScheduler(),
        stream,
        engine="indexed",
        retention="aggregate",
        max_slots=10_000_000,
    )
    agg_s = time.perf_counter() - start
    _require_identical(section, "aggregate summary", agg.summary(), full.summary())
    return _point(
        section, racks, len(cell_packets), seed, delay,
        throughput=len(cell_packets) / agg_s,
        speedup=full_s / agg_s,
        details={
            "workload_generation_s": round(gen_s, 4),
            "full_retention_s": round(full_s, 4),
            "aggregate_retention_s": round(agg_s, 4),
        },
    )


# ---------------------------------------------------------------------- #
# trend reporting
# ---------------------------------------------------------------------- #
def render_report(directory: Union[str, Path]) -> str:
    """A plain-text trend report over every section history under ``directory``."""
    lines: List[str] = []
    for section in SECTIONS:
        path = bench_path(section, directory)
        try:
            history = load_history(path)
        except ValueError as exc:
            lines.append(f"{section}: UNREADABLE ({exc})")
            continue
        if not history:
            lines.append(f"{section}: no history ({path.name} absent)")
            continue
        lines.append(f"{section} ({path.name}, {len(history)} points):")
        for point in history:
            recorded = point.get("recorded_at", "?")
            throughput = point_throughput(point)
            scale = point_scale(point)
            speedup = point.get("speedup")
            if speedup is None and isinstance(point.get("single_run"), dict):
                speedup = point["single_run"].get("speedup")
            pps = f"{throughput:10.1f} pps" if throughput is not None else "         ? pps"
            spd = f"{float(speedup):5.2f}x" if speedup is not None else "    ?x"
            scl = f"{scale[0]}r/{scale[1]}p" if scale is not None else "?"
            lines.append(f"  {recorded:>25}  {pps}  {spd}  [{scl}]")
    return "\n".join(lines)
