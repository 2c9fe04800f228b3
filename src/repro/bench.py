"""Benchmark trajectory: perfbench results recorded as history points.

The repository has one benchmark, ``perfbench/run.py`` (declared in
``BENCHMARK.json``).  :func:`record_point` runs it twice on one workload and
seed, once untraced (``--trace 0``, the end-to-end metrics) and once traced
(``--trace 1``, the per-layer metrics), each in a fresh interpreter.  The
two result lines become one history point for ``BENCH_<workload>.json``:

* ``recorded_at`` and perfbench's ``machine`` stamp;
* ``workload``, ``seed`` and ``seconds``;
* ``end_to_end`` and ``per_layer``, perfbench's metric dicts as printed
  (``{name: {"value", "unit"}}``);
* ``correct`` and ``failed``, over both runs.

:func:`render_report` prints every history file under a directory, each
point as its ``packets_per_s`` plus each ``*busy_s``/``*self_s`` layer as a
share of the traced wall time.  ``BENCH_dispatch.json`` holds three legacy
points from the retired self-timed sections; they are rendered as
recorded.

:func:`load_history` migrates the legacy single-point file shape and refuses
corrupt documents instead of overwriting them.
"""

from __future__ import annotations

import json
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.utils.atomic import atomic_write_text

__all__ = [
    "PERFBENCH",
    "PerfbenchError",
    "load_history",
    "save_history",
    "bench_path",
    "run_perfbench",
    "record_point",
    "render_report",
]

#: The benchmark script of a source checkout (absent from an installed
#: package).
PERFBENCH = Path(__file__).resolve().parents[2] / "perfbench" / "run.py"


class PerfbenchError(RuntimeError):
    """perfbench exited non-zero or printed output that is not its result format."""


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


def bench_path(workload: str, directory: Union[str, Path]) -> Path:
    """The history file of ``workload`` under ``directory``."""
    return Path(directory) / f"BENCH_{workload}.json"


# ---------------------------------------------------------------------- #
# running perfbench
# ---------------------------------------------------------------------- #
def run_perfbench(
    workload: str, seed: int, seconds: float, trace: int
) -> Tuple[Dict[str, Any], Dict[str, Any], List[str]]:
    """One perfbench run; returns ``(header, result, failure lines)``.

    ``header`` is the first output line (machine stamp, workload, seed),
    ``result`` the last (``correct``, ``failed``, ``metrics``), and the
    failure lines are perfbench's ``FAILED …`` lines in order.
    """
    script = PERFBENCH
    command = [
        sys.executable, str(script),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    done = subprocess.run(command, capture_output=True, text=True)
    if done.returncode != 0:
        raise PerfbenchError(
            f"{script} --trace {trace} exited {done.returncode}: "
            f"{done.stderr.strip() or done.stdout.strip()}"
        )
    lines = done.stdout.splitlines()
    try:
        header, result = json.loads(lines[0]), json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        header = result = None
    if not (
        isinstance(header, dict)
        and "machine" in header
        and isinstance(result, dict)
        and {"correct", "failed", "metrics"} <= result.keys()
    ):
        raise PerfbenchError(
            f"{script} --trace {trace} printed no machine stamp and result line; "
            f"its output was:\n{done.stdout}"
        )
    failures = [line for line in lines if line.startswith("FAILED ")]
    return header, result, failures


def record_point(
    workload: str, seed: int, seconds: float
) -> Tuple[Dict[str, Any], List[str]]:
    """Run perfbench untraced and traced; returns ``(history point, failures)``.

    The point's ``correct`` is true only when both runs printed
    ``"correct": true``; ``failed`` counts the failures of both.
    """
    header, untraced, failures = run_perfbench(workload, seed, seconds, 0)
    _, traced, traced_failures = run_perfbench(workload, seed, seconds, 1)
    point = {
        "recorded_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "machine": header["machine"],
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "end_to_end": untraced["metrics"],
        "per_layer": traced["metrics"],
        "correct": untraced["correct"] is True and traced["correct"] is True,
        "failed": untraced["failed"] + traced["failed"],
    }
    return point, failures + traced_failures


# ---------------------------------------------------------------------- #
# trend reporting
# ---------------------------------------------------------------------- #
def _metric(metrics: Dict[str, Any], name: str) -> Optional[float]:
    entry = metrics.get(name)
    return entry.get("value") if isinstance(entry, dict) else None


def _render_point(point: Dict[str, Any]) -> List[str]:
    recorded = point.get("recorded_at", "?")
    legacy = point.get("single_run")
    if isinstance(legacy, dict):
        # A point of the retired dispatch section: indexed-engine throughput
        # and its speedup over the reference scan on a 64-rack cell.
        pps = legacy.get("packets_per_s_indexed")
        return [
            f"  {recorded:>25}  {_pps(pps)}  legacy section point: "
            f"{legacy.get('num_packets', '?')} packets, "
            f"speedup {legacy.get('speedup', '?')}x"
        ]
    end_to_end = point.get("end_to_end") or {}
    per_layer = point.get("per_layer") or {}
    head = (
        f"  {recorded:>25}  {_pps(_metric(end_to_end, 'packets_per_s'))}  "
        f"seed {point.get('seed', '?')}, {point.get('seconds', '?')} s"
    )
    wall = _metric(per_layer, "trace.wall_s")
    if not wall:
        return [head]
    shares = ", ".join(
        f"{name} {100 * entry['value'] / wall:.1f}%"
        for name, entry in per_layer.items()
        if name.endswith(("busy_s", "self_s")) and isinstance(entry, dict)
    )
    return [head, f"      share of traced wall time: {shares}"]


def _pps(value: Optional[float]) -> str:
    return "         ? packets/s" if value is None else f"{value:10.1f} packets/s"


def render_report(directory: Union[str, Path]) -> str:
    """A plain-text trend report over every ``BENCH_*.json`` under ``directory``."""
    paths = sorted(Path(directory).glob("BENCH_*.json"))
    if not paths:
        return f"no BENCH_*.json history under {directory}"
    lines: List[str] = []
    for path in paths:
        name = path.stem[len("BENCH_"):]
        try:
            history = load_history(path)
        except ValueError as exc:
            lines.append(f"{name}: UNREADABLE ({exc})")
            continue
        lines.append(f"{name} ({path.name}, {len(history)} points):")
        for point in history:
            lines.extend(_render_point(point))
    return "\n".join(lines)
