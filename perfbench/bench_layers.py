"""Outside-in layer tracing for the benchmark.

The tracer wraps the public entry points of each ``repro`` layer *from the
benchmark's side*: it replaces class attributes (``Scheduler.select_matching``
on every scheduler class, ``PendingChunkPool.remove``, …) with thin wrappers
for the duration of a ``with traced(tracer):`` block and restores them on
exit.  Patching the class rather than proxying the instance keeps the
production configuration intact by construction: a dispatcher still answers
its own ``dispatch_sharing_key()`` and still receives a writable
``shared_memo`` from ``run_multi``, and a scheduler still exposes its own
``uses_matching_index``, so the engine builds exactly the lanes an untraced
run builds.

Spans live in memory as parallel arrays (name, start, end, parent).  A span's
self time is its duration minus the durations of its direct children; calls
are single-threaded and properly nested, so children never overlap.
"""

from __future__ import annotations

import functools
import statistics
import time
from array import array
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.core.interfaces import Dispatcher, Scheduler
from repro.core.queues import PendingChunkPool
from repro.experiments.runner import ExperimentRunner
from repro.scenarios.spec import Scenario, TopologySpec, WorkloadSpec
from repro.simulation.engine import SimulationEngine

#: Layer span names, in report order.
LAYERS = (
    "runner",
    "scenarios.materialise",
    "network.build",
    "workloads.gen",
    "engine",
    "dispatcher",
    "scheduler",
    "pool.add",
    "pool.remove",
    "pool.edge_snapshot",
)


class Tracer:
    """In-memory span store plus the counters sampled at the same boundaries."""

    def __init__(self) -> None:
        self.names: List[str] = list(LAYERS)
        self._ids = {name: index for index, name in enumerate(self.names)}
        self.kind = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.stack: List[int] = []
        # Counters recorded where the work happens.
        self.pool_depths: List[int] = []
        self.matched: List[int] = []
        self.snapshot_lens: List[int] = []
        self.fixed_link_dispatches = 0
        self.memo_hits = 0
        self.memo_misses = 0
        self.slots = 0
        self.tasks = 0
        self.pools: List[PendingChunkPool] = []

    def name_id(self, name: str) -> int:
        return self._ids[name]

    def begin(self, kind: int) -> int:
        index = len(self.kind)
        self.kind.append(kind)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        self.stack.append(index)
        return index

    def finish(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self.stack.pop()

    def inside(self, kind: int) -> bool:
        """Whether the innermost open span is of ``kind`` (a re-entrant call)."""
        return bool(self.stack) and self.kind[self.stack[-1]] == kind

    def iterate(self, iterable: Iterable[Any]) -> Iterator[Any]:
        """Yield from ``iterable``, timing every pull as a ``workloads.gen`` span."""
        kind = self.name_id("workloads.gen")
        iterator = iter(iterable)
        while True:
            index = self.begin(kind)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                self.finish(index)
            yield item

    # ------------------------------------------------------------------ #
    # span arithmetic
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.kind)

    def self_times(self) -> List[float]:
        """Per-span self time: duration minus the durations of direct children."""
        own = [end - start for start, end in zip(self.start, self.end)]
        for index, parent in enumerate(self.parent):
            if parent >= 0:
                own[parent] -= self.end[index] - self.start[index]
        return own

    def root_wall(self) -> float:
        """Summed duration of the top-level spans."""
        return sum(
            self.end[i] - self.start[i] for i, parent in enumerate(self.parent) if parent < 0
        )

    def by_layer(self) -> Dict[str, Dict[str, Any]]:
        """Per-layer call count, busy time, self time and call durations."""
        own = self.self_times()
        layers: Dict[str, Dict[str, Any]] = {
            name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "durations": []}
            for name in self.names
        }
        for index, kind in enumerate(self.kind):
            entry = layers[self.names[kind]]
            duration = self.end[index] - self.start[index]
            entry["calls"] += 1
            entry["busy_s"] += duration
            entry["self_s"] += own[index]
            entry["durations"].append(duration)
        return layers


# ---------------------------------------------------------------------- #
# wrappers
# ---------------------------------------------------------------------- #
def _subclasses(base: type) -> Iterator[type]:
    for cls in base.__subclasses__():
        yield cls
        yield from _subclasses(cls)


def _wrap(
    tracer: Tracer,
    name: str,
    original: Callable[..., Any],
    before: Optional[Callable[[Tuple[Any, ...]], None]] = None,
    after: Optional[Callable[[Tuple[Any, ...], Any], None]] = None,
) -> Callable[..., Any]:
    """A span-recording stand-in for ``original``.

    A call made while a span of the same layer is innermost (a ``super()``
    call, ``add_all`` calling ``add``) runs unrecorded, so each layer counts
    its outermost calls only.  ``before``/``after`` record counters outside
    the span.
    """
    kind = tracer.name_id(name)

    @functools.wraps(original)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if tracer.inside(kind):
            return original(*args, **kwargs)
        if before is not None:
            before(args)
        index = tracer.begin(kind)
        try:
            result = original(*args, **kwargs)
        finally:
            tracer.finish(index)
        if after is not None:
            after(args, result)
        return result

    return wrapper


def _patches(tracer: Tracer) -> List[Tuple[type, str, Callable[..., Any]]]:
    """Every (owner, attribute, wrapper) triple the traced run installs."""

    def on_scheduler_call(args: Tuple[Any, ...]) -> None:
        tracer.pool_depths.append(len(args[1]))

    def on_matching(args: Tuple[Any, ...], matching: Any) -> None:
        tracer.matched.append(len(matching))

    def on_assignment(args: Tuple[Any, ...], assignment: Any) -> None:
        if assignment.uses_fixed_link:
            tracer.fixed_link_dispatches += 1

    def on_snapshot(args: Tuple[Any, ...], chunks: Any) -> None:
        tracer.snapshot_lens.append(len(chunks))

    def on_run(args: Tuple[Any, ...], result: Any) -> None:
        tracer.slots += result.num_slots

    def on_run_multi(args: Tuple[Any, ...], results: Any) -> None:
        tracer.slots += sum(res.num_slots for res in results.values())
        for stats in args[0].last_shared_dispatch_stats:
            tracer.memo_hits += stats["hits"]
            tracer.memo_misses += stats["misses"]

    def build_iter(original: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            return tracer.iterate(original(*args, **kwargs))

        return wrapper

    def iter_rows(original: Callable[..., Any]) -> Callable[..., Any]:
        # A generator: the span stays open across its yields, so the rows'
        # consumer must not enter a traced layer while it is suspended.
        kind = tracer.name_id("runner")

        @functools.wraps(original)
        def wrapper(self: ExperimentRunner, spec: Any) -> Iterator[Any]:
            index = tracer.begin(kind)
            try:
                yield from original(self, spec)
            finally:
                tracer.finish(index)
            tracer.tasks += len(spec.grid)

        return wrapper

    def plain(name: str, owner: type, attr: str, **hooks: Any) -> Tuple[type, str, Any]:
        return owner, attr, _wrap(tracer, name, owner.__dict__[attr], **hooks)

    patches = [
        (ExperimentRunner, "iter_rows", iter_rows(ExperimentRunner.iter_rows)),
        plain("scenarios.materialise", Scenario, "materialise"),
        plain("network.build", TopologySpec, "build"),
        (WorkloadSpec, "build_iter", build_iter(WorkloadSpec.build_iter)),
        plain("engine", SimulationEngine, "run", after=on_run),
        plain("engine", SimulationEngine, "run_multi", after=on_run_multi),
        plain("pool.add", PendingChunkPool, "add"),
        plain("pool.add", PendingChunkPool, "add_all"),
        plain("pool.remove", PendingChunkPool, "remove"),
        plain("pool.edge_snapshot", PendingChunkPool, "chunks_on_edge", after=on_snapshot),
    ]
    # Pools are recorded at construction (outside any span) so the index
    # statistics can be read when the run ends.
    init = PendingChunkPool.__init__

    @functools.wraps(init)
    def pool_init(self: PendingChunkPool, *args: Any, **kwargs: Any) -> None:
        init(self, *args, **kwargs)
        tracer.pools.append(self)

    patches.append((PendingChunkPool, "__init__", pool_init))
    for cls in _subclasses(Dispatcher):
        if "dispatch" in cls.__dict__:
            patches.append(plain("dispatcher", cls, "dispatch", after=on_assignment))
    for cls in _subclasses(Scheduler):
        if "select_matching" in cls.__dict__:
            patches.append(
                plain(
                    "scheduler", cls, "select_matching",
                    before=on_scheduler_call, after=on_matching,
                )
            )
    return patches


@contextmanager
def traced(tracer: Tracer) -> Iterator[Tracer]:
    """Install the layer wrappers for the duration of the block."""
    patches = _patches(tracer)
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, wrapper in patches:
            setattr(owner, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------- #
# per-layer metrics
# ---------------------------------------------------------------------- #
def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]); 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def _mean(values: List[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """The per-layer metric values of one traced pass (no units)."""
    layers = tracer.by_layer()
    sched = layers["scheduler"]
    disp = layers["dispatcher"]
    matching_tasks = matching_evictions = consolidations = 0
    for pool in tracer.pools:
        if pool.matching_index is not None:
            stats = pool.matching_index.stats()
            matching_tasks += stats["tasks"]
            matching_evictions += stats["evictions"]
        if pool.impact_index is not None:
            consolidations += pool.impact_index.consolidations
    memo_lookups = tracer.memo_hits + tracer.memo_misses
    return {
        "scheduler.calls": sched["calls"],
        "scheduler.busy_s": sched["busy_s"],
        "scheduler.call_us_p50": 1e6 * percentile(sched["durations"], 50),
        "scheduler.call_us_p99": 1e6 * percentile(sched["durations"], 99),
        "scheduler.matched_per_call": _mean(tracer.matched),
        "scheduler.empty_frac": _ratio(
            sum(1 for size in tracer.matched if size == 0), len(tracer.matched)
        ),
        "matching_index.tasks": matching_tasks,
        "matching_index.evictions": matching_evictions,
        "pool.add_busy_s": layers["pool.add"]["busy_s"],
        "pool.remove_calls": layers["pool.remove"]["calls"],
        "pool.remove_busy_s": layers["pool.remove"]["busy_s"],
        "pool.edge_snapshot_calls": layers["pool.edge_snapshot"]["calls"],
        "pool.edge_snapshot_busy_s": layers["pool.edge_snapshot"]["busy_s"],
        "pool.edge_snapshot_len_mean": _mean(tracer.snapshot_lens),
        "pool.depth_p50": percentile(tracer.pool_depths, 50),
        "pool.depth_max": max(tracer.pool_depths, default=0),
        "dispatcher.calls": disp["calls"],
        "dispatcher.busy_s": disp["busy_s"],
        "dispatcher.call_us_p50": 1e6 * percentile(disp["durations"], 50),
        "dispatcher.call_us_p99": 1e6 * percentile(disp["durations"], 99),
        "dispatcher.fixed_link_frac": _ratio(tracer.fixed_link_dispatches, disp["calls"]),
        "dispatcher.memo_hit_ratio": _ratio(tracer.memo_hits, memo_lookups),
        "dispatcher.memo_lookups": memo_lookups,
        "impact_index.consolidations": consolidations,
        "engine.self_s": layers["engine"]["self_s"],
        "engine.slots": tracer.slots,
        "engine.skipped_frac": 1.0 - _ratio(sched["calls"], tracer.slots),
        "workloads.gen_s": layers["workloads.gen"]["busy_s"],
        "network.build_s": layers["network.build"]["busy_s"],
        "scenarios.materialise_s": layers["scenarios.materialise"]["busy_s"],
        "runner.tasks": tracer.tasks,
        "runner.self_s": layers["runner"]["self_s"],
        "trace.spans": len(tracer),
        "trace.wall_s": tracer.root_wall(),
    }
