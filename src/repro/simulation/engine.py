"""Time-slotted simulation engine for two-tier reconfigurable networks.

The engine implements the execution model of Section II:

* time advances in integer transmission slots ``τ = 1, 2, …``;
* packets arriving at slot ``τ`` are handed to the policy's dispatcher one by
  one (in input order), which commits each to the fixed link or to one
  reconfigurable edge (splitting it into chunks);
* at each slot the policy's scheduler selects a set of pending chunks whose
  edges form a matching; the engine transmits them, honouring the configured
  speed augmentation (``speed`` chunk-units of work per matched edge per
  slot), and accounts weighted *fractional* latency exactly as defined in the
  paper: a fraction ``x`` of packet ``p`` delivered during slot ``τ`` over
  edge ``(t, r)`` contributes ``x · w_p · (τ + 1 + d(r,dest) − a_p)``;
* packets assigned to a fixed source→destination link complete at
  ``a_p + d_l(p)`` with weighted latency ``w_p · d_l(p)`` (the fixed network
  is contention-free in the paper's cost model).

The engine is policy-agnostic: the paper's algorithm and every baseline run
through the same code path, which keeps comparisons fair.

Every run goes through one lane path.  Arrivals are *pulled* on demand,
one ``(slot, batch)`` pair per slot, from a single shared arrival buffer
that every lane reads through its own cursor, so the engine composes with
the lazy workload generators in :mod:`repro.workloads`.  Each lane's one
recorder feeds an :class:`~repro.simulation.accumulators.OnlineSummary`,
the source of every summary number.  ``retention="full"`` (the default)
materialises and validates the input up front and additionally keeps the
per-packet records and per-slot matching sizes; ``retention="aggregate"``
validates the stream as it is pulled and keeps nothing per packet, so a
million-packet stream is simulated in O(active chunks) memory.  Both
retentions produce bit-identical ``summary()`` numbers.

The run loop itself lives in :class:`_PolicyLane` — one policy's pool,
recorder and slot cursor, advanced one slot per ``step()`` call.
:meth:`SimulationEngine.run_multi` drives one lane per policy round-robin
over the shared buffer, so a ``P``-policy comparison consumes the workload
stream once instead of ``P`` times while producing per-policy results
bit-identical to ``P`` separate runs; ``run()`` is the one-policy case.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from itertools import groupby
from operator import attrgetter
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.core.interfaces import Policy
from repro.core.packet import Chunk, EdgeAssignment, FixedLinkAssignment, Packet
from repro.core.queues import PendingChunkPool
from repro.exceptions import SchedulingError, SimulationError
from repro.faults import ON_FAIL_MODES, FabricState, FaultEvent, FaultSchedule, FaultTopologyView
from repro.network.topology import TwoTierTopology
from repro.obs import NULL_REGISTRY, MetricsRegistry, MetricsWriter, SpanTimer
from repro.simulation.accumulators import OnlineSummary
from repro.simulation.results import RETENTION_MODES, PacketRecord, SimulationResult
from repro.simulation.trace import (
    DispatchEvent,
    SimulationTrace,
    SlotTrace,
    SlotTraceWriter,
    TransmissionEvent,
)

__all__ = ["ENGINE_MODES", "EngineConfig", "SimulationEngine", "simulate", "simulate_multi"]

#: Evaluation backends for the per-slot hot paths: ``"indexed"`` maintains
#: the pool's incremental impact index (O(log n) per candidate edge) and —
#: for schedulers that opt in — the incremental matching index (stable
#: matching repaired from each slot's delta); ``"reference"`` re-scans the
#: adjacency lists and replays the full greedy matching pass (the historical
#: loops kept for differential testing).  Both share one transmission step
#: and produce bit-identical results.
ENGINE_MODES = ("indexed", "reference")

#: Numerical tolerance used to snap remaining chunk work to zero.
_WORK_EPSILON = 1e-9

#: Bucket upper bounds of the per-slot ``engine_matching_size`` histogram:
#: powers of two from 1 to 1024 edges (matchings are bounded by the rack
#: count, so the range covers every topology in this repository).
_MATCHING_SIZE_BUCKETS = tuple(float(2 ** k) for k in range(11))


@dataclass(frozen=True)
class EngineConfig:
    """Configuration of a :class:`SimulationEngine`.

    Attributes
    ----------
    speed:
        Speed augmentation factor (>= any positive value; 1.0 means no
        augmentation).  Each matched edge can transmit ``speed`` chunk-units
        of work per slot.
    max_slots:
        Safety bound on the number of simulated slots; exceeding it raises
        :class:`~repro.exceptions.SimulationError` (it indicates a policy
        that never drains its queues).
    record_trace:
        Whether to record a full per-slot event trace in memory.
    validate_matchings:
        Whether to check that the scheduler's output is a valid matching of
        eligible pending chunks each slot (cheap; enabled by default).
    slot_skipping:
        Whether to jump over slots that provably transmit nothing instead of
        simulating them one by one (enabled by default): with an empty pool
        the engine jumps to the next arrival, and with a pool whose chunks
        all wait in future activation buckets (head-of-line delays) it jumps
        to the earlier of the next arrival and the next activation time.
        Skipped slots still count toward ``max_slots`` and still contribute
        zero-size entries to ``matching_sizes`` (and empty slot traces when
        ``record_trace`` is on), so results are identical to the slot-by-slot
        walk for any scheduler that selects nothing — and mutates nothing —
        when no chunk is eligible, which holds for every scheduler in this
        repository.
    retention:
        Every run feeds the online summary accumulators that all summary
        numbers are read from.  ``"full"`` (default) is those accumulators
        plus a per-packet :class:`PacketRecord` and the per-slot
        ``matching_sizes`` list; it validates the whole input up front and
        dispatches it stably sorted by arrival.  ``"aggregate"`` consumes
        the input as a stream and keeps only the accumulators, so memory is
        bounded by the number of *in-flight* chunks rather than the number of
        packets.  Aggregate mode requires the input stream to yield packets
        with non-decreasing arrival slots and strictly increasing packet ids
        (the canonical order every workload generator and trace reader in
        this repository produces).
    trace_path:
        When set, every slot trace is appended to this JSONL file (one slot
        per line, see :class:`~repro.simulation.trace.SlotTraceWriter`) and
        then discarded, independent of ``record_trace`` — the streamed trace
        of an arbitrarily long run costs O(1) memory.
    engine:
        Evaluation backend for both per-slot decisions.  ``"indexed"``
        (default) gives every lane a pool that maintains the incremental
        impact index (each candidate-edge evaluation becomes an O(log n)
        rank query) and, for schedulers that opt in via
        ``uses_matching_index``, the incremental matching index (the greedy
        stable matching is repaired from the arrival/completion/activation
        delta instead of recomputed from scratch).  ``"reference"`` keeps
        the historical O(n) adjacency scan and the full greedy matching
        pass.  Both engines share the transmission step, and results are
        bit-identical across the two; the reference paths remain the
        differential-test oracle and the fallback while debugging the
        indexes.
    share_dispatch:
        Whether :meth:`SimulationEngine.run_multi` lets lanes whose
        dispatchers share a rule (same ``dispatch_sharing_key``) reuse one
        impact evaluation per (arrival, pool state) through a
        :class:`~repro.core.dispatcher.SharedDispatchMemo`.  Sharing never
        changes results (lanes with diverged pools miss the memo); disabling
        it replays the PR 3 per-lane dispatch for benchmarking.
    validate_shared_dispatch:
        Debug flag: re-derive every shared-dispatch memo hit from the
        hitting lane's own pool and fail loudly on any mismatch (the
        cross-lane invariant check; costs the sharing speedup).
    obs:
        A :class:`~repro.obs.MetricsRegistry` to record run metrics into
        (packets arrived/delivered, chunks matched per slot, memo hits,
        index repair counts, pool occupancy peaks, …).  ``None`` (default)
        means observability off: the engine uses the shared no-op registry
        and the hot paths skip every instrumentation block behind a single
        boolean.  Instruments only record — enabling observability never
        changes simulation results.
    metrics_path:
        When set, the final registry snapshot is written to this JSONL file
        at the end of each ``run()`` / ``run_multi()`` call (one
        ``{"record": "metrics_snapshot", ...}`` line).  Setting
        ``metrics_path`` without ``obs`` enables a private registry for the
        engine.
    span_stride:
        Sampling stride for per-slot phase spans: every ``span_stride``-th
        simulated slot has its dispatch/scheduler/transmit phases wall-clock
        timed into per-policy ``engine_phase_seconds`` gauges (1 = every
        slot).  0 (default) disables span sampling.  Only active when a
        metrics registry is enabled.
    faults:
        A :class:`~repro.faults.FaultSchedule` of deterministic
        fail/recover/degrade events applied at the start of each slot:
        failed lasers/photodetectors/edges disappear from every
        dispatcher's candidate set, chunks stranded on them are evicted
        from the pool according to ``on_fail``, and degraded edges transmit
        at a fractional rate.  ``None`` (default) disables the fault
        runtime entirely.  Both engine backends stay bit-identical under
        any schedule.
    on_fail:
        What happens to pending chunks stranded on failed hardware:
        ``"requeue"`` (default) holds them outside the pool and re-admits
        them — partial ``remaining_work`` intact, no head delay re-paid —
        when their edge recovers; ``"drop"`` abandons them (the packet
        never completes; its accrued fractional latency is kept);
        ``"redispatch"`` moves them to the live candidate edge of minimum
        delay (re-paying the new head delay, keeping the original split
        granularity), falling back to holding when no candidate is alive.
    """

    speed: float = 1.0
    max_slots: int = 1_000_000
    record_trace: bool = False
    validate_matchings: bool = True
    slot_skipping: bool = True
    retention: str = "full"
    trace_path: Optional[str] = None
    engine: str = "indexed"
    share_dispatch: bool = True
    validate_shared_dispatch: bool = False
    obs: Optional[MetricsRegistry] = None
    metrics_path: Optional[str] = None
    span_stride: int = 0
    faults: Optional[FaultSchedule] = None
    on_fail: str = "requeue"

    def __post_init__(self) -> None:
        if not self.speed > 0:
            raise ValueError(f"speed must be positive, got {self.speed}")
        if self.faults is not None and not isinstance(self.faults, FaultSchedule):
            raise ValueError(
                f"faults must be a FaultSchedule or None, got {type(self.faults).__name__}"
            )
        if self.on_fail not in ON_FAIL_MODES:
            raise ValueError(f"on_fail must be one of {ON_FAIL_MODES}, got {self.on_fail!r}")
        if self.max_slots < 1:
            raise ValueError(f"max_slots must be >= 1, got {self.max_slots}")
        if self.span_stride < 0:
            raise ValueError(f"span_stride must be >= 0, got {self.span_stride}")
        if self.retention not in RETENTION_MODES:
            raise ValueError(
                f"retention must be one of {RETENTION_MODES}, got {self.retention!r}"
            )
        if self.engine not in ENGINE_MODES:
            raise ValueError(
                f"engine must be one of {ENGINE_MODES}, got {self.engine!r}"
            )


# ---------------------------------------------------------------------- #
# arrivals: one shared buffer of (slot, batch) pairs, one cursor per lane
# ---------------------------------------------------------------------- #
_ARRIVAL = attrgetter("arrival")


def _validated_stream(packets: Iterable[Packet], topology: TwoTierTopology) -> Iterator[Packet]:
    """Yield ``packets`` lazily, checking each one as it is pulled.

    The cheap streaming substitute for the global duplicate-id check of
    full retention: arrivals must be non-decreasing and packet ids strictly
    increasing, and every packet must be routable on the topology.
    """
    last_id = -1
    last_slot = 0
    for packet in packets:
        if packet.packet_id <= last_id:
            raise SimulationError(
                f"streamed packet ids must be strictly increasing; got id "
                f"{packet.packet_id} after id {last_id}"
            )
        if packet.arrival < last_slot:
            raise SimulationError(
                f"streamed arrivals must be non-decreasing; packet "
                f"{packet.packet_id} arrives at slot {packet.arrival} after "
                f"slot {last_slot}"
            )
        if not topology.can_route(packet.source, packet.destination):
            raise SimulationError(
                f"packet {packet.packet_id} ({packet.source}->{packet.destination}) "
                "cannot be routed on this topology"
            )
        last_id = packet.packet_id
        last_slot = packet.arrival
        yield packet


class _SharedArrivalBuffer:
    """The one arrival buffer every lane of a run reads.

    Pulls ``(slot, batch)`` pairs from a single generator on demand, so each
    arrival batch is pulled (and, in aggregate mode, generated by the
    workload iterator and validated) exactly once no matter how many lanes
    consume it.  Each lane reads through its own :class:`_ArrivalView`.
    Whenever a new batch is pulled, the batches every view has moved past
    are dropped, so the window held in memory is bounded by how far the
    fastest lane runs ahead of the slowest one — not by the stream length.
    """

    def __init__(self, batches: Iterator[Tuple[int, List[Packet]]]) -> None:
        self._source = batches
        self._batches: List[Tuple[int, List[Packet]]] = []
        self._offset = 0  # absolute index of self._batches[0]
        self._views: List[_ArrivalView] = []

    def view(self) -> "_ArrivalView":
        """A new independent cursor starting at the first arrival batch."""
        view = _ArrivalView(self)
        self._views.append(view)
        return view

    def batch_at(self, index: int) -> Optional[Tuple[int, List[Packet]]]:
        """The ``(slot, batch)`` pair at absolute position ``index``.

        Pulls further batches from the generator on demand; returns ``None``
        once it is exhausted before ``index``.
        """
        while self._offset + len(self._batches) <= index:
            item = next(self._source, None)
            if item is None:
                return None
            if self._views:
                low = min(view.position for view in self._views)
                if low > self._offset:
                    del self._batches[: low - self._offset]
                    self._offset = low
            self._batches.append(item)
        return self._batches[index - self._offset]


class _ArrivalView:
    """One lane's cursor over a :class:`_SharedArrivalBuffer`.

    ``head`` is the next unread ``(slot, batch)`` pair, or ``None`` once the
    stream is exhausted; it is pulled when the view is created and each time
    a batch is popped.
    """

    __slots__ = ("_buffer", "position", "head")

    def __init__(self, buffer: _SharedArrivalBuffer) -> None:
        self._buffer = buffer
        self.position = 0
        self.head = buffer.batch_at(0)

    @property
    def exhausted(self) -> bool:
        return self.head is None

    def next_slot(self) -> Optional[int]:
        head = self.head
        return None if head is None else head[0]

    def pop(self, slot: int) -> List[Packet]:
        """The batch arriving at ``slot`` (empty when none does)."""
        head = self.head
        if head is None or head[0] != slot:
            return []
        self.position += 1
        self.head = self._buffer.batch_at(self.position)
        return head[1]


# ---------------------------------------------------------------------- #
# per-packet accounting: one recorder, one summary source
# ---------------------------------------------------------------------- #
class _Recorder:
    """Streams per-packet outcomes into an :class:`OnlineSummary`.

    Every summary number of a run comes from the summary this recorder
    feeds.  Under full retention it also keeps the run's
    :class:`PacketRecord` map (``records``), whose ``weighted_latency`` and
    ``completion_time`` are set once, when the packet is finalised.

    Holds one small entry per *in-flight* packet and a buffer of
    finalised-but-not-yet-folded packets.  Final per-packet values are
    folded into the compensated totals in dispatch order — deferring
    out-of-order completions — so the totals do not depend on the order in
    which packets complete.
    """

    __slots__ = ("summary", "records", "_active", "_finished", "_next_order", "_next_finalize")

    def __init__(
        self, summary: OnlineSummary, records: Optional[Dict[int, PacketRecord]]
    ) -> None:
        self.summary = summary
        self.records = records
        # pid -> [dispatch order, undelivered chunks, weighted latency, max delivery]
        self._active: Dict[int, list] = {}
        self._finished: Dict[int, Tuple[float, float]] = {}
        self._next_order = 0
        self._next_finalize = 0

    def on_fixed_link(self, packet: Packet, assignment: FixedLinkAssignment) -> None:
        """A packet sent over its fixed link: final at dispatch."""
        order = self._next_order
        self._next_order = order + 1
        summary = self.summary
        summary.add_dispatch(assignment.impact, True)
        summary.num_delivered += 1
        if self.records is not None:
            self.records[packet.packet_id] = PacketRecord(
                packet=packet,
                assignment=assignment,
                completion_time=assignment.completion_time,
                weighted_latency=assignment.weighted_latency,
            )
        self._finish(
            order, assignment.weighted_latency, assignment.completion_time - packet.arrival
        )

    def on_edge(self, packet: Packet, assignment: EdgeAssignment) -> None:
        """A packet split into chunks on a reconfigurable edge."""
        order = self._next_order
        self._next_order = order + 1
        self.summary.add_dispatch(assignment.impact, False)
        if self.records is not None:
            self.records[packet.packet_id] = PacketRecord(packet=packet, assignment=assignment)
        self._active[packet.packet_id] = [order, len(assignment.chunks), 0.0, 0.0]

    def on_transmit(self, chunk: Chunk, latency: float, completed: bool) -> None:
        """``chunk`` moved ``latency`` worth of its packet; ``completed`` if it is done."""
        pid = chunk.packet.packet_id
        entry = self._active[pid]
        entry[2] += latency
        if not completed:
            return
        entry[1] -= 1
        if chunk.delivery_time > entry[3]:
            entry[3] = chunk.delivery_time
        if entry[1] == 0:
            del self._active[pid]
            self.summary.num_delivered += 1
            if self.records is not None:
                record = self.records[pid]
                record.weighted_latency = entry[2]
                record.completion_time = entry[3]
            self._finish(entry[0], entry[2], entry[3] - chunk.packet.arrival)

    def on_chunk_dropped(self, chunk: Chunk) -> None:
        """A stranded chunk was abandoned (``on_fail="drop"``).

        A drop takes every pending chunk of the edge, hence all of the
        packet's undelivered chunks at once.  The packet is finalised with
        its accrued fractional latency and counted dropped, never
        delivered; its ``completion_time`` stays ``None``.
        """
        pid = chunk.packet.packet_id
        entry = self._active[pid]
        entry[1] -= 1
        if entry[1] == 0:
            del self._active[pid]
            self.summary.num_dropped += 1
            if self.records is not None:
                self.records[pid].weighted_latency = entry[2]
            self._finish(entry[0], entry[2], 0.0)

    def _finish(self, order: int, weighted_latency: float, completion: float) -> None:
        if order != self._next_finalize:
            self._finished[order] = (weighted_latency, completion)
            return
        add = self.summary.add_completion
        add(weighted_latency, completion)
        order += 1
        finished = self._finished
        while order in finished:
            add(*finished.pop(order))
            order += 1
        self._next_finalize = order

    def in_flight_packets(self) -> int:
        """Packets dispatched to an edge but not yet delivered or dropped."""
        return len(self._active)


class _LaneFaults:
    """One lane's fault runtime: schedule cursor, fabric state, held chunks.

    Every lane of a run owns an independent instance (fault state is part of
    lane state, like the pool), but all lanes apply the same schedule at the
    same slots, so fault state at any slot is identical across lanes — which
    is what keeps ``run_multi``'s shared-dispatch memo sound under faults.
    """

    __slots__ = (
        "events",
        "state",
        "view",
        "cursor",
        "held",
        "events_applied",
        "recoveries",
        "requeued",
        "dropped",
        "redispatched",
    )

    def __init__(self, schedule: FaultSchedule, topology: TwoTierTopology) -> None:
        self.events = schedule.events
        self.state = FabricState()
        self.view = FaultTopologyView(topology, self.state)
        self.cursor = 0
        #: Chunks evicted under ``on_fail="requeue"`` (or redispatch with no
        #: live candidate), in eviction order, awaiting a recovery event.
        self.held: List[Chunk] = []
        self.events_applied = 0
        self.recoveries = 0
        self.requeued = 0
        self.dropped = 0
        self.redispatched = 0

    def next_event_slot(self) -> Optional[int]:
        """Slot of the next unapplied event, or ``None`` when exhausted."""
        if self.cursor >= len(self.events):
            return None
        return self.events[self.cursor].slot


class _PolicyLane:
    """One policy's complete simulation state, advanced one iteration at a time.

    A lane owns the pending-chunk pool, the recorder, the result under
    construction and the slot cursor, so several lanes can share one engine
    (topology + config) and one arrival buffer while remaining fully
    independent.  ``step()`` executes one iteration of the run loop
    (dispatch this slot's arrivals, transmit one matching, then possibly
    jump over empty slots).
    """

    __slots__ = (
        "engine",
        "policy",
        "arrivals",
        "recorder",
        "result",
        "writer",
        "pool",
        "slot",
        "_slots_simulated",
        "_summary",
        "_sizes",
        "_want_events",
        "_obs_on",
        "_stride",
        "_spans",
        "_hist_matching",
        "_m_arrived",
        "_m_fixed",
        "_m_chunks_dispatched",
        "_m_chunks_matched",
        "_m_chunks_completed",
        "_m_skipped",
        "_m_peak_chunks",
        "_m_peak_work",
        "_faults",
        "_topology",
    )

    def __init__(
        self,
        engine: "SimulationEngine",
        policy: Policy,
        arrivals: _ArrivalView,
        recorder: _Recorder,
        result: SimulationResult,
        writer: Optional[SlotTraceWriter],
    ) -> None:
        self.engine = engine
        self.policy = policy
        self.arrivals = arrivals
        self.recorder = recorder
        self.result = result
        self.writer = writer
        indexed = engine.config.engine == "indexed"
        self.pool = PendingChunkPool(
            impact_index=indexed,
            # Only schedulers that read the incremental matching index get a
            # pool that maintains one; other lanes (FIFO, iSLIP, …) would pay
            # the repair bookkeeping without ever consulting it.
            matching_index=indexed
            and getattr(policy.scheduler, "uses_matching_index", False),
        )
        # Fault runtime: an empty schedule is equivalent to no schedule, so
        # fault-free runs pay nothing (no per-step cursor check, dispatchers
        # and schedulers see the frozen topology directly).
        faults = engine.config.faults
        self._faults = (
            _LaneFaults(faults, engine.topology) if faults is not None and faults else None
        )
        self._topology = self._faults.view if self._faults is not None else engine.topology
        self._slots_simulated = 0
        self._summary = result.aggregates
        # Full retention also keeps the per-slot list of matching sizes.
        self._sizes = None if result.is_aggregate else result.matching_sizes
        self._want_events = engine.config.record_trace or writer is not None
        # Observability: plain-int lane counters folded into the engine's
        # registry by publish_metrics() at run end.  With the registry
        # disabled every hot-path instrumentation block sits behind the one
        # _obs_on boolean, so disabled runs allocate and record nothing.
        metrics = engine.metrics
        self._obs_on = metrics.enabled
        self._stride = engine.config.span_stride
        self._spans = SpanTimer() if (self._obs_on and self._stride > 0) else None
        self._hist_matching = (
            metrics.histogram(
                "engine_matching_size",
                buckets=_MATCHING_SIZE_BUCKETS,
                policy=policy.name,
            )
            if self._obs_on
            else None
        )
        self._m_arrived = 0
        self._m_fixed = 0
        self._m_chunks_dispatched = 0
        self._m_chunks_matched = 0
        self._m_chunks_completed = 0
        self._m_skipped = 0
        self._m_peak_chunks = 0
        self._m_peak_work = 0.0
        self.slot = arrivals.next_slot()
        if self.slot is not None:
            result.first_slot = self.slot

    @property
    def done(self) -> bool:
        """Whether the lane has dispatched and delivered everything."""
        if self.arrivals.head is not None or len(self.pool) != 0:
            return False
        return self._faults is None or not self._faults.held

    def _over_budget(self) -> SimulationError:
        """The error raised once the lane has simulated more than ``max_slots``."""
        return SimulationError(
            f"simulation exceeded max_slots={self.engine.config.max_slots} "
            f"(policy {self.policy.name!r}, arrivals exhausted: "
            f"{self.arrivals.exhausted}, {len(self.pool)} chunks "
            f"/ {self.pool.total_pending_work():.6g} chunk-units of work pending)"
        )

    def step(self) -> bool:
        """Simulate one slot (plus any skipped empty gap); ``False`` once the lane is done."""
        engine = self.engine
        config = engine.config
        slot = self.slot
        result = self.result
        pool = self.pool
        self._slots_simulated += 1
        if self._slots_simulated > config.max_slots:
            raise self._over_budget()
        faults = self._faults
        if faults is not None:
            if faults.cursor < len(faults.events) and faults.events[faults.cursor].slot <= slot:
                self._apply_fault_events(slot)
            if (
                faults.held
                and self.arrivals.exhausted
                and len(pool) == 0
                and faults.cursor >= len(faults.events)
            ):
                raise SimulationError(
                    f"policy {self.policy.name!r}: {len(faults.held)} chunks stranded "
                    "on failed hardware with no recovery event scheduled"
                )
        slot_trace = SlotTrace(slot=slot) if self._want_events else None
        obs_on = self._obs_on
        spans = self._spans
        # Sample the phase spans of every _stride-th simulated slot.
        sampled = spans is not None and (self._slots_simulated - 1) % self._stride == 0
        phase_start = time.perf_counter() if sampled else 0.0

        # 1. Pull and dispatch this slot's arrival batch, in input order.
        for packet in self.arrivals.pop(slot):
            assignment = engine._dispatch_packet(
                self.policy,
                packet,
                pool,
                slot,
                self.recorder,
                slot_trace,
                self._topology,
            )
            if obs_on:
                self._m_arrived += 1
                if assignment.uses_fixed_link:
                    self._m_fixed += 1
                else:
                    self._m_chunks_dispatched += len(assignment.chunks)
        if obs_on:
            occupancy = len(pool)
            if occupancy > self._m_peak_chunks:
                self._m_peak_chunks = occupancy
            pending_work = pool.total_pending_work()
            if pending_work > self._m_peak_work:
                self._m_peak_work = pending_work
        if sampled:
            now = time.perf_counter()
            spans.add("dispatch", now - phase_start)
            phase_start = now

        # 2. Ask the scheduler for this slot's matching and transmit it.
        matching = self.policy.scheduler.select_matching(pool, self._topology, slot)
        if sampled:
            spans.add("scheduler", time.perf_counter() - phase_start)
        if config.validate_matchings:
            engine._validate_matching(matching, pool, slot)
        size = len(matching)
        if size:
            summary = self._summary
            summary.matching_total += size
            summary.matching_nonempty += 1
            if size > summary.matching_max:
                summary.matching_max = size
        if self._sizes is not None:
            self._sizes.append(size)
        if slot_trace is not None:
            slot_trace.matching = [chunk.edge for chunk in matching]
        if obs_on:
            self._m_chunks_matched += size
            self._hist_matching.observe(size)
            chunks_before = len(pool)

        transmit_start = time.perf_counter() if sampled else 0.0
        if faults is not None and faults.state.any_degraded:
            rates = faults.state.degraded
            speed = config.speed
            for chunk in matching:
                rate = rates.get(chunk.edge)
                engine._transmit_on_edge(
                    chunk,
                    pool,
                    slot,
                    self.recorder,
                    slot_trace,
                    budget=speed if rate is None else speed * rate,
                )
        else:
            speed = config.speed
            for chunk in matching:
                engine._transmit_on_edge(chunk, pool, slot, self.recorder, slot_trace, speed)
        if sampled:
            spans.add("transmit", time.perf_counter() - transmit_start)
        if obs_on:
            self._m_chunks_completed += chunks_before - len(pool)

        if slot_trace is not None:
            if config.record_trace:
                result.trace.slots.append(slot_trace)
            if self.writer is not None:
                self.writer.write(slot_trace)
        result.last_slot = slot
        slot += 1

        # 3. Fast path: when no slot before the next arrival (or the next
        #    chunk activation) can transmit anything, jump straight to it.
        #    Two cases: an empty pool waits for the next arrival, and a pool
        #    whose chunks all sit in future activation buckets additionally
        #    waits for the earliest activation time.
        next_arrival = self.arrivals.next_slot()
        target: Optional[int] = None
        if config.slot_skipping:
            if len(pool) == 0:
                target = next_arrival
                if target is None and faults is not None and faults.held:
                    # Everything pending sits in the held list: nothing can
                    # happen before the next fault event (a recovery, if one
                    # is scheduled, re-admits the held chunks).
                    target = faults.next_event_slot()
            elif not pool.has_eligible(slot):
                next_activation = pool.next_activation_time()
                if next_arrival is None:
                    target = next_activation
                elif next_activation is not None:
                    target = min(next_arrival, next_activation)
        if faults is not None and target is not None:
            # Never skip over a fault event: eviction and candidate masking
            # must take effect at exactly the scheduled slot.
            next_event = faults.next_event_slot()
            if next_event is not None and next_event < target:
                target = next_event
        if target is not None and target > slot:
            skipped = target - slot
            self._slots_simulated += skipped
            if obs_on:
                self._m_skipped += skipped
            if self._slots_simulated > config.max_slots:
                raise self._over_budget()
            # Keep the per-slot sizes (and, when tracing, the empty slot
            # traces) identical to the slot-by-slot walk.
            if self._sizes is not None:
                self._sizes.extend([0] * skipped)
            if self._want_events:
                for empty in range(slot, target):
                    empty_trace = SlotTrace(slot=empty)
                    if config.record_trace:
                        result.trace.slots.append(empty_trace)
                    if self.writer is not None:
                        self.writer.write(empty_trace)
            result.last_slot = target - 1
            slot = target
        self.slot = slot
        return not self.done

    # ------------------------------------------------------------------ #
    # fault handling (cold path: runs only at scheduled event slots)
    # ------------------------------------------------------------------ #
    def _apply_fault_events(self, slot: int) -> None:
        """Apply every fault event due at or before ``slot``, in schedule order.

        Each event updates the fabric state first, then its structural
        consequence runs immediately: fails evict the target's stranded
        chunks (in the pool's deterministic priority order), recoveries
        re-scan the held list in eviction order.  Same-slot sequences
        therefore apply exactly as written.
        """
        faults = self._faults
        events = faults.events
        topology = self.engine.topology
        while faults.cursor < len(events) and events[faults.cursor].slot <= slot:
            event = events[faults.cursor]
            faults.cursor += 1
            faults.state.apply(event, topology)
            faults.events_applied += 1
            if event.action == "fail":
                self._evict_stranded(event, slot)
            elif event.action == "recover":
                faults.recoveries += 1
                self._readmit_held()

    def _evict_stranded(self, event: FaultEvent, slot: int) -> None:
        """Remove every pending chunk stranded by ``event`` from the pool."""
        pool = self.pool
        if event.kind == "laser":
            stranded = pool.chunks_at_transmitter(event.target)
        elif event.kind == "photodetector":
            stranded = pool.chunks_at_receiver(event.target)
        else:
            stranded = pool.chunks_on_edge(*event.target)
        if not stranded:
            return
        faults = self._faults
        for chunk in stranded:
            pool.remove(chunk)
        on_fail = self.engine.config.on_fail
        if on_fail == "requeue":
            faults.held.extend(stranded)
            faults.requeued += len(stranded)
        elif on_fail == "drop":
            for chunk in stranded:
                self.recorder.on_chunk_dropped(chunk)
            faults.dropped += len(stranded)
        else:  # redispatch
            self._redispatch(stranded, slot)

    def _redispatch(self, stranded: List[Chunk], slot: int) -> None:
        """Move evicted chunks to the live candidate edge of minimum delay.

        The chunk keeps its original split granularity (size and weight from
        the edge it was dispatched to) and partial ``remaining_work``, but
        re-pays the new transmitter's head delay from the current slot.
        Chunks with no live candidate fall back to the held list.
        """
        faults = self._faults
        pool = self.pool
        topology = self.engine.topology
        for chunk in stranded:
            packet = chunk.packet
            candidates = faults.view.candidate_edges(packet.source, packet.destination)
            if not candidates:
                faults.held.append(chunk)
                faults.requeued += 1
                continue
            edge = min(candidates, key=lambda e: (topology.edge_delay(*e), e))
            chunk.transmitter, chunk.receiver = edge
            chunk.tail_delay = topology.tail_delay(edge[1])
            chunk.eligible_time = slot + topology.head_delay(edge[0])
            pool.add(chunk)
            faults.redispatched += 1

    def _readmit_held(self) -> None:
        """Re-admit held chunks whose hardware recovered, in eviction order.

        Re-admitted chunks keep their original ``eligible_time`` (no head
        delay is re-paid: the chunk already traversed the source→laser hop)
        and partial ``remaining_work``.
        """
        faults = self._faults
        if not faults.held:
            return
        state = faults.state
        pool = self.pool
        still_held: List[Chunk] = []
        for chunk in faults.held:
            if state.edge_alive(chunk.transmitter, chunk.receiver):
                pool.add(chunk)
            else:
                still_held.append(chunk)
        faults.held[:] = still_held

    def publish_metrics(self, name: str) -> None:
        """Fold this lane's counters into the engine's metrics registry.

        Called once at run end (cold path): lane-local plain ints, subsystem
        counters and sampled span totals become registry series labeled
        ``policy=name`` — the lane's display name, so two lanes wrapping the
        same underlying policy (same ``policy.name``) keep distinct series.
        """
        metrics = self.engine.metrics
        if not metrics.enabled:
            return
        dropped = self._summary.num_dropped
        metrics.counter("engine_packets_arrived", policy=name).inc(self._m_arrived)
        metrics.counter("engine_packets_fixed_link", policy=name).inc(self._m_fixed)
        metrics.counter("engine_packets_delivered", policy=name).inc(
            self._m_arrived - self.recorder.in_flight_packets() - dropped
        )
        metrics.counter("engine_chunks_dispatched", policy=name).inc(
            self._m_chunks_dispatched
        )
        metrics.counter("engine_chunks_matched", policy=name).inc(self._m_chunks_matched)
        metrics.counter("engine_chunks_completed", policy=name).inc(
            self._m_chunks_completed
        )
        metrics.counter("engine_slots_simulated", policy=name).inc(self._slots_simulated)
        metrics.counter("engine_slots_skipped", policy=name).inc(self._m_skipped)
        metrics.gauge("engine_pool_peak_chunks", policy=name).set_max(
            self._m_peak_chunks
        )
        metrics.gauge("engine_pool_peak_pending_work", policy=name).set_max(
            self._m_peak_work
        )
        if self._spans is not None:
            for phase in sorted(self._spans.totals):
                metrics.gauge("engine_phase_seconds", phase=phase, policy=name).set(
                    self._spans.total(phase)
                )
            metrics.counter("engine_span_sampled_slots", policy=name).inc(
                self._spans.counts.get("scheduler", 0)
            )
        impact_index = self.pool.impact_index
        if impact_index is not None:
            metrics.counter("impact_index_consolidations", policy=name).inc(
                impact_index.consolidations
            )
        matching_index = self.pool.matching_index
        if matching_index is not None:
            index_stats = matching_index.stats()
            metrics.counter("matching_index_tasks", policy=name).inc(
                index_stats["tasks"]
            )
            metrics.counter("matching_index_evictions", policy=name).inc(
                index_stats["evictions"]
            )
            metrics.counter("matching_index_handovers", policy=name).inc(
                index_stats["handovers"]
            )
        faults = self._faults
        if faults is not None:
            metrics.counter("engine_fault_events", policy=name).inc(faults.events_applied)
            metrics.counter("engine_fault_recoveries", policy=name).inc(faults.recoveries)
            metrics.counter("engine_chunks_requeued", policy=name).inc(faults.requeued)
            metrics.counter("engine_chunks_dropped", policy=name).inc(faults.dropped)
            metrics.counter("engine_chunks_redispatched", policy=name).inc(
                faults.redispatched
            )
            metrics.counter("engine_packets_dropped", policy=name).inc(dropped)


class SimulationEngine:
    """Runs one or several :class:`~repro.core.interfaces.Policy` objects on a packet sequence."""

    def __init__(
        self,
        topology: TwoTierTopology,
        policy: Optional[Policy] = None,
        config: Optional[EngineConfig] = None,
        **overrides: object,
    ) -> None:
        """Create an engine for ``policy`` on ``topology``.

        ``policy`` may be ``None`` for an engine used exclusively through
        :meth:`run_multi` (which takes its policies per call).  Keyword
        ``overrides`` are :class:`EngineConfig` fields applied on top of
        ``config`` (default: ``EngineConfig()``); an unknown keyword raises
        :class:`TypeError`.
        """
        topology.freeze()
        self.topology = topology
        self.policy = policy
        self.config = replace(config or EngineConfig(), **overrides)
        #: The metrics registry every lane of this engine records into: the
        #: configured one, a private one when only ``metrics_path`` is set,
        #: or the shared no-op singleton when observability is off.
        if self.config.obs is not None:
            self.metrics: MetricsRegistry = self.config.obs
        elif self.config.metrics_path is not None:
            self.metrics = MetricsRegistry()
        else:
            self.metrics = NULL_REGISTRY
        #: Hit/miss statistics of the last :meth:`run_multi` shared-dispatch
        #: groups (one dict per group), for benchmarks and diagnostics.
        self.last_shared_dispatch_stats: List[Dict[str, int]] = []

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def run(self, packets: Iterable[Packet]) -> SimulationResult:
        """Simulate the online arrival and transmission of ``packets``.

        A one-policy :meth:`run_multi` under the policy's own name:
        ``packets`` may be any iterable (with ``retention="aggregate"`` it is
        consumed lazily, one arrival batch per slot, and never materialised)
        and metrics are published under ``policy.name``.  Returns a
        :class:`~repro.simulation.results.SimulationResult`; raises
        :class:`~repro.exceptions.SimulationError` if the configured slot
        budget is exhausted before every packet is delivered.
        """
        if self.policy is None:
            raise SimulationError(
                "this engine was created without a policy; use run_multi() or "
                "pass a policy to the constructor"
            )
        name = self.policy.name
        return self._run_lanes(packets, {name: self.policy})[name]

    def run_multi(
        self,
        packets: Iterable[Packet],
        policies: Mapping[str, Policy],
    ) -> Dict[str, SimulationResult]:
        """Run several policies over one shared arrival stream, in a single pass.

        Every arrival batch is materialised (and, in aggregate mode, generated
        and validated) exactly **once** and fed to one independent simulation
        lane per policy, so a ``P``-policy evaluation costs one workload
        generation instead of ``P``.  Lanes share nothing but the (immutable)
        packets: each policy keeps its own pending-chunk pool, recorder and
        slot cursor, and the per-policy :class:`SimulationResult` (and its
        ``summary()``) is bit-identical to a separate :meth:`run` call with
        the same packets.

        ``policies`` maps display names to *distinct* policy objects (they
        are reset before the run).  Results are returned keyed by the same
        names, in input order, and metrics are published under them.
        ``trace_path`` would interleave the slot traces of different
        policies into one file and is therefore only allowed with a single
        policy.
        """
        return self._run_lanes(packets, policies)

    def _run_lanes(
        self,
        packets: Iterable[Packet],
        policies: Mapping[str, Policy],
    ) -> Dict[str, SimulationResult]:
        """The one run loop behind :meth:`run` and :meth:`run_multi`."""
        policies = dict(policies)
        if not policies:
            raise SimulationError("run_multi requires at least one policy")
        if self.config.trace_path is not None and len(policies) > 1:
            raise SimulationError(
                "trace_path is only supported for single-policy runs; "
                "run policies separately to stream their slot traces"
            )
        components = [
            component
            for policy in policies.values()
            for component in (policy, policy.dispatcher, policy.scheduler)
        ]
        if len({id(component) for component in components}) != len(components):
            # Lanes are only independent because each policy carries its own
            # dispatcher/scheduler state; sharing any of the three objects
            # between names would let interleaved steps corrupt each other
            # silently.
            raise SimulationError(
                "run_multi requires a distinct policy object (with distinct "
                "dispatcher and scheduler) per name; a shared object was "
                "passed under several names"
            )
        # Validates (full retention: the whole input) before any file is touched.
        buffer = _SharedArrivalBuffer(self._arrival_batches(packets))
        writer = self._make_writer(buffer)
        shared_dispatchers: List[Policy] = []
        self.last_shared_dispatch_stats = []
        try:
            lanes = {
                name: self._make_lane(policy, buffer.view(), writer)
                for name, policy in policies.items()
            }
            memos = self._attach_shared_dispatch(list(policies.values()))
            shared_dispatchers = [policy for policy, _ in memos]
            # Round-robin one slot per lane per round: lanes stay roughly in
            # lockstep, so the shared buffer holds only the narrow window
            # between the fastest and the slowest lane.
            active = [lane for lane in lanes.values() if not lane.done]
            while active:
                active = [lane for lane in active if lane.step()]
            self.last_shared_dispatch_stats = [
                memo.stats() for memo in {id(m): m for _, m in memos}.values()
            ]
        finally:
            if writer is not None:
                writer.close()
            for policy in shared_dispatchers:
                policy.dispatcher.shared_memo = None
        for name, lane in lanes.items():
            lane.publish_metrics(name)
        if self.metrics.enabled:
            for group, stats in enumerate(self.last_shared_dispatch_stats):
                self.metrics.counter("shared_dispatch_hits", group=group).inc(
                    stats["hits"]
                )
                self.metrics.counter("shared_dispatch_misses", group=group).inc(
                    stats["misses"]
                )
        self._write_metrics()
        return {name: lane.result for name, lane in lanes.items()}

    def _attach_shared_dispatch(self, policies: Sequence[Policy]):
        """Group impact-sharing lanes and wire one dispatch memo per group.

        Lanes whose dispatchers return the same non-``None``
        ``dispatch_sharing_key`` evaluate one arrival's candidate edges once
        per distinct pool state instead of once per lane (see
        :class:`~repro.core.dispatcher.SharedDispatchMemo`).  Returns the
        ``(policy, memo)`` pairs that were wired, so the caller can detach
        the memos when the run ends.
        """
        from repro.core.dispatcher import SharedDispatchMemo

        pairs: List[Tuple[Policy, SharedDispatchMemo]] = []
        if not self.config.share_dispatch or len(policies) < 2:
            return pairs
        groups: Dict[object, List[Policy]] = {}
        for policy in policies:
            key = policy.dispatcher.dispatch_sharing_key()
            if key is not None:
                groups.setdefault(key, []).append(policy)
        for group in groups.values():
            if len(group) < 2:
                continue
            memo = SharedDispatchMemo(
                len(group), validate=self.config.validate_shared_dispatch
            )
            for policy in group:
                policy.dispatcher.shared_memo = memo
                pairs.append((policy, memo))
        return pairs

    # ------------------------------------------------------------------ #
    # lane plumbing
    # ------------------------------------------------------------------ #
    def _arrival_batches(
        self, packets: Iterable[Packet]
    ) -> Iterator[Tuple[int, List[Packet]]]:
        """The run's ``(slot, batch)`` pairs, as the configured retention reads them.

        Full retention validates the whole input now (duplicate ids,
        unroutable packets) and dispatches a stable sort of it by arrival,
        so packets within a slot keep their input order.  Aggregate
        retention validates each packet as it is pulled.
        """
        if self.config.retention == "aggregate":
            stream: Iterable[Packet] = _validated_stream(packets, self.topology)
        else:
            stream = sorted(self._validate_packets(packets), key=_ARRIVAL)
        return ((slot, list(batch)) for slot, batch in groupby(stream, key=_ARRIVAL))

    def _make_writer(self, buffer: _SharedArrivalBuffer) -> Optional[SlotTraceWriter]:
        """Open the streamed-trace writer, but only when a run will happen.

        An empty arrival stream writes no trace file at all, and because the
        first batch is pulled — and the input validated — first, an invalid
        input never truncates an existing trace file either.
        """
        if self.config.trace_path is None or buffer.batch_at(0) is None:
            return None
        return SlotTraceWriter(self.config.trace_path)

    def _make_lane(
        self,
        policy: Policy,
        arrivals: _ArrivalView,
        writer: Optional[SlotTraceWriter],
    ) -> _PolicyLane:
        """Create one policy's independent simulation lane."""
        result = SimulationResult(
            policy_name=policy.name,
            topology_name=self.topology.name,
            speed=self.config.speed,
            retention=self.config.retention,
            trace=SimulationTrace() if self.config.record_trace else None,
        )
        recorder = _Recorder(result.aggregates, None if result.is_aggregate else result.records)
        policy.reset()
        return _PolicyLane(self, policy, arrivals, recorder, result, writer)

    def _write_metrics(self) -> None:
        """Write the registry snapshot to ``metrics_path`` (when configured)."""
        path = self.config.metrics_path
        if path is None or not self.metrics.enabled:
            return
        with MetricsWriter(path) as writer:
            writer.write(
                {"record": "metrics_snapshot", "snapshot": self.metrics.snapshot()}
            )

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #
    def _validate_packets(self, packets: Iterable[Packet]) -> List[Packet]:
        packet_list = list(packets)
        seen_ids: set[int] = set()
        for packet in packet_list:
            if packet.packet_id in seen_ids:
                raise SimulationError(f"duplicate packet id {packet.packet_id}")
            seen_ids.add(packet.packet_id)
            if not self.topology.can_route(packet.source, packet.destination):
                raise SimulationError(
                    f"packet {packet.packet_id} ({packet.source}->{packet.destination}) "
                    "cannot be routed on this topology"
                )
        return packet_list

    def _dispatch_packet(
        self,
        policy: Policy,
        packet: Packet,
        pool: PendingChunkPool,
        slot: int,
        recorder: _Recorder,
        slot_trace: Optional[SlotTrace],
        topology: object,
    ):
        # ``topology`` is the lane's: with an active fault schedule it is the
        # FaultTopologyView, so the dispatcher only ever sees live candidate
        # edges (and a dispatcher ignoring the mask is caught by has_edge).
        assignment = policy.dispatcher.dispatch(packet, topology, pool, slot)
        if isinstance(assignment, EdgeAssignment):
            if not topology.has_edge(assignment.transmitter, assignment.receiver):
                raise SimulationError(
                    f"dispatcher assigned packet {packet.packet_id} to non-existent edge "
                    f"{assignment.edge}"
                )
            recorder.on_edge(packet, assignment)
            pool.add_all(assignment.chunks)
        elif isinstance(assignment, FixedLinkAssignment):
            recorder.on_fixed_link(packet, assignment)
        else:  # pragma: no cover - defensive
            raise SimulationError(f"unknown assignment type {type(assignment).__name__}")
        if slot_trace is not None:
            slot_trace.arrivals.append(packet.packet_id)
            slot_trace.dispatches.append(
                DispatchEvent(
                    packet_id=packet.packet_id,
                    used_fixed_link=assignment.uses_fixed_link,
                    edge=None if assignment.uses_fixed_link else assignment.edge,
                    impact=assignment.impact,
                )
            )
        return assignment

    def _validate_matching(
        self, matching: Sequence[Chunk], pool: PendingChunkPool, slot: int
    ) -> None:
        used_t: set[str] = set()
        used_r: set[str] = set()
        for chunk in matching:
            if chunk not in pool:
                raise SchedulingError(
                    f"slot {slot}: scheduler selected chunk {chunk!r} that is not pending"
                )
            if chunk.eligible_time > slot:
                raise SchedulingError(
                    f"slot {slot}: scheduler selected chunk {chunk!r} before it is eligible"
                )
            if chunk.transmitter in used_t or chunk.receiver in used_r:
                raise SchedulingError(
                    f"slot {slot}: scheduler output is not a matching (conflict at {chunk.edge})"
                )
            used_t.add(chunk.transmitter)
            used_r.add(chunk.receiver)

    def _transmit_on_edge(
        self,
        head_chunk: Chunk,
        pool: PendingChunkPool,
        slot: int,
        recorder: _Recorder,
        slot_trace: Optional[SlotTrace],
        budget: float,
    ) -> None:
        """Transmit up to ``budget`` chunk-units on ``head_chunk``'s edge.

        The head chunk is served first; any leftover budget spills to the
        edge's other eligible chunks in priority order (see
        :func:`_edge_queue`, which copies the queue only when it is reached).
        """
        if budget <= _WORK_EPSILON:
            return
        for chunk in _edge_queue(head_chunk, pool, slot):
            amount = min(budget, chunk.remaining_work)
            if amount <= 0:
                continue
            budget -= amount
            chunk.remaining_work -= amount
            pool.debit_work(amount)
            delivery_time = slot + 1 + chunk.tail_delay
            completed = chunk.remaining_work <= _WORK_EPSILON
            if completed:
                chunk.remaining_work = 0.0
                chunk.completed_slot = slot
                chunk.delivery_time = delivery_time
                pool.remove(chunk)

            packet = chunk.packet
            fraction = amount * chunk.size
            recorder.on_transmit(
                chunk,
                fraction * packet.weight * (delivery_time - packet.arrival),
                completed,
            )
            if slot_trace is not None:
                slot_trace.transmissions.append(
                    TransmissionEvent(
                        packet_id=packet.packet_id,
                        chunk_index=chunk.index,
                        edge=head_chunk.edge,
                        amount=amount,
                        completed=completed,
                    )
                )
            if budget <= _WORK_EPSILON:
                break


def _edge_queue(head: Chunk, pool: PendingChunkPool, slot: int) -> Iterator[Chunk]:
    """``head``, then the other chunks of its edge eligible at ``slot``, in priority order.

    When the head's remaining work covers the budget (every slot at speed 1
    on a healthy fabric) the consumer stops after the head, so the edge
    queue is never copied; only a leftover budget resumes the generator and
    takes the (post-head) snapshot.  The head is excluded by identity, so
    the order matches a snapshot taken before the head was served.
    """
    yield head
    for chunk in pool.chunks_on_edge(*head.edge):
        if chunk is not head and chunk.eligible_time <= slot:
            yield chunk


def simulate(
    topology: TwoTierTopology,
    policy: Policy,
    packets: Iterable[Packet],
    **config: object,
) -> SimulationResult:
    """One-call convenience wrapper around :class:`SimulationEngine`.

    Every keyword is an :class:`EngineConfig` field (``speed``,
    ``max_slots``, ``engine``, ``obs``, ``faults``, …); unset fields keep
    their defaults and an unknown keyword raises :class:`TypeError`.

    Examples
    --------
    >>> from repro.core import OpportunisticLinkScheduler
    >>> from repro.network import figure1_topology
    >>> from repro.workloads import figure1_packets
    >>> res = simulate(figure1_topology(), OpportunisticLinkScheduler(), figure1_packets())
    >>> res.all_delivered
    True
    """
    return SimulationEngine(topology, policy, EngineConfig(**config)).run(packets)


def simulate_multi(
    topology: TwoTierTopology,
    policies: Mapping[str, Policy],
    packets: Iterable[Packet],
    **config: object,
) -> Dict[str, SimulationResult]:
    """One-call wrapper around :meth:`SimulationEngine.run_multi`.

    Runs every policy in ``policies`` over a single shared arrival stream —
    the workload iterable is consumed exactly once — and returns per-policy
    results (bit-identical to separate :func:`simulate` calls) keyed by the
    mapping's names.  Every keyword is an :class:`EngineConfig` field, as
    for :func:`simulate`.

    Examples
    --------
    >>> from repro.baselines import make_fifo_policy
    >>> from repro.core import OpportunisticLinkScheduler
    >>> from repro.network import figure1_topology
    >>> from repro.workloads import figure1_packets
    >>> results = simulate_multi(
    ...     figure1_topology(),
    ...     {"alg": OpportunisticLinkScheduler(), "fifo": make_fifo_policy()},
    ...     figure1_packets(),
    ... )
    >>> sorted(results)
    ['alg', 'fifo']
    >>> all(res.all_delivered for res in results.values())
    True
    """
    return SimulationEngine(topology, config=EngineConfig(**config)).run_multi(packets, policies)
