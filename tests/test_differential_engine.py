"""Differential testing: naive reference loop vs fast path vs run_multi.

Three independently-implemented evaluation paths must agree bit-for-bit on
every ``summary()`` number:

1. a deliberately *naive* reference simulator defined in this file — a plain
   slot-by-slot walk (no slot skipping) over a pool with **no** maintained
   priority index (every query re-sorts a flat list), keeping full per-packet
   records;
2. the production engine's fast path (priority-indexed pool, slot skipping,
   full retention);
3. ``SimulationEngine.run_multi`` evaluating all policies of a scenario over
   one shared arrival stream (both retentions).

The scenarios come from the declarative registry, so the harness exercises
the same cells CI smokes, across every stateful policy (islip pointers,
seeded random, networkx max-weight matching).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set, Tuple

import pytest

from repro.core.packet import Chunk, EdgeAssignment, FixedLinkAssignment, Packet
from repro.scenarios import Scenario, TopologySpec, WorkloadSpec, get_scenario
from repro.simulation import EngineConfig, SimulationEngine, simulate
from repro.simulation.accumulators import compensated_total
from repro.simulation.engine import _WORK_EPSILON
from repro.utils.ordering import chunk_priority_key


# ---------------------------------------------------------------------- #
# the naive reference implementation
# ---------------------------------------------------------------------- #
class NaiveChunkPool:
    """A pending-chunk pool with no maintained indexes.

    Duck-types :class:`repro.core.queues.PendingChunkPool` but stores chunks
    in one flat list and answers every query by scanning (and re-sorting)
    it.  Horribly slow — which is the point: any divergence between this and
    the production pool's binary-search-maintained indexes is a bug in the
    fast structure, not in the test.
    """

    def __init__(self) -> None:
        self._chunks: List[Chunk] = []

    # mutation ---------------------------------------------------------- #
    def add(self, chunk: Chunk) -> None:
        assert chunk not in self._chunks
        self._chunks.append(chunk)

    def add_all(self, chunks: Iterable[Chunk]) -> None:
        for chunk in chunks:
            self.add(chunk)

    def remove(self, chunk: Chunk) -> None:
        self._chunks.remove(chunk)

    def debit_work(self, amount: float) -> None:
        pass  # total_pending_work() recomputes from scratch

    # queries ----------------------------------------------------------- #
    def __len__(self) -> int:
        return len(self._chunks)

    def __contains__(self, chunk: Chunk) -> bool:
        return chunk in self._chunks

    def __iter__(self):
        return iter(list(self._chunks))

    def is_empty(self) -> bool:
        return not self._chunks

    def total_pending_work(self) -> float:
        return sum(c.remaining_work for c in self._chunks)

    def _sorted(self, predicate) -> List[Chunk]:
        return sorted((c for c in self._chunks if predicate(c)), key=chunk_priority_key)

    def chunks_on_edge(self, transmitter: str, receiver: str) -> List[Chunk]:
        return self._sorted(lambda c: c.edge == (transmitter, receiver))

    def chunks_at_transmitter(self, transmitter: str) -> List[Chunk]:
        return self._sorted(lambda c: c.transmitter == transmitter)

    def chunks_at_receiver(self, receiver: str) -> List[Chunk]:
        return self._sorted(lambda c: c.receiver == receiver)

    def adjacent_chunks(self, transmitter: str, receiver: str) -> List[Chunk]:
        return self._sorted(
            lambda c: c.transmitter == transmitter or c.receiver == receiver
        )

    def eligible_chunks(self, now: int) -> List[Chunk]:
        return self._sorted(lambda c: c.eligible_time <= now)

    def busy_transmitters(self) -> Set[str]:
        return {c.transmitter for c in self._chunks}

    def busy_receivers(self) -> Set[str]:
        return {c.receiver for c in self._chunks}

    def total_weight(self) -> float:
        return sum(c.weight for c in self._chunks)

    def weight_at_transmitter(self, transmitter: str) -> float:
        return sum(c.weight for c in self._chunks if c.transmitter == transmitter)

    def weight_at_receiver(self, receiver: str) -> float:
        return sum(c.weight for c in self._chunks if c.receiver == receiver)


def naive_simulate(topology, policy, packets: List[Packet], speed: float = 1.0,
                   slot_limit: int = 100_000) -> Dict[str, float]:
    """Slot-by-slot reference simulation; returns a ``summary()``-shaped dict.

    Replicates the engine's cost model operation-for-operation (same float
    expressions in the same order) but shares none of its machinery: no
    arrival sources, no recorders, no slot skipping, no indexed pool.
    """
    policy.reset()
    pool = NaiveChunkPool()
    by_slot: Dict[int, List[Packet]] = {}
    for packet in packets:
        by_slot.setdefault(packet.arrival, []).append(packet)
    remaining_slots = sorted(by_slot)

    # per-packet state, in dispatch order
    latencies: List[float] = []          # accumulated weighted latency per packet
    fixed_flags: List[bool] = []
    undelivered: Dict[int, int] = {}     # packet id -> chunks still in flight
    index_of: Dict[int, int] = {}        # packet id -> dispatch index
    matching_sizes: List[int] = []

    if not packets:
        return {
            "num_packets": 0.0,
            "total_weighted_latency": 0.0,
            "mean_weighted_latency": 0.0,
            "num_slots": 0.0,
            "fixed_link_fraction": 0.0,
            "mean_matching_size": 0.0,
        }

    slot = remaining_slots[0]
    first_slot = slot
    last_slot = slot
    steps = 0
    while remaining_slots or len(pool) > 0:
        steps += 1
        assert steps <= slot_limit, "naive reference exceeded its slot limit"

        # dispatch this slot's arrivals in input order
        if remaining_slots and remaining_slots[0] == slot:
            for packet in by_slot[remaining_slots.pop(0)]:
                assignment = policy.dispatcher.dispatch(packet, topology, pool, slot)
                index_of[packet.packet_id] = len(latencies)
                if isinstance(assignment, FixedLinkAssignment):
                    latencies.append(assignment.weighted_latency)
                    fixed_flags.append(True)
                else:
                    assert isinstance(assignment, EdgeAssignment)
                    latencies.append(0.0)
                    fixed_flags.append(False)
                    undelivered[packet.packet_id] = len(assignment.chunks)
                    pool.add_all(assignment.chunks)

        # select and transmit one matching, mirroring the engine's cost model
        matching = policy.scheduler.select_matching(pool, topology, slot)
        matching_sizes.append(len(matching))
        for head in matching:
            budget = speed
            queue = [head] + [
                c
                for c in pool.chunks_on_edge(*head.edge)
                if c is not head and c.eligible_time <= slot
            ]
            for chunk in queue:
                if budget <= _WORK_EPSILON:
                    break
                amount = min(budget, chunk.remaining_work)
                if amount <= 0:
                    continue
                budget -= amount
                chunk.remaining_work -= amount
                completed = chunk.remaining_work <= _WORK_EPSILON
                if completed:
                    chunk.remaining_work = 0.0
                    chunk.delivery_time = slot + 1 + chunk.tail_delay
                    pool.remove(chunk)
                packet = chunk.packet
                fraction = amount * chunk.size
                delivery_time = slot + 1 + chunk.tail_delay
                latencies[index_of[packet.packet_id]] += (
                    fraction * packet.weight * (delivery_time - packet.arrival)
                )
                if completed:
                    undelivered[packet.packet_id] -= 1
                    if undelivered[packet.packet_id] == 0:
                        del undelivered[packet.packet_id]
        last_slot = slot
        slot += 1

    assert not undelivered, "naive reference left packets undelivered"
    n = len(latencies)
    total = compensated_total(latencies)
    return {
        "num_packets": float(n),
        "total_weighted_latency": total,
        "mean_weighted_latency": total / n,
        "num_slots": float(last_slot - first_slot + 1),
        "fixed_link_fraction": sum(fixed_flags) / n,
        "mean_matching_size": sum(matching_sizes) / len(matching_sizes),
    }


# ---------------------------------------------------------------------- #
# the differential scenarios
# ---------------------------------------------------------------------- #
def _differential_scenarios() -> List[Tuple[Scenario, int]]:
    """Registry smoke cells plus extra seeded-random shapes defined inline."""
    cells: List[Tuple[Scenario, int]] = []
    for name in ("figure1", "tiny-random", "priority-inversion-burst"):
        scenario = get_scenario(name)
        for seed in scenario.seeds:
            cells.append((scenario, seed))
    # An ad-hoc cell with every stateful policy on skewed hybrid traffic.
    cells.append((
        Scenario(
            name="diff-zipf-hybrid",
            description="differential-only: zipf on a hybrid projector fabric",
            topology=TopologySpec(
                "projector",
                {"num_racks": 4, "lasers_per_rack": 2, "photodetectors_per_rack": 2},
                fixed_link_delay=3,
            ),
            workload=WorkloadSpec(
                "zipf", {"num_packets": 40, "exponent": 1.2, "arrival_rate": 2.0},
                weights=("pareto", 1.5),
            ),
            policies=("alg", "random", "maxweight", "islip", "direct-first",
                      "impact+fifo"),
        ),
        7,
    ))
    # Heterogeneous delays: multi-chunk packets exercise fractional work.
    cells.append((
        Scenario(
            name="diff-delays",
            description="differential-only: heterogeneous edge delays, speed tested at 1.7",
            topology=TopologySpec(
                "random-bipartite",
                {"num_sources": 3, "num_destinations": 3,
                 "transmitters_per_source": 2, "receivers_per_destination": 2,
                 "edge_probability": 0.7, "delay_choices": (1, 2, 4)},
            ),
            workload=WorkloadSpec(
                "uniform", {"num_packets": 30, "arrival_rate": 1.5},
                weights=("uniform", 1, 10),
            ),
            policies=("alg", "fifo", "least-loaded+stable", "impact+fifo"),
            speed=1.7,
        ),
        11,
    ))
    # Head-of-line delays: chunks enter the pool before they are eligible,
    # exercising the activation buckets and the jump-to-next-activation slot
    # skipping against the naive slot-by-slot walk.
    cells.append((
        Scenario(
            name="diff-head-delays",
            description="differential-only: head/tail delays delay chunk eligibility",
            topology=TopologySpec(
                "projector",
                {"num_racks": 4, "lasers_per_rack": 2, "photodetectors_per_rack": 2,
                 "head_delay": 2, "tail_delay": 1},
                fixed_link_delay=9,
            ),
            workload=WorkloadSpec(
                "uniform", {"num_packets": 30, "arrival_rate": 0.8},
                weights=("uniform", 1, 8),
            ),
            policies=("alg", "fifo", "islip", "impact+fifo"),
            speed=1.3,
        ),
        5,
    ))
    return cells


_CELLS = _differential_scenarios()
_CELL_IDS = [f"{scenario.name}-s{seed}" for scenario, seed in _CELLS]


@pytest.mark.parametrize("scenario,seed", _CELLS, ids=_CELL_IDS)
def test_naive_vs_fast_vs_run_multi(scenario: Scenario, seed: int) -> None:
    """All evaluation paths agree bit-for-bit on every summary number.

    The naive loop (which uses the reference adjacency scan by construction —
    its pool maintains no impact index) anchors the comparison; the
    production paths are exercised under the ``indexed`` and ``reference``
    backends, and ``run_multi`` additionally under
    shared-dispatch lanes with the cross-lane invariant check enabled and
    under the PR 3 per-lane dispatch (sharing off).  Several cells pair
    ``alg`` with ``impact+fifo`` — two policies sharing the impact rule — so
    the memo genuinely activates, including at speed 1.7 (``diff-delays``).
    """
    topology, stream, policies = scenario.materialise(seed)
    packets = list(stream)

    # Path 1: the naive reference loop (fresh policy state per run).
    naive = {
        name: naive_simulate(topology, policy, packets, speed=scenario.speed)
        for name, policy in policies.items()
    }

    for engine_mode in ("indexed", "reference"):
        # Path 2: the production fast path, one policy at a time.
        fast = {
            name: simulate(
                topology, policy, packets, speed=scenario.speed, engine=engine_mode
            ).summary()
            for name, policy in policies.items()
        }

        # Path 3: shared-stream multi-policy passes — shared-dispatch lanes
        # with hit validation, the PR 3 per-lane dispatch, and aggregate
        # retention with sharing.
        multi_variants: Dict[str, Dict[str, Dict[str, float]]] = {}
        for label, config in {
            "run_multi(shared dispatch, validated)": EngineConfig(
                speed=scenario.speed, engine=engine_mode,
                validate_shared_dispatch=True,
            ),
            "run_multi(per-lane dispatch)": EngineConfig(
                speed=scenario.speed, engine=engine_mode, share_dispatch=False
            ),
            "run_multi(aggregate, shared dispatch)": EngineConfig(
                speed=scenario.speed, engine=engine_mode, retention="aggregate"
            ),
        }.items():
            engine = SimulationEngine(topology, config=config)
            multi_variants[label] = {
                name: result.summary()
                for name, result in engine.run_multi(iter(packets), policies).items()
            }

        for name in policies:
            assert naive[name] == fast[name], (
                f"{scenario.name}/{name} [{engine_mode}]: naive reference vs "
                f"fast path diverged\nnaive: {naive[name]}\nfast:  {fast[name]}"
            )
            for label, multi in multi_variants.items():
                assert fast[name] == multi[name], (
                    f"{scenario.name}/{name} [{engine_mode}]: fast path vs "
                    f"{label} diverged"
                )


@pytest.mark.parametrize("scenario,seed", _CELLS, ids=_CELL_IDS)
def test_engine_modes_trace_bit_identical(scenario: Scenario, seed: int) -> None:
    """Both engine backends agree slot-by-slot, not just in summary.

    Every policy of every differential cell is replayed under both engine
    modes with full tracing; the per-slot traces must be equal
    object-for-object.  In particular each slot's ``matching`` lists edges in
    the scheduler's selection order and each transmission names its chunk by
    ``(packet_id, chunk_index)``, so this pins the incremental
    matching-repair path to the reference greedy pass chunk-for-chunk *and*
    order-for-order.
    """
    topology, stream, policies = scenario.materialise(seed)
    packets = list(stream)
    for name, policy in policies.items():
        traces = {
            engine_mode: simulate(
                topology, policy, packets, speed=scenario.speed,
                record_trace=True, engine=engine_mode,
            ).trace.slots
            for engine_mode in ("indexed", "reference")
        }
        assert traces["indexed"] == traces["reference"], (
            f"{scenario.name}/{name}: per-slot traces diverged between "
            "the indexed and reference engines"
        )


def test_naive_pool_is_really_naive() -> None:
    """Guard: the reference pool must not share the production pool's code."""
    from repro.core.queues import PendingChunkPool

    assert not issubclass(NaiveChunkPool, PendingChunkPool)
    assert not hasattr(NaiveChunkPool, "_by_edge")


@pytest.mark.parametrize("scenario,seed", _CELLS, ids=_CELL_IDS)
def test_observability_never_perturbs_results(
    scenario: Scenario, seed: int, tmp_path
) -> None:
    """Instrumented runs are bit-identical to plain runs, per slot.

    Every differential cell is replayed under every engine backend twice —
    once plain, once with a live metrics registry, phase-span sampling
    (stride 2, so both the sampled and unsampled slot paths execute) and a
    metrics-snapshot file.  Summaries AND full slot traces must be equal:
    the observability layer only records, it never participates in the
    arithmetic or the ordering.
    """
    from repro.obs import MetricsRegistry

    topology, stream, policies = scenario.materialise(seed)
    packets = list(stream)
    for name, policy in policies.items():
        for engine_mode in ("indexed", "reference"):
            plain = simulate(
                topology, policy, packets, speed=scenario.speed,
                engine=engine_mode, record_trace=True,
            )
            registry = MetricsRegistry()
            observed = simulate(
                topology, policy, packets, speed=scenario.speed,
                engine=engine_mode, record_trace=True,
                obs=registry, span_stride=2,
                metrics_path=str(tmp_path / f"{name}-{engine_mode}.jsonl"),
            )
            assert observed.summary() == plain.summary(), (
                f"{scenario.name}/{name} [{engine_mode}]: observability "
                f"changed the summary"
            )
            assert observed.trace.slots == plain.trace.slots, (
                f"{scenario.name}/{name} [{engine_mode}]: observability "
                f"changed the slot trace"
            )
            counters = registry.snapshot()["counters"]
            arrived = [
                value for key, value in counters.items()
                if key.startswith("engine_packets_arrived{")
            ]
            assert arrived == [len(packets)]


# ---------------------------------------------------------------------- #
# fault injection: both engine backends must degrade identically
# ---------------------------------------------------------------------- #
# Only hybrid cells (uniform fixed links) are fault-safe under *arbitrary*
# schedules: even if every reconfigurable edge of a pair goes dark, the
# dispatcher still has a fixed-link route, so no schedule can make a packet
# unroutable.
_FAULT_CELLS = [
    (scenario, seed)
    for scenario, seed in _CELLS
    if scenario.topology.fixed_link_delay is not None
]
_FAULT_CELL_IDS = [f"{scenario.name}-s{seed}" for scenario, seed in _FAULT_CELLS]


def _fault_schedule_for(topology, seed: int):
    """A deterministic generated schedule plus handcrafted degrade events."""
    from repro.faults import FaultEvent, FaultSchedule, seeded_fault_schedule

    generated = seeded_fault_schedule(
        topology, seed=seed * 31 + 7, num_faults=4, horizon=48
    )
    # Always exercise the degraded-rate transmission path too: degrade the
    # first two reconfigurable edges for a window mid-run.
    edges = sorted(topology.reconfigurable_edges)[:2]
    extra = []
    for offset, edge in enumerate(edges):
        extra.append(FaultEvent(slot=2 + offset, action="degrade",
                                kind="edge", target=edge, rate=0.5))
        extra.append(FaultEvent(slot=20 + offset, action="recover",
                                kind="edge", target=edge))
    return FaultSchedule.from_events(list(generated.events) + extra)


@pytest.mark.parametrize("on_fail", ("requeue", "drop", "redispatch"))
@pytest.mark.parametrize("scenario,seed", _FAULT_CELLS, ids=_FAULT_CELL_IDS)
def test_engines_bit_identical_under_faults(
    scenario: Scenario, seed: int, on_fail: str
) -> None:
    """Fault schedules degrade both backends identically, slot for slot.

    Each fault-safe differential cell is replayed under a schedule mixing
    generated fail/recover events with handcrafted degraded-rate windows,
    for every stranded-chunk policy.  The indexed and reference engines —
    and both retentions — must agree on every summary number, and
    the full-retention runs must also produce bit-identical slot traces.
    """
    topology, stream, policies = scenario.materialise(seed)
    packets = list(stream)
    faults = _fault_schedule_for(topology, seed)
    for name, policy in policies.items():
        summaries: Dict[str, Dict[str, float]] = {}
        traces: Dict[str, list] = {}
        for engine_mode in ("indexed", "reference"):
            for retention in ("full", "aggregate"):
                result = simulate(
                    topology, policy, packets, speed=scenario.speed,
                    engine=engine_mode, retention=retention,
                    record_trace=(retention == "full"),
                    faults=faults, on_fail=on_fail,
                )
                summaries[f"{engine_mode}/{retention}"] = result.summary()
                if retention == "full":
                    traces[engine_mode] = result.trace.slots
        baseline = summaries["indexed/full"]
        for label, summary in summaries.items():
            assert summary == baseline, (
                f"{scenario.name}/{name} [{label}, on_fail={on_fail}]: "
                f"summary diverged under faults\nindexed/full: {baseline}\n"
                f"{label}: {summary}"
            )
        assert traces["reference"] == traces["indexed"], (
            f"{scenario.name}/{name} [on_fail={on_fail}]: "
            "slot traces diverged under faults"
        )


@pytest.mark.parametrize("scenario,seed", _FAULT_CELLS, ids=_FAULT_CELL_IDS)
def test_run_multi_matches_simulate_under_faults(
    scenario: Scenario, seed: int
) -> None:
    """Shared-dispatch lanes stay sound when the fabric degrades.

    The shared-dispatch memo assumes every lane sees the same fault state at
    every slot; validation mode re-dispatches each memo hit against the
    lane's own (fault-masked) topology view and raises on any divergence.
    """
    from repro.simulation import simulate_multi

    topology, stream, policies = scenario.materialise(seed)
    packets = list(stream)
    faults = _fault_schedule_for(topology, seed)
    solo = {
        name: simulate(
            topology, policy, packets, speed=scenario.speed,
            faults=faults, on_fail="requeue",
        ).summary()
        for name, policy in policies.items()
    }
    for engine_mode in ("indexed", "reference"):
        engine = SimulationEngine(
            topology,
            config=EngineConfig(
                speed=scenario.speed, engine=engine_mode,
                faults=faults, on_fail="requeue",
                validate_shared_dispatch=True,
            ),
        )
        multi = engine.run_multi(iter(packets), policies)
        for name in policies:
            assert multi[name].summary() == solo[name], (
                f"{scenario.name}/{name} [{engine_mode}]: run_multi diverged "
                f"from simulate under faults"
            )
