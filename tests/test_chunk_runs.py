"""The transmission step across and inside chunk runs, audited every slot.

A packet dispatched to edge ``e`` becomes a *run* of ``d(e)`` chunks that
the pool keeps together.  These tests drive the engine through every case
where one slot's service crosses a run boundary or stops inside a run:

* speed 1.5 and 2.5, where the budget left after the head spills into the
  rest of its run and on into the next run of the same edge;
* a degraded edge, whose rate leaves a run's head partly served;
* a laser, photodetector or edge failing in the middle of a run, under each
  of ``requeue``, ``drop`` and ``redispatch``, followed by recovery.

Each run is compared between the ``indexed`` and ``reference`` engines, and
every slot audits the pool's counters and views against a per-chunk recount
of the chunks it holds.
"""

from __future__ import annotations

import dataclasses
import math
import random

import pytest

from repro.core.dispatcher import ImpactDispatcher
from repro.core.interfaces import Policy
from repro.core.packet import Packet
from repro.core.scheduler import StableMatchingScheduler
from repro.core.stable_matching import greedy_stable_matching
from repro.faults import FaultEvent, FaultSchedule
from repro.network.topology import TwoTierTopology
from repro.simulation import ENGINE_MODES, simulate
from repro.utils.ordering import chunk_priority_key

#: Query weights for the impact-index audit: below, between and above the
#: chunk weights the packets below produce.
_QUERY_WEIGHTS = (0.1, 0.5, 1.0, 1.5, 3.0, 9.0)


def _topology() -> TwoTierTopology:
    """Two sources and two destinations; every edge splits packets into 2–4 chunks.

    Every pair has at least two edges, through different lasers and
    photodetectors, so a redispatch always finds a live alternative while
    one laser, photodetector or edge is down.
    """
    topo = TwoTierTopology(name="chunk-runs")
    for name in ("s0", "s1"):
        topo.add_source(name)
    for name in ("d0", "d1"):
        topo.add_destination(name)
    topo.add_transmitter("t0", "s0")
    topo.add_transmitter("t1", "s0", head_delay=1)
    topo.add_transmitter("t2", "s1")
    topo.add_receiver("r0", "d0")
    topo.add_receiver("r1", "d1", tail_delay=1)
    topo.add_receiver("r2", "d0")
    for (tx, rx), delay in {
        ("t0", "r0"): 4, ("t0", "r1"): 4, ("t1", "r0"): 3, ("t1", "r1"): 2, ("t1", "r2"): 3,
        ("t2", "r0"): 4, ("t2", "r1"): 3, ("t2", "r2"): 4,
    }.items():
        topo.add_reconfigurable_edge(tx, rx, delay=delay)
    return topo.freeze()


def _packets(seed: int, count: int = 36) -> list:
    """A burst from a few heavy packets plus a seeded background stream."""
    rng = random.Random(seed)
    packets = [
        Packet(0, "s0", "d0", weight=8.0, arrival=1),
        Packet(1, "s0", "d0", weight=6.0, arrival=1),
        Packet(2, "s1", "d1", weight=7.0, arrival=1),
    ]
    for pid in range(3, count):
        packets.append(Packet(
            pid,
            rng.choice(("s0", "s0", "s1")),
            rng.choice(("d0", "d1")),
            weight=rng.choice((1.0, 2.0, 2.0, 5.0)),
            arrival=rng.randrange(1, 9),
        ))
    return packets


def _audit(pool, now: int) -> None:
    """Check the pool's counters and views against a per-chunk recount."""
    chunks = sorted(pool, key=chunk_priority_key)
    assert len(pool) == len(chunks) == len(set(chunks))
    assert all(chunk in pool and chunk.pending for chunk in chunks)
    assert pool.is_empty() == (not chunks)
    assert math.isclose(
        pool.total_pending_work(), sum(c.remaining_work for c in chunks), abs_tol=1e-9
    )
    assert pool.impact_fingerprint == sum(
        hash((c.transmitter, c.receiver, c.weight)) for c in chunks
    )
    transmitters = {c.transmitter for c in chunks}
    receivers = {c.receiver for c in chunks}
    assert pool.busy_transmitters() == transmitters
    assert pool.busy_receivers() == receivers
    for tx in ("t0", "t1", "t2"):
        at_tx = [c for c in chunks if c.transmitter == tx]
        assert pool.chunks_at_transmitter(tx) == at_tx
        assert pool.weight_at_transmitter(tx) == sum(c.weight for c in at_tx)
        for rx in ("r0", "r1", "r2"):
            assert pool.chunks_on_edge(tx, rx) == [c for c in at_tx if c.receiver == rx]
            assert pool.adjacent_chunks(tx, rx) == [
                c for c in chunks if c.transmitter == tx or c.receiver == rx
            ]
    for rx in ("r0", "r1", "r2"):
        at_rx = [c for c in chunks if c.receiver == rx]
        assert pool.chunks_at_receiver(rx) == at_rx
        assert pool.weight_at_receiver(rx) == sum(c.weight for c in at_rx)
    eligible = [c for c in chunks if c.eligible_time <= now]
    assert pool.has_eligible(now) == bool(eligible)
    assert pool.eligible_chunks(now) == eligible
    assert list(pool.iter_eligible(now)) == eligible
    fifo = sorted(eligible, key=lambda c: (c.packet.arrival, c.packet.packet_id, c.index))
    assert list(pool.iter_eligible_fifo(now)) == fifo
    assert pool.occupancy()["pending_chunks"] == len(chunks)
    assert pool.occupancy()["eligible_chunks"] == len(eligible)
    assert pool.occupancy()["future_chunks"] == len(chunks) - len(eligible)
    future = [c.eligible_time for c in chunks if c.eligible_time > now]
    assert pool.next_activation_time() == (min(future) if future else None)
    index = pool.impact_index
    if index is not None:
        for tx in ("t0", "t1", "t2"):
            for rx in ("r0", "r1", "r2"):
                adjacent = [c for c in chunks if c.transmitter == tx or c.receiver == rx]
                for weight in _QUERY_WEIGHTS:
                    lighter = [c.weight for c in adjacent if c.weight < weight]
                    assert index.query(tx, rx, weight) == (
                        len(adjacent) - len(lighter),
                        len(lighter),
                        math.fsum(lighter) if lighter else 0.0,
                    )
    matching = pool.matching_index
    if matching is not None:
        # The index's port lists hold exactly the pool's eligible entries,
        # compared by identity, each once per side and in key order.
        runs = {id(run): run for run in pool._eligible_set}
        for lists, port in ((matching._tx_runs, "transmitter"), (matching._rx_runs, "receiver")):
            listed = [run for entries in lists.values() for run in entries]
            assert len(listed) == len({id(run) for run in listed}) == len(runs)
            assert all(runs.get(id(run)) is run for run in listed)
            for name, entries in lists.items():
                assert all(getattr(run, port) == name for run in entries)
                assert [run.key for run in entries] == sorted(run.key for run in entries)
        assert matching.current_matching() == greedy_stable_matching(eligible)


class _AuditedScheduler(StableMatchingScheduler):
    """ALG's scheduler, auditing the pool before each slot's matching."""

    def __init__(self) -> None:
        super().__init__()
        self.audits = 0

    def select_matching(self, pool, topology, now):
        _audit(pool, now)
        self.audits += 1
        return super().select_matching(pool, topology, now)


def _run(engine: str, packets, **config):
    scheduler = _AuditedScheduler()
    policy = Policy("alg-audited", ImpactDispatcher(), scheduler)
    result = simulate(_topology(), policy, packets, engine=engine, record_trace=True, **config)
    assert scheduler.audits > 0
    return result


def _fingerprint(result):
    """Per-chunk outcomes and the full slot trace, as a comparable value."""
    records = {
        pid: tuple(
            (c.edge, c.remaining_work, c.completed_slot, c.delivery_time) for c in rec.chunks
        )
        for pid, rec in result.records.items()
    }
    trace = [
        (
            slot.slot,
            [dataclasses.astuple(e) for e in slot.dispatches],
            list(slot.matching),
            [dataclasses.astuple(e) for e in slot.transmissions],
        )
        for slot in result.trace.slots
    ]
    return result.first_slot, result.last_slot, tuple(result.matching_sizes), records, trace


def _both_engines(packets, **config):
    """Run both engines, assert them bit-identical, return the indexed result."""
    runs = {engine: _run(engine, packets, **config) for engine in ENGINE_MODES}
    assert _fingerprint(runs["indexed"]) == _fingerprint(runs["reference"])
    return runs["indexed"]


def _packets_served_per_edge_slot(result):
    """For each (slot, edge) with a transmission, the packet ids served, in order."""
    served = {}
    for slot in result.trace.slots:
        for event in slot.transmissions:
            served.setdefault((slot.slot, event.edge), []).append(event.packet_id)
    return served


@pytest.mark.parametrize("speed", [1.5, 2.5])
@pytest.mark.parametrize("seed", range(3))
def test_spill_crosses_into_the_next_run(speed: float, seed: int) -> None:
    result = _both_engines(_packets(seed), speed=speed)
    assert result.all_delivered
    served = _packets_served_per_edge_slot(result)
    # The leftover budget reached a second chunk of the head's own run, and
    # somewhere it crossed the run's end into another packet's run.
    assert any(len(pids) > len(set(pids)) for pids in served.values())
    assert any(len(set(pids)) > 1 for pids in served.values())


@pytest.mark.parametrize("rate", [0.4, 0.75])
def test_degraded_rate_leaves_a_head_partly_served(rate: float) -> None:
    faults = FaultSchedule.from_events([
        FaultEvent(slot=2, action="degrade", kind="edge", target=("t0", "r0"), rate=rate),
        FaultEvent(slot=9, action="recover", kind="edge", target=("t0", "r0")),
    ])
    result = _both_engines(_packets(5), faults=faults)
    assert result.all_delivered
    partial = [
        event
        for slot in result.trace.slots
        for event in slot.transmissions
        if not event.completed
    ]
    assert partial and all(event.edge == ("t0", "r0") for event in partial)


_MID_RUN_FAULTS = {"laser": "t0", "photodetector": "r0", "edge": ("t0", "r0")}


@pytest.mark.parametrize("on_fail", ["requeue", "drop", "redispatch"])
@pytest.mark.parametrize("kind", sorted(_MID_RUN_FAULTS))
def test_fault_in_the_middle_of_a_run(kind: str, on_fail: str) -> None:
    target = _MID_RUN_FAULTS[kind]
    # Packet 0 (weight 8) wins (t0, r0) from slot 1, so its four chunks are
    # served in slots 1-4: the fault at slot 3 strands the run's last two.
    faults = FaultSchedule.from_events([
        FaultEvent(slot=3, action="fail", kind=kind, target=target),
        FaultEvent(slot=7, action="recover", kind=kind, target=target),
    ])
    result = _both_engines(_packets(11), faults=faults, on_fail=on_fail)
    head = result.record(0)
    assert [c.completed_slot for c in head.chunks[:2]] == [1, 2]
    stranded = head.chunks[2:]
    if on_fail == "drop":
        assert all(c.completed_slot is None for c in stranded)
    else:
        assert all(c.completed_slot is not None and c.completed_slot >= 3 for c in stranded)
    if on_fail == "redispatch":
        assert all(c.edge != ("t0", "r0") for c in stranded)
    if on_fail == "requeue":
        assert all(c.edge == ("t0", "r0") for c in stranded)
        assert all(c.completed_slot >= 7 for c in stranded)
