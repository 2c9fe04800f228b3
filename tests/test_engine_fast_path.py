"""Regression tests for the engine's fast paths.

The slot-skipping fast path (``EngineConfig.slot_skipping``) jumps over empty
slots instead of walking them one by one.  These tests pin the contract that
the E11b benchmark relies on: the produced :class:`SimulationResult` —
records, per-slot aggregates and full event traces — is *bit-identical* to
the slot-by-slot walk on the paper's worked examples and on sparse synthetic
workloads.  They also pin the lazy edge-queue walk of the transmission step:
an edge's queue is copied only when budget is left after its head chunk.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.baselines import all_policies
from repro.core import OpportunisticLinkScheduler, Packet
from repro.core.queues import PendingChunkPool
from repro.exceptions import SimulationError
from repro.network import projector_fabric
from repro.simulation import ENGINE_MODES, EngineConfig, SimulationEngine, simulate
from repro.network import TwoTierTopology
from repro.workloads import (
    figure1_instance,
    figure2_instances,
    uniform_weights,
    zipf_workload,
)
from repro.workloads.adversarial import iter_saturated_pairs_workload


def _line_topology() -> TwoTierTopology:
    """One source, one destination, a single edge of delay 1."""
    topo = TwoTierTopology(name="line")
    topo.add_source("s")
    topo.add_destination("d")
    topo.add_transmitter("t", "s")
    topo.add_receiver("r", "d")
    topo.add_reconfigurable_edge("t", "r", delay=1)
    return topo.freeze()


def _packet(packet_id: int, arrival: int) -> Packet:
    return Packet(
        packet_id=packet_id, source="s", destination="d", weight=1.0, arrival=arrival
    )


def _fingerprint(result):
    """Every observable field of a SimulationResult, as a comparable value."""
    records = {
        pid: (
            rec.completion_time,
            rec.weighted_latency,
            rec.assignment.impact,
            rec.used_fixed_link,
            tuple(
                (c.remaining_work, c.completed_slot, c.delivery_time) for c in rec.chunks
            ),
        )
        for pid, rec in result.records.items()
    }
    trace = None
    if result.trace is not None:
        trace = [
            (
                slot.slot,
                list(slot.arrivals),
                [dataclasses.astuple(e) for e in slot.dispatches],
                list(slot.matching),
                [dataclasses.astuple(e) for e in slot.transmissions],
            )
            for slot in result.trace.slots
        ]
    return (
        result.first_slot,
        result.last_slot,
        tuple(result.matching_sizes),
        records,
        trace,
    )


def _run(topology, policy, packets, slot_skipping, record_trace=True):
    engine = SimulationEngine(
        topology,
        policy,
        EngineConfig(record_trace=record_trace, slot_skipping=slot_skipping),
    )
    return engine.run(packets)


class TestBitIdentityOnPaperInstances:
    def test_figure1(self):
        instance = figure1_instance()
        skip = _run(instance.topology, OpportunisticLinkScheduler(), instance.packets, True)
        walk = _run(instance.topology, OpportunisticLinkScheduler(), instance.packets, False)
        assert _fingerprint(skip) == _fingerprint(walk)

    @pytest.mark.parametrize("key", sorted(figure2_instances()))
    def test_figure2(self, key):
        instance = figure2_instances()[key]
        skip = _run(instance.topology, OpportunisticLinkScheduler(), instance.packets, True)
        walk = _run(instance.topology, OpportunisticLinkScheduler(), instance.packets, False)
        assert _fingerprint(skip) == _fingerprint(walk)


class TestBitIdentityOnSparseWorkloads:
    @pytest.fixture(scope="class")
    def sparse(self):
        topo = projector_fabric(
            num_racks=4, lasers_per_rack=2, photodetectors_per_rack=2, seed=9
        )
        packets = zipf_workload(
            topo, 60, exponent=1.2, weight_sampler=uniform_weights(1, 10),
            arrival_rate=0.05, seed=10,
        )
        return topo, packets

    def test_alg_bit_identical(self, sparse):
        topo, packets = sparse
        skip = _run(topo, OpportunisticLinkScheduler(), packets, True)
        walk = _run(topo, OpportunisticLinkScheduler(), packets, False)
        assert skip.all_delivered
        assert _fingerprint(skip) == _fingerprint(walk)

    @pytest.mark.parametrize("name", ["fifo", "random", "maxweight", "islip"])
    def test_baselines_bit_identical(self, sparse, name):
        topo, packets = sparse
        skip = _run(topo, all_policies(seed=3)[name], packets, True, record_trace=False)
        walk = _run(topo, all_policies(seed=3)[name], packets, False, record_trace=False)
        assert _fingerprint(skip) == _fingerprint(walk)

    def test_skipped_slots_keep_aggregates(self, sparse):
        """matching_sizes and the trace still cover every slot of the horizon."""
        topo, packets = sparse
        result = _run(topo, OpportunisticLinkScheduler(), packets, True)
        assert len(result.matching_sizes) == result.num_slots
        assert [s.slot for s in result.trace.slots] == list(
            range(result.first_slot, result.last_slot + 1)
        )


class TestSlotSkippingSemantics:
    def test_huge_gap_is_constant_work(self):
        """A million-slot arrival gap must not need a million iterations."""
        topo = _line_topology()
        packets = [_packet(0, arrival=1), _packet(1, arrival=100_000)]
        engine = SimulationEngine(
            topo, OpportunisticLinkScheduler(), EngineConfig(max_slots=1_000_000)
        )
        result = engine.run(packets)
        assert result.all_delivered
        assert len(result.matching_sizes) == result.num_slots

    def test_gap_still_counts_toward_max_slots(self):
        """Skipped slots consume slot budget exactly like walked slots."""
        topo = _line_topology()
        packets = [_packet(0, arrival=1), _packet(1, arrival=500)]
        for slot_skipping in (True, False):
            engine = SimulationEngine(
                topo,
                OpportunisticLinkScheduler(),
                EngineConfig(max_slots=100, slot_skipping=slot_skipping),
            )
            with pytest.raises(SimulationError, match="max_slots"):
                engine.run(packets)


class TestLazyEdgeWalk:
    """Transmission copies an edge queue only when budget spills past the head."""

    @pytest.fixture(scope="class")
    def saturated(self):
        """A small saturated-pairs cell: few hot edges with deep queues."""
        topo = projector_fabric(
            num_racks=8, lasers_per_rack=2, photodetectors_per_rack=2, delay=4, seed=17
        )
        packets = list(
            iter_saturated_pairs_workload(
                topo, num_packets=400, num_pairs=4, hot_fraction=0.95,
                arrival_rate=8.0, weight_sampler=uniform_weights(1, 10), seed=18,
            )
        )
        return topo, packets

    @staticmethod
    def _count_snapshots(monkeypatch):
        """Record every ``PendingChunkPool.chunks_on_edge`` call made from now on."""
        calls = []
        original = PendingChunkPool.chunks_on_edge

        def counted(self, transmitter, receiver):
            calls.append((transmitter, receiver))
            return original(self, transmitter, receiver)

        monkeypatch.setattr(PendingChunkPool, "chunks_on_edge", counted)
        return calls

    def test_unit_speed_never_copies_an_edge_queue(self, saturated, monkeypatch):
        topo, packets = saturated
        calls = self._count_snapshots(monkeypatch)
        result = simulate(topo, OpportunisticLinkScheduler(), packets, speed=1.0)
        assert result.all_delivered
        assert sum(result.matching_sizes) > 0
        assert calls == []

    def test_spill_walks_past_the_head_bit_identically(self, saturated, monkeypatch):
        topo, packets = saturated
        calls = self._count_snapshots(monkeypatch)
        runs = {
            engine: simulate(
                topo, OpportunisticLinkScheduler(), packets, speed=1.7,
                engine=engine, record_trace=True,
            )
            for engine in ENGINE_MODES
        }
        assert calls
        # Some edge served more than one chunk in a slot: the walk went on
        # past the head into the rest of the queue.
        assert any(
            len({event.edge for event in slot.transmissions}) < len(slot.transmissions)
            for slot in runs["indexed"].trace.slots
        )
        assert _fingerprint(runs["indexed"]) == _fingerprint(runs["reference"])
