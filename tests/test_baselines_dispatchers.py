"""Tests for repro.baselines.dispatchers."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import (
    DirectFirstDispatcher,
    LeastLoadedDispatcher,
    RandomDispatcher,
    ShortestPathDispatcher,
)
from repro.core import Packet
from repro.core.packet import EdgeAssignment, FixedLinkAssignment, split_into_chunks
from repro.core.queues import PendingChunkPool
from repro.exceptions import RoutingError
from repro.network import TwoTierTopology, figure1_topology, projector_fabric


def two_edge_topology(delays=(1, 3), fixed=None) -> TwoTierTopology:
    topo = TwoTierTopology()
    topo.add_source("s")
    topo.add_destination("d")
    topo.add_transmitter("ta", "s")
    topo.add_transmitter("tb", "s")
    topo.add_receiver("ra", "d")
    topo.add_receiver("rb", "d")
    topo.add_reconfigurable_edge("ta", "ra", delay=delays[0])
    topo.add_reconfigurable_edge("tb", "rb", delay=delays[1])
    if fixed is not None:
        topo.add_fixed_link("s", "d", delay=fixed)
    return topo.freeze()


class TestRandomDispatcher:
    def test_deterministic_after_reset(self):
        topo = two_edge_topology()
        dispatcher = RandomDispatcher(seed=3)
        picks1 = []
        for i in range(10):
            picks1.append(dispatcher.dispatch(Packet(i, "s", "d", 1.0, 1), topo, PendingChunkPool(), 1))
        dispatcher.reset()
        picks2 = []
        for i in range(10):
            picks2.append(dispatcher.dispatch(Packet(i, "s", "d", 1.0, 1), topo, PendingChunkPool(), 1))
        assert [getattr(a, "edge", "fixed") for a in picks1] == [
            getattr(a, "edge", "fixed") for a in picks2
        ]

    def test_uses_both_edges_eventually(self):
        topo = two_edge_topology()
        dispatcher = RandomDispatcher(seed=0)
        edges = {
            dispatcher.dispatch(Packet(i, "s", "d", 1.0, 1), topo, PendingChunkPool(), 1).edge
            for i in range(30)
        }
        assert edges == {("ta", "ra"), ("tb", "rb")}

    def test_fixed_link_is_a_candidate(self):
        topo = two_edge_topology(fixed=2)
        dispatcher = RandomDispatcher(seed=1)
        kinds = {
            dispatcher.dispatch(Packet(i, "s", "d", 1.0, 1), topo, PendingChunkPool(), 1).uses_fixed_link
            for i in range(50)
        }
        assert kinds == {True, False}

    def test_unroutable_raises(self):
        topo = figure1_topology()
        with pytest.raises(RoutingError):
            RandomDispatcher(seed=0).dispatch(Packet(0, "s1", "d3", 1.0, 1), topo, PendingChunkPool(), 1)

    def test_impact_recorded(self):
        topo = two_edge_topology()
        assignment = RandomDispatcher(seed=5).dispatch(
            Packet(0, "s", "d", 2.0, 1), topo, PendingChunkPool(), 1
        )
        assert assignment.impact > 0


class TestLeastLoadedDispatcher:
    def test_picks_unloaded_edge(self):
        topo = two_edge_topology(delays=(1, 1))
        dispatcher = LeastLoadedDispatcher()
        pool = PendingChunkPool()
        first = dispatcher.dispatch(Packet(0, "s", "d", 5.0, 1), topo, pool, 1)
        pool.add_all(first.chunks)
        second = dispatcher.dispatch(Packet(1, "s", "d", 1.0, 1), topo, pool, 1)
        assert first.edge != second.edge

    def test_tie_broken_by_path_delay(self):
        topo = two_edge_topology(delays=(3, 1))
        assignment = LeastLoadedDispatcher().dispatch(
            Packet(0, "s", "d", 1.0, 1), topo, PendingChunkPool(), 1
        )
        assert assignment.edge == ("tb", "rb")

    def test_fixed_only_when_no_edges(self):
        topo = TwoTierTopology()
        topo.add_source("s")
        topo.add_destination("d")
        topo.add_transmitter("t", "s")
        topo.add_receiver("r", "d")
        topo.add_fixed_link("s", "d", delay=2)
        topo.freeze()
        assignment = LeastLoadedDispatcher().dispatch(
            Packet(0, "s", "d", 1.0, 1), topo, PendingChunkPool(), 1
        )
        assert isinstance(assignment, FixedLinkAssignment)


def least_loaded_oracle(packet, topology, pool):
    """The original rule: ``min`` over (load, path delay, edge), loads read per key."""
    return min(
        topology.candidate_edges(packet.source, packet.destination),
        key=lambda edge: (
            pool.weight_at_transmitter(edge[0]) + pool.weight_at_receiver(edge[1]),
            topology.path_delay(*edge),
            edge,
        ),
    )


def multi_port_rack_pair(lasers, detectors, delays, head=None, tail=None):
    """Rack pair ``s -> d`` with several lasers and photodetectors, plus one
    outside laser ``u`` and photodetector ``v`` that load the pair's ports."""
    topo = TwoTierTopology()
    for node in ("s", "s2"):
        topo.add_source(node)
    for node in ("d", "d2"):
        topo.add_destination(node)
    for i in range(lasers):
        topo.add_transmitter(f"t{i}", "s", head_delay=head[i] if head else 0)
    for j in range(detectors):
        topo.add_receiver(f"r{j}", "d", tail_delay=tail[j] if tail else 0)
    topo.add_transmitter("u", "s2")
    topo.add_receiver("v", "d2")
    for i in range(lasers):
        for j in range(detectors):
            topo.add_reconfigurable_edge(f"t{i}", f"r{j}", delay=delays[i * detectors + j])
        topo.add_reconfigurable_edge(f"t{i}", "v", delay=1)
    for j in range(detectors):
        topo.add_reconfigurable_edge("u", f"r{j}", delay=1)
    return topo.freeze()


def load_pool(topology, loads):
    """A pool holding one packet of weight ``w`` per ``(edge, w)`` in ``loads``."""
    pool = PendingChunkPool()
    for pid, (edge, weight) in enumerate(loads):
        packet = Packet(pid, topology.source_of(edge[0]), topology.destination_of(edge[1]), weight, 1)
        pool.add_all(
            split_into_chunks(packet, edge[0], edge[1], edge_delay=topology.edge_delay(*edge))
        )
    return pool


class TestLeastLoadedParity:
    def test_load_tie_broken_by_path_delay(self):
        topo = multi_port_rack_pair(2, 2, delays=[3, 2, 4, 4])
        # t0 and t1 carry equal load; r0 and r1 carry none.
        pool = load_pool(topo, [(("t0", "v"), 2.0), (("t1", "v"), 2.0)])
        packet = Packet(99, "s", "d", 1.0, 1)
        chosen = LeastLoadedDispatcher().dispatch(packet, topo, pool, 1).edge
        assert chosen == least_loaded_oracle(packet, topo, pool) == ("t0", "r1")

    def test_load_and_delay_tie_broken_by_edge_name(self):
        topo = TwoTierTopology()
        topo.add_source("s")
        topo.add_destination("d")
        topo.add_transmitter("tb", "s")
        topo.add_transmitter("ta", "s")
        topo.add_receiver("r", "d")
        topo.add_reconfigurable_edge("tb", "r", delay=2)
        topo.add_reconfigurable_edge("ta", "r", delay=2)
        topo.freeze()
        assert topo.candidate_edges("s", "d")[0] == ("tb", "r")
        packet = Packet(0, "s", "d", 1.0, 1)
        pool = PendingChunkPool()
        chosen = LeastLoadedDispatcher().dispatch(packet, topo, pool, 1).edge
        assert chosen == least_loaded_oracle(packet, topo, pool) == ("ta", "r")

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_same_edge_as_the_min_key(self, data):
        lasers = data.draw(st.integers(1, 3))
        detectors = data.draw(st.integers(1, 3))
        delays = data.draw(st.lists(st.integers(1, 3), min_size=lasers * detectors,
                                    max_size=lasers * detectors))
        head = data.draw(st.lists(st.integers(0, 1), min_size=lasers, max_size=lasers))
        tail = data.draw(st.lists(st.integers(0, 1), min_size=detectors, max_size=detectors))
        topo = multi_port_rack_pair(lasers, detectors, delays, head, tail)
        edges = sorted(topo.reconfigurable_edges)
        loads = data.draw(st.lists(
            st.tuples(st.sampled_from(edges),
                      st.sampled_from([0.5, 1.0, 2.0]) | st.floats(0.1, 10.0)),
            max_size=12,
        ))
        pool = load_pool(topo, loads)
        dispatcher = LeastLoadedDispatcher()
        for pid in range(3):
            packet = Packet(100 + pid, "s", "d", 1.0, 1)
            expected = least_loaded_oracle(packet, topo, pool)
            assignment = dispatcher.dispatch(packet, topo, pool, 1)
            assert assignment.edge == expected
            pool.add_all(assignment.chunks)


class TestShortestPathDispatcher:
    def test_picks_smallest_delay_edge(self):
        topo = two_edge_topology(delays=(4, 2))
        assignment = ShortestPathDispatcher().dispatch(
            Packet(0, "s", "d", 1.0, 1), topo, PendingChunkPool(), 1
        )
        assert assignment.edge == ("tb", "rb")

    def test_fixed_link_when_strictly_faster(self):
        topo = two_edge_topology(delays=(4, 5), fixed=2)
        assignment = ShortestPathDispatcher().dispatch(
            Packet(0, "s", "d", 1.0, 1), topo, PendingChunkPool(), 1
        )
        assert isinstance(assignment, FixedLinkAssignment)

    def test_edge_preferred_on_tie(self):
        topo = two_edge_topology(delays=(2, 5), fixed=2)
        assignment = ShortestPathDispatcher().dispatch(
            Packet(0, "s", "d", 1.0, 1), topo, PendingChunkPool(), 1
        )
        assert isinstance(assignment, EdgeAssignment)

    def test_ignores_queue_state(self):
        topo = two_edge_topology(delays=(1, 2))
        dispatcher = ShortestPathDispatcher()
        pool = PendingChunkPool()
        first = dispatcher.dispatch(Packet(0, "s", "d", 5.0, 1), topo, pool, 1)
        pool.add_all(first.chunks)
        second = dispatcher.dispatch(Packet(1, "s", "d", 5.0, 1), topo, pool, 1)
        assert first.edge == second.edge == ("ta", "ra")


class TestDirectFirstDispatcher:
    def test_always_prefers_fixed(self):
        topo = two_edge_topology(delays=(1, 1), fixed=50)
        assignment = DirectFirstDispatcher().dispatch(
            Packet(0, "s", "d", 1.0, 1), topo, PendingChunkPool(), 1
        )
        assert isinstance(assignment, FixedLinkAssignment)
        assert assignment.impact == pytest.approx(50.0)

    def test_falls_back_to_impact_dispatch(self):
        topo = projector_fabric(num_racks=3, seed=0)
        assignment = DirectFirstDispatcher().dispatch(
            Packet(0, "rack0:src", "rack1:dst", 1.0, 1), topo, PendingChunkPool(), 1
        )
        assert isinstance(assignment, EdgeAssignment)


class TestDirectFirstImpactReuse:
    """The chosen edge's assignment reuses the impact the candidate loop computed."""

    @staticmethod
    def _chunk_fields(chunks):
        return [
            (c.key, c.size, c.weight, c.transmitter, c.receiver, c.eligible_time, c.tail_delay)
            for c in chunks
        ]

    @pytest.mark.parametrize("impact_index", [False, True])
    def test_one_impact_per_candidate_and_identical_assignment(self, monkeypatch, impact_index):
        from repro.baselines import dispatchers as module

        topo = projector_fabric(num_racks=3, seed=0)
        pool = PendingChunkPool(impact_index=impact_index)
        dispatcher = DirectFirstDispatcher()
        # Load the candidate edges so the impacts differ between them.
        for pid in range(12):
            loaded = dispatcher.dispatch(
                Packet(pid, "rack0:src", "rack1:dst", float(1 + pid % 4), 1), topo, pool, 1
            )
            pool.add_all(loaded.chunks)

        calls = []
        real = module.compute_edge_impact_auto

        def spy(packet, transmitter, receiver, topology, pool_):
            calls.append((transmitter, receiver))
            return real(packet, transmitter, receiver, topology, pool_)

        monkeypatch.setattr(module, "compute_edge_impact_auto", spy)
        packet = Packet(99, "rack0:src", "rack1:dst", 2.5, 2)
        assignment = dispatcher.dispatch(packet, topo, pool, 2)
        candidates = topo.candidate_edges("rack0:src", "rack1:dst")
        assert sorted(calls) == sorted(candidates)

        # The assignment the old code built by recomputing the impact.
        monkeypatch.setattr(module, "compute_edge_impact_auto", real)
        impacts = [real(packet, t, r, topo, pool) for t, r in candidates]
        best = min(impacts, key=lambda impact: (impact.total, impact.edge))
        expected = module._edge_assignment(packet, *best.edge, topo, pool)
        assert isinstance(assignment, EdgeAssignment)
        assert (assignment.transmitter, assignment.receiver) == best.edge
        assert assignment.edge_delay == expected.edge_delay
        assert assignment.impact == expected.impact
        assert self._chunk_fields(assignment.chunks) == self._chunk_fields(expected.chunks)
