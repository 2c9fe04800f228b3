"""Tests for repro.core.dispatcher (the worst-case-impact dispatcher)."""

from __future__ import annotations

import pytest

from repro.core import OpportunisticLinkScheduler
from repro.core.dispatcher import ImpactDispatcher, compute_edge_impact
from repro.core.packet import EdgeAssignment, FixedLinkAssignment, Packet
from repro.core.queues import PendingChunkPool
from repro.exceptions import RoutingError
from repro.network import (
    TwoTierTopology,
    add_uniform_fixed_links,
    figure1_topology,
    figure2_topology,
    projector_fabric,
)
from repro.simulation import simulate
from repro.workloads import uniform_random_workload, uniform_weights


def dispatch(topology, packet, pool=None, now=None):
    dispatcher = ImpactDispatcher()
    return dispatcher.dispatch(packet, topology, pool or PendingChunkPool(), now or packet.arrival)


class TestImpactFormula:
    def test_empty_pool_impact_is_self_latency(self, fig2_topology):
        p = Packet(0, "s1", "d1", weight=2.0, arrival=1)
        impact = compute_edge_impact(p, "t(s1)", "r(d1)", fig2_topology, PendingChunkPool())
        # d(e)=1, head=tail=0: self latency = w * (0 + 1 + 0) = 2.
        assert impact.total == pytest.approx(2.0)
        assert impact.num_heavier == 0 and impact.num_lighter == 0

    def test_heavier_pending_chunk_counted_in_H(self, fig2_topology):
        pool = PendingChunkPool()
        heavy = Packet(0, "s1", "d2", weight=5.0, arrival=1)
        heavy_assignment = dispatch(fig2_topology, heavy, pool)
        pool.add_all(heavy_assignment.chunks)
        p = Packet(1, "s1", "d1", weight=2.0, arrival=1)
        impact = compute_edge_impact(p, "t(s1)", "r(d1)", fig2_topology, pool)
        assert impact.num_heavier == 1
        assert impact.blocked_by_term == pytest.approx(2.0)
        assert impact.total == pytest.approx(2.0 + 2.0)

    def test_lighter_pending_chunk_counted_in_L(self, fig2_topology):
        pool = PendingChunkPool()
        light = Packet(0, "s1", "d2", weight=1.0, arrival=1)
        pool.add_all(dispatch(fig2_topology, light, pool).chunks)
        p = Packet(1, "s1", "d1", weight=4.0, arrival=1)
        impact = compute_edge_impact(p, "t(s1)", "r(d1)", fig2_topology, pool)
        assert impact.num_lighter == 1
        assert impact.blocks_term == pytest.approx(1.0)  # d(e)=1 times weight 1

    def test_equal_weight_counts_as_heavier(self, fig2_topology):
        pool = PendingChunkPool()
        first = Packet(0, "s1", "d2", weight=2.0, arrival=1)
        pool.add_all(dispatch(fig2_topology, first, pool).chunks)
        p = Packet(1, "s1", "d1", weight=2.0, arrival=1)
        impact = compute_edge_impact(p, "t(s1)", "r(d1)", fig2_topology, pool)
        assert impact.num_heavier == 1 and impact.num_lighter == 0

    def test_delay_affects_self_latency_and_chunk_weight(self):
        topo = TwoTierTopology()
        topo.add_source("s")
        topo.add_destination("d")
        topo.add_transmitter("t", "s", head_delay=2)
        topo.add_receiver("r", "d", tail_delay=3)
        topo.add_reconfigurable_edge("t", "r", delay=4)
        topo.freeze()
        p = Packet(0, "s", "d", weight=8.0, arrival=1)
        impact = compute_edge_impact(p, "t", "r", topo, PendingChunkPool())
        # self latency = w * (head + (d+1)/2 + tail) = 8 * (2 + 2.5 + 3) = 60.
        assert impact.self_latency == pytest.approx(60.0)
        assert impact.total == pytest.approx(60.0)

    def test_non_adjacent_chunks_ignored(self, fig2_topology):
        pool = PendingChunkPool()
        other = Packet(0, "s2", "d3", weight=9.0, arrival=1)
        pool.add_all(dispatch(fig2_topology, other, pool).chunks)
        p = Packet(1, "s1", "d1", weight=1.0, arrival=1)
        impact = compute_edge_impact(p, "t(s1)", "r(d1)", fig2_topology, pool)
        assert impact.num_heavier == 0 and impact.num_lighter == 0


class TestDispatchDecisions:
    def test_unique_candidate_edge_chosen(self, fig2_topology):
        p = Packet(0, "s1", "d1", weight=1.0, arrival=1)
        assignment = dispatch(fig2_topology, p)
        assert isinstance(assignment, EdgeAssignment)
        assert assignment.edge == ("t(s1)", "r(d1)")
        assert len(assignment.chunks) == 1

    def test_minimum_impact_edge_chosen(self, fig1_topology):
        # From Figure 1 slot 1: after p1 and p2 are queued at t1, packet p3
        # (s2 -> d2) has the uncontended (t3, r3) as its only candidate.
        pool = PendingChunkPool()
        p1 = Packet(0, "s1", "d1", weight=1.0, arrival=1)
        pool.add_all(dispatch(fig1_topology, p1, pool).chunks)
        p3 = Packet(2, "s2", "d2", weight=1.0, arrival=1)
        assignment = dispatch(fig1_topology, p3, pool)
        assert assignment.edge == ("t3", "r3")
        assert assignment.impact == pytest.approx(1.0)

    def test_fixed_link_chosen_when_cheaper(self, fig1_topology):
        pool = PendingChunkPool()
        # Queue three heavy packets on (t3, r4)'s transmitter to make the
        # reconfigurable impact exceed the fixed-link latency of 4.
        for i in range(4):
            heavy = Packet(i, "s2", "d2", weight=10.0, arrival=1)
            pool.add_all(dispatch(fig1_topology, heavy, pool).chunks)
        p = Packet(9, "s2", "d3", weight=1.0, arrival=1)
        assignment = dispatch(fig1_topology, p, pool)
        assert isinstance(assignment, FixedLinkAssignment)
        assert assignment.impact == pytest.approx(4.0)

    def test_reconfigurable_preferred_when_cheaper_than_fixed(self, fig1_topology):
        p = Packet(0, "s2", "d3", weight=1.0, arrival=1)
        assignment = dispatch(fig1_topology, p)
        assert isinstance(assignment, EdgeAssignment)
        assert assignment.edge == ("t3", "r4")

    def test_tie_prefers_fixed_link(self):
        # Fixed-link latency equal to the best reconfigurable impact: the
        # paper uses "<=", so the fixed link wins.
        topo = TwoTierTopology()
        topo.add_source("s")
        topo.add_destination("d")
        topo.add_transmitter("t", "s")
        topo.add_receiver("r", "d")
        topo.add_reconfigurable_edge("t", "r", delay=1)
        topo.add_fixed_link("s", "d", delay=1)
        topo.freeze()
        p = Packet(0, "s", "d", weight=3.0, arrival=1)
        assignment = dispatch(topo, p)
        assert isinstance(assignment, FixedLinkAssignment)

    def test_unroutable_packet_raises(self, fig2_topology):
        p = Packet(0, "s1", "d3", weight=1.0, arrival=1)
        with pytest.raises(RoutingError):
            dispatch(fig2_topology, p)

    def test_packet_split_according_to_delay(self):
        topo = TwoTierTopology()
        topo.add_source("s")
        topo.add_destination("d")
        topo.add_transmitter("t", "s")
        topo.add_receiver("r", "d")
        topo.add_reconfigurable_edge("t", "r", delay=3)
        topo.freeze()
        p = Packet(0, "s", "d", weight=6.0, arrival=1)
        assignment = dispatch(topo, p)
        assert len(assignment.chunks) == 3
        assert assignment.chunks[0].weight == pytest.approx(2.0)

    def test_impact_recorded_as_alpha(self, fig2_topology):
        p = Packet(0, "s2", "d3", weight=3.0, arrival=1)
        assignment = dispatch(fig2_topology, p)
        assert assignment.impact == pytest.approx(3.0)

    def test_deterministic_tie_break_between_edges(self):
        # Two identical candidate edges: the lexicographically smaller one wins.
        topo = TwoTierTopology()
        topo.add_source("s")
        topo.add_destination("d")
        topo.add_transmitter("ta", "s")
        topo.add_transmitter("tb", "s")
        topo.add_receiver("ra", "d")
        topo.add_receiver("rb", "d")
        topo.add_reconfigurable_edge("ta", "ra", delay=1)
        topo.add_reconfigurable_edge("tb", "rb", delay=1)
        topo.freeze()
        p = Packet(0, "s", "d", weight=1.0, arrival=1)
        assert dispatch(topo, p).edge == ("ta", "ra")


class TestDecisionLog:
    def test_log_recorded_when_enabled(self, fig1_topology):
        dispatcher = ImpactDispatcher(record_decisions=True)
        pool = PendingChunkPool()
        p = Packet(0, "s2", "d3", weight=1.0, arrival=1)
        dispatcher.dispatch(p, fig1_topology, pool, 1)
        assert len(dispatcher.decision_log) == 1
        entry = dispatcher.decision_log[0]
        assert entry["packet_id"] == 0
        assert entry["fixed_latency"] == pytest.approx(4.0)
        assert len(entry["candidates"]) == 1

    def test_log_empty_when_disabled(self, fig1_topology):
        dispatcher = ImpactDispatcher()
        p = Packet(0, "s1", "d1", weight=1.0, arrival=1)
        dispatcher.dispatch(p, fig1_topology, PendingChunkPool(), 1)
        assert dispatcher.decision_log == []

    def test_reset_clears_log(self, fig1_topology):
        dispatcher = ImpactDispatcher(record_decisions=True)
        p = Packet(0, "s1", "d1", weight=1.0, arrival=1)
        dispatcher.dispatch(p, fig1_topology, PendingChunkPool(), 1)
        dispatcher.reset()
        assert dispatcher.decision_log == []


class _ScanTwin:
    """A live pool seen without its impact index, so the impact rule scans it."""

    impact_index = None

    def __init__(self, pool):
        self.adjacent_chunks = pool.adjacent_chunks


class TestRecordingChangesNothing:
    """The decision log is a sink on the one rule, never a second rule."""

    @pytest.mark.parametrize("engine", ["reference", "indexed"])
    def test_recorded_run_matches_plain_and_logs_the_rule(self, engine, monkeypatch):
        topology = add_uniform_fixed_links(
            projector_fabric(num_racks=5, lasers_per_rack=2, photodetectors_per_rack=2, seed=7),
            delay=2,
        )
        packets = uniform_random_workload(
            topology, 150, weight_sampler=uniform_weights(1, 10), arrival_rate=3.0, seed=8
        )
        plain = simulate(
            topology, OpportunisticLinkScheduler(), packets, engine=engine, record_trace=True
        )

        expected = []
        real_dispatch = ImpactDispatcher.dispatch

        def spy(self, packet, topo, pool, now):
            twin = _ScanTwin(pool)
            expected.append([
                compute_edge_impact(packet, t, r, topo, twin)
                for t, r in topo.candidate_edges(packet.source, packet.destination)
            ])
            return real_dispatch(self, packet, topo, pool, now)

        monkeypatch.setattr(ImpactDispatcher, "dispatch", spy)
        policy = OpportunisticLinkScheduler(record_decisions=True)
        recorded = simulate(topology, policy, packets, engine=engine, record_trace=True)

        assert recorded.summary() == plain.summary()
        assert recorded.trace.slots == plain.trace.slots
        log = policy.impact_dispatcher.decision_log
        assert [entry["candidates"] for entry in log] == expected
        chosen = [entry["chosen_fixed"] for entry in log]
        assert any(chosen) and not all(chosen)  # both arms of the fixed-link test
        ties = 0
        for entry in log:
            record = recorded.records[entry["packet_id"]]
            assert entry["impact"] == record.assignment.impact
            assert entry["chosen_fixed"] == record.used_fixed_link
            assert entry["fixed_latency"] == record.packet.weight * 2
            if entry["candidates"]:
                best = min(entry["candidates"], key=lambda impact: (impact.total, impact.edge))
                ties += best.total == entry["fixed_latency"]
                if not entry["chosen_fixed"]:
                    assert (best.edge, best.total) == (entry["edge"], entry["impact"])
                    assert entry["impact"] < entry["fixed_latency"]
        assert ties  # an exact tie, which the fixed link wins
