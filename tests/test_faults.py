"""Unit tests for :mod:`repro.faults` and the engine's degradation semantics."""

from __future__ import annotations

import pickle

import pytest

from repro.baselines.policies import all_policies
from repro.core.packet import Packet
from repro.exceptions import FaultError, RoutingError, SimulationError
from repro.faults import (
    FabricState,
    FaultEvent,
    FaultSchedule,
    FaultTopologyView,
    seeded_fault_schedule,
)
from repro.network.builders import projector_fabric
from repro.network.topology import TwoTierTopology
from repro.obs import MetricsRegistry
from repro.simulation import simulate


def _fault_topology() -> TwoTierTopology:
    """One source/destination pair with two lasers of different head delays.

    ``t0`` (head delay 2, edge delay 1) is the preferred route; ``t1`` (head
    delay 1, edge delay 3) is the fallback a redispatch can move to.
    """
    topo = TwoTierTopology(name="fault-unit")
    topo.add_source("s0")
    topo.add_destination("d0")
    topo.add_transmitter("t0", "s0", head_delay=2)
    topo.add_transmitter("t1", "s0", head_delay=1)
    topo.add_receiver("r0", "d0", tail_delay=0)
    topo.add_reconfigurable_edge("t0", "r0", delay=1)
    topo.add_reconfigurable_edge("t1", "r0", delay=3)
    return topo.freeze()


def _packet() -> Packet:
    return Packet(0, "s0", "d0", weight=1.0, arrival=1)


def _policy():
    return all_policies(seed=0)["fifo"]


#: Fails the preferred laser at slot 2 (while the dispatched chunk is still
#: waiting out its head delay) and recovers it at slot 7.
_OUTAGE = FaultSchedule.from_events([
    FaultEvent(slot=2, action="fail", kind="laser", target="t0"),
    FaultEvent(slot=7, action="recover", kind="laser", target="t0"),
])


# ---------------------------------------------------------------------- #
# schedule data model
# ---------------------------------------------------------------------- #
class TestFaultEvent:
    def test_validates_action_kind_slot(self):
        with pytest.raises(FaultError, match="action"):
            FaultEvent(slot=1, action="explode", kind="laser", target="t0")
        with pytest.raises(FaultError, match="kind"):
            FaultEvent(slot=1, action="fail", kind="gpu", target="t0")
        with pytest.raises(FaultError, match="slot"):
            FaultEvent(slot=-1, action="fail", kind="laser", target="t0")

    def test_edge_target_must_be_pair(self):
        with pytest.raises(FaultError, match="pair"):
            FaultEvent(slot=1, action="fail", kind="edge", target="t0")
        with pytest.raises(FaultError, match="node name"):
            FaultEvent(slot=1, action="fail", kind="laser", target=("t0", "r0"))

    def test_degrade_rules(self):
        with pytest.raises(FaultError, match="only apply to edges"):
            FaultEvent(slot=1, action="degrade", kind="laser", target="t0", rate=0.5)
        with pytest.raises(FaultError, match="rate"):
            FaultEvent(slot=1, action="degrade", kind="edge", target=("t0", "r0"), rate=0.0)
        with pytest.raises(FaultError, match="rate"):
            FaultEvent(slot=1, action="degrade", kind="edge", target=("t0", "r0"), rate=1.5)
        with pytest.raises(FaultError, match="only meaningful for degrade"):
            FaultEvent(slot=1, action="fail", kind="laser", target="t0", rate=0.5)

    def test_dict_round_trip(self):
        event = FaultEvent(slot=3, action="degrade", kind="edge",
                           target=("t0", "r0"), rate=0.5)
        assert FaultEvent.from_dict(event.to_dict()) == event
        assert event.to_dict()["target"] == ["t0", "r0"]


class TestFaultSchedule:
    def test_rejects_unordered_events(self):
        events = [
            FaultEvent(slot=5, action="fail", kind="laser", target="t0"),
            FaultEvent(slot=2, action="recover", kind="laser", target="t0"),
        ]
        with pytest.raises(FaultError, match="ordered"):
            FaultSchedule(events=tuple(events))
        assert [e.slot for e in FaultSchedule.from_events(events).events] == [2, 5]

    def test_round_trips_and_pickles(self):
        schedule = _OUTAGE
        assert FaultSchedule.from_dict(schedule.to_dict()) == schedule
        assert pickle.loads(pickle.dumps(schedule)) == schedule
        assert len(schedule) == 2 and bool(schedule)
        assert not FaultSchedule()


class TestFabricState:
    def test_apply_validates_targets(self):
        topology = _fault_topology()
        state = FabricState()
        with pytest.raises(FaultError, match="unknown laser"):
            state.apply(FaultEvent(slot=1, action="fail", kind="laser",
                                   target="nope"), topology)
        with pytest.raises(FaultError, match="unknown photodetector"):
            state.apply(FaultEvent(slot=1, action="fail", kind="photodetector",
                                   target="nope"), topology)
        with pytest.raises(FaultError, match="unknown reconfigurable edge"):
            state.apply(FaultEvent(slot=1, action="fail", kind="edge",
                                   target=("t0", "nope")), topology)

    def test_fail_recover_degrade_lifecycle(self):
        topology = _fault_topology()
        state = FabricState()
        assert state.edge_alive("t0", "r0") and not state.any_failed
        state.apply(FaultEvent(slot=1, action="fail", kind="laser", target="t0"),
                    topology)
        assert not state.edge_alive("t0", "r0") and state.any_failed
        assert state.edge_alive("t1", "r0")
        state.apply(FaultEvent(slot=2, action="degrade", kind="edge",
                               target=("t1", "r0"), rate=0.5), topology)
        assert state.edge_rate("t1", "r0") == 0.5 and state.any_degraded
        state.apply(FaultEvent(slot=3, action="recover", kind="laser", target="t0"),
                    topology)
        state.apply(FaultEvent(slot=3, action="recover", kind="edge",
                               target=("t1", "r0")), topology)
        assert state.edge_alive("t0", "r0") and not state.any_failed
        assert state.edge_rate("t1", "r0") == 1.0 and not state.any_degraded
        assert state.version == 4


class TestFaultTopologyView:
    def test_masks_dead_edges_and_delegates(self):
        topology = _fault_topology()
        state = FabricState()
        view = FaultTopologyView(topology, state)
        assert view.candidate_edges("s0", "d0") == [("t0", "r0"), ("t1", "r0")]
        state.apply(FaultEvent(slot=1, action="fail", kind="laser", target="t0"),
                    topology)
        assert view.candidate_edges("s0", "d0") == [("t1", "r0")]
        assert not view.has_edge("t0", "r0")
        assert view.has_edge("t1", "r0")
        assert view.can_route("s0", "d0")
        # everything else delegates to the frozen base
        assert view.transmitters == topology.transmitters
        assert view.edge_delay("t0", "r0") == 1

    def test_total_failure_leaves_pair_unroutable(self):
        topology = _fault_topology()
        state = FabricState()
        view = FaultTopologyView(topology, state)
        for laser in ("t0", "t1"):
            state.apply(FaultEvent(slot=1, action="fail", kind="laser", target=laser),
                        topology)
        assert view.candidate_edges("s0", "d0") == []
        assert not view.can_route("s0", "d0")


class TestSeededFaultSchedule:
    def test_deterministic_and_validates(self):
        topology = projector_fabric(3, lasers_per_rack=2, photodetectors_per_rack=2)
        one = seeded_fault_schedule(topology, seed=11, num_faults=3)
        two = seeded_fault_schedule(topology, seed=11, num_faults=3)
        other = seeded_fault_schedule(topology, seed=12, num_faults=3)
        assert one == two
        assert one != other
        assert all(e.slot >= 1 for e in one.events)
        with pytest.raises(FaultError, match="num_faults"):
            seeded_fault_schedule(topology, seed=1, num_faults=0)
        with pytest.raises(FaultError, match="horizon"):
            seeded_fault_schedule(topology, seed=1, horizon=2)

    def test_recover_false_emits_only_failures(self):
        topology = projector_fabric(3)
        schedule = seeded_fault_schedule(topology, seed=3, num_faults=4,
                                         recover=False)
        assert all(e.action in ("fail", "degrade") for e in schedule.events)


# ---------------------------------------------------------------------- #
# engine degradation semantics
# ---------------------------------------------------------------------- #
class TestEngineDegradation:
    def test_requeue_holds_chunk_until_recovery(self):
        baseline = simulate(_fault_topology(), _policy(), [_packet()])
        faulted = simulate(_fault_topology(), _policy(), [_packet()],
                           faults=_OUTAGE, on_fail="requeue")
        assert baseline.all_delivered and faulted.all_delivered
        assert (faulted.summary()["total_weighted_latency"]
                > baseline.summary()["total_weighted_latency"])
        # delivery waits for the slot-7 recovery: 7 slots simulated, not 3
        assert faulted.summary()["num_slots"] == 7.0

    def test_drop_abandons_the_packet(self):
        faulted = simulate(_fault_topology(), _policy(), [_packet()],
                           faults=_OUTAGE, on_fail="drop")
        assert not faulted.all_delivered
        assert faulted.summary()["num_packets"] == 1.0
        # nothing was transmitted before the failure, so no latency accrued
        assert faulted.summary()["total_weighted_latency"] == 0.0

    def test_redispatch_moves_to_live_edge(self):
        faulted = simulate(_fault_topology(), _policy(), [_packet()],
                           faults=_OUTAGE, on_fail="redispatch", record_trace=True)
        assert faulted.all_delivered
        # the chunk completes on the fallback laser, before the recovery slot
        edges = [tuple(ev.edge) for slot in faulted.trace.slots
                 for ev in slot.transmissions]
        assert edges == [("t1", "r0")]
        assert faulted.summary()["num_slots"] < 7.0

    @pytest.mark.parametrize("policy", ["fifo", "alg"])
    def test_redispatch_keeps_priority_key(self, policy):
        """A redispatch rewrites the chunk's edge, never its cached priority key."""
        faulted = simulate(_fault_topology(), all_policies(seed=0)[policy], [_packet()],
                           faults=_OUTAGE, on_fail="redispatch")
        (chunk,) = faulted.record(0).chunks
        assert chunk.edge == ("t1", "r0")  # moved off the failed laser t0
        # Split on t0 (edge delay 1): the key still carries that weight.
        assert chunk.key == (-1.0, 1, 0, 1)
        assert chunk.key == (-chunk.weight, chunk.packet.arrival,
                             chunk.packet.packet_id, chunk.index)

    def test_degraded_edge_halves_throughput(self):
        slowdown = FaultSchedule.from_events([
            FaultEvent(slot=1, action="degrade", kind="edge",
                       target=("t0", "r0"), rate=0.5),
        ])
        baseline = simulate(_fault_topology(), _policy(), [_packet()],
                            record_trace=True)
        degraded = simulate(_fault_topology(), _policy(), [_packet()],
                            faults=slowdown, on_fail="requeue", record_trace=True)
        assert degraded.all_delivered
        base_tx = [ev for s in baseline.trace.slots for ev in s.transmissions]
        slow_tx = [ev for s in degraded.trace.slots for ev in s.transmissions]
        assert len(base_tx) == 1 and len(slow_tx) == 2  # two half-rate slots
        assert slow_tx[0].amount == pytest.approx(0.5)
        assert (degraded.summary()["total_weighted_latency"]
                > baseline.summary()["total_weighted_latency"])

    def test_unrecovered_failure_raises_stuck_error(self):
        no_recovery = FaultSchedule.from_events([
            FaultEvent(slot=2, action="fail", kind="laser", target="t0"),
        ])
        with pytest.raises(SimulationError, match="stranded"):
            simulate(_fault_topology(), _policy(), [_packet()],
                     faults=no_recovery, on_fail="requeue")

    def test_arrival_during_outage_is_masked_to_live_edge(self):
        # The packet arrives *after* t0 fails: the dispatcher must never see
        # the dead edge, so the chunk goes straight to t1.
        outage = FaultSchedule.from_events([
            FaultEvent(slot=1, action="fail", kind="laser", target="t0"),
        ])
        packet = Packet(0, "s0", "d0", weight=1.0, arrival=2)
        result = simulate(_fault_topology(), _policy(), [packet],
                          faults=outage, on_fail="requeue", record_trace=True)
        assert result.all_delivered
        edges = {tuple(ev.edge) for slot in result.trace.slots
                 for ev in slot.transmissions}
        assert edges == {("t1", "r0")}

    def test_total_outage_without_fixed_link_raises_routing_error(self):
        blackout = FaultSchedule.from_events([
            FaultEvent(slot=1, action="fail", kind="laser", target="t0"),
            FaultEvent(slot=1, action="fail", kind="laser", target="t1"),
        ])
        with pytest.raises(RoutingError):
            simulate(_fault_topology(), _policy(),
                     [Packet(0, "s0", "d0", weight=1.0, arrival=2)],
                     faults=blackout, on_fail="requeue")

    def test_fixed_link_survives_total_optical_outage(self):
        topo = TwoTierTopology(name="fault-hybrid")
        topo.add_source("s0")
        topo.add_destination("d0")
        topo.add_transmitter("t0", "s0")
        topo.add_receiver("r0", "d0")
        topo.add_reconfigurable_edge("t0", "r0", delay=1)
        topo.add_fixed_link("s0", "d0", delay=5)
        topology = topo.freeze()
        blackout = FaultSchedule.from_events([
            FaultEvent(slot=1, action="fail", kind="laser", target="t0"),
        ])
        result = simulate(topology, _policy(),
                          [Packet(0, "s0", "d0", weight=1.0, arrival=2)],
                          faults=blackout, on_fail="requeue")
        assert result.all_delivered
        assert result.summary()["fixed_link_fraction"] == 1.0

    def test_unknown_hardware_in_schedule_raises(self):
        bad = FaultSchedule.from_events([
            FaultEvent(slot=1, action="fail", kind="laser", target="phantom"),
        ])
        with pytest.raises(FaultError, match="phantom"):
            simulate(_fault_topology(), _policy(), [_packet()], faults=bad)

    def test_fault_counters_published_only_when_faulted(self):
        registry = MetricsRegistry()
        simulate(_fault_topology(), _policy(), [_packet()], obs=registry)
        plain = registry.snapshot()["counters"]
        assert not any(k.startswith("engine_fault") for k in plain)

        registry = MetricsRegistry()
        simulate(_fault_topology(), _policy(), [_packet()],
                 faults=_OUTAGE, on_fail="requeue", obs=registry)
        counters = registry.snapshot()["counters"]
        events = [v for k, v in counters.items()
                  if k.startswith("engine_fault_events{")]
        recoveries = [v for k, v in counters.items()
                      if k.startswith("engine_fault_recoveries{")]
        requeued = [v for k, v in counters.items()
                    if k.startswith("engine_chunks_requeued{")]
        assert events == [2]
        assert recoveries == [1]
        assert requeued == [1]
