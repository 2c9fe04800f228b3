"""Tests for repro.simulation.engine."""

from __future__ import annotations

import dataclasses
import json
import random

import pytest

from repro.core import OpportunisticLinkScheduler, Packet, Policy, StableMatchingScheduler
from repro.core.dispatcher import ImpactDispatcher
from repro.core.interfaces import Scheduler
from repro.exceptions import SchedulingError, SimulationError
from repro.faults import FaultEvent, FaultSchedule
from repro.network import TwoTierTopology, figure1_topology, projector_fabric, single_tier_crossbar
from repro.obs import MetricsRegistry
from repro.simulation import EngineConfig, SimulationEngine, simulate, simulate_multi
from repro.workloads import figure1_packets, uniform_random_workload


class TestEngineBasics:
    def test_empty_packet_list(self, line_topology, alg_policy):
        result = simulate(line_topology, alg_policy, [])
        assert len(result) == 0
        assert result.total_weighted_latency == 0.0
        assert result.all_delivered

    def test_single_packet_latency(self, line_topology, alg_policy):
        p = Packet(0, "s", "d", weight=3.0, arrival=1)
        result = simulate(line_topology, alg_policy, [p])
        assert result.all_delivered
        assert result.record(0).completion_time == 2
        assert result.total_weighted_latency == pytest.approx(3.0)

    def test_two_packets_same_edge_serialize(self, line_topology, alg_policy):
        packets = [
            Packet(0, "s", "d", weight=1.0, arrival=1),
            Packet(1, "s", "d", weight=1.0, arrival=1),
        ]
        result = simulate(line_topology, alg_policy, packets)
        latencies = sorted(r.weighted_latency for r in result)
        assert latencies == [pytest.approx(1.0), pytest.approx(2.0)]

    def test_heavier_packet_goes_first(self, line_topology, alg_policy):
        packets = [
            Packet(0, "s", "d", weight=1.0, arrival=1),
            Packet(1, "s", "d", weight=10.0, arrival=1),
        ]
        result = simulate(line_topology, alg_policy, packets)
        assert result.record(1).completion_time < result.record(0).completion_time

    def test_duplicate_packet_ids_rejected(self, line_topology, alg_policy):
        packets = [Packet(0, "s", "d", 1.0, 1), Packet(0, "s", "d", 1.0, 2)]
        with pytest.raises(SimulationError):
            simulate(line_topology, alg_policy, packets)

    def test_unroutable_packet_rejected(self, fig1_topology, alg_policy):
        with pytest.raises(SimulationError):
            simulate(fig1_topology, alg_policy, [Packet(0, "s1", "d3", 1.0, 1)])

    def test_max_slots_guard(self, line_topology, alg_policy):
        packets = [Packet(i, "s", "d", 1.0, 1) for i in range(10)]
        with pytest.raises(SimulationError):
            simulate(line_topology, alg_policy, packets, max_slots=3)

    def test_late_arrivals_handled(self, line_topology, alg_policy):
        packets = [Packet(0, "s", "d", 1.0, 100)]
        result = simulate(line_topology, alg_policy, packets)
        assert result.record(0).completion_time == 101
        assert result.first_slot == 100

    def test_matching_sizes_recorded(self, crossbar4, alg_policy):
        packets = uniform_random_workload(crossbar4, 20, arrival_rate=4.0, seed=1)
        result = simulate(crossbar4, alg_policy, packets)
        assert len(result.matching_sizes) == result.num_slots
        assert max(result.matching_sizes) <= 4


class TestFullRetentionInputOrder:
    """Full retention dispatches a stable sort of its input by arrival slot."""

    @staticmethod
    def _scrambled():
        topology = projector_fabric(
            num_racks=4, lasers_per_rack=2, photodetectors_per_rack=2, seed=3
        )
        packets = uniform_random_workload(topology, 40, arrival_rate=4.0, seed=11)
        rng = random.Random(5)
        ids = list(range(len(packets)))
        rng.shuffle(ids)
        scrambled = [dataclasses.replace(p, packet_id=i) for p, i in zip(packets, ids)]
        rng.shuffle(scrambled)
        return topology, scrambled

    @staticmethod
    def _observed(result):
        records = [
            (
                pid,
                rec.completion_time,
                rec.weighted_latency,
                rec.alpha,
                rec.used_fixed_link,
                None if rec.used_fixed_link else rec.assignment.edge,
            )
            for pid, rec in result.records.items()
        ]
        dispatches = [
            (slot.slot, [dataclasses.astuple(event) for event in slot.dispatches])
            for slot in result.trace.slots
        ]
        return records, dispatches, result.summary()

    def test_out_of_order_input_equals_its_stable_sort(self):
        topology, scrambled = self._scrambled()
        ordered = sorted(scrambled, key=lambda packet: packet.arrival)
        # The input really is out of order, and ids within a slot are unsorted.
        assert scrambled != ordered
        assert any(
            a.arrival == b.arrival and a.packet_id > b.packet_id
            for a, b in zip(ordered, ordered[1:])
        )
        got = simulate(topology, OpportunisticLinkScheduler(), scrambled, record_trace=True)
        want = simulate(topology, OpportunisticLinkScheduler(), ordered, record_trace=True)
        assert self._observed(got) == self._observed(want)
        # Within a slot, packets are dispatched in input order.
        for slot in got.trace.slots:
            assert [event.packet_id for event in slot.dispatches] == [
                packet.packet_id for packet in scrambled if packet.arrival == slot.slot
            ]


class TestDelaysAndChunking:
    def make_delay_topology(self, edge_delay=2, head=0, tail=0, fixed=None):
        topo = TwoTierTopology()
        topo.add_source("s")
        topo.add_destination("d")
        topo.add_transmitter("t", "s", head_delay=head)
        topo.add_receiver("r", "d", tail_delay=tail)
        topo.add_reconfigurable_edge("t", "r", delay=edge_delay)
        if fixed is not None:
            topo.add_fixed_link("s", "d", delay=fixed)
        return topo.freeze()

    def test_multi_chunk_packet_completion(self, alg_policy):
        topo = self.make_delay_topology(edge_delay=3)
        p = Packet(0, "s", "d", weight=3.0, arrival=1)
        result = simulate(topo, alg_policy, [p])
        # Chunks cross in slots 1, 2, 3 -> completion at 4; weighted latency
        # = sum over chunks of (w/3) * i for i = 1..3 = 1+2+3 = 6... times w/3 = 2 each -> 6.
        assert result.record(0).completion_time == 4
        assert result.record(0).weighted_latency == pytest.approx(6.0)

    def test_head_delay_postpones_eligibility(self, alg_policy):
        topo = self.make_delay_topology(edge_delay=1, head=2)
        p = Packet(0, "s", "d", weight=1.0, arrival=1)
        result = simulate(topo, alg_policy, [p])
        assert result.record(0).completion_time == 4  # eligible at 3, crosses slot 3
        assert result.record(0).weighted_latency == pytest.approx(3.0)

    def test_tail_delay_added_to_latency(self, alg_policy):
        topo = self.make_delay_topology(edge_delay=1, tail=3)
        p = Packet(0, "s", "d", weight=2.0, arrival=1)
        result = simulate(topo, alg_policy, [p])
        assert result.record(0).completion_time == 5
        assert result.record(0).weighted_latency == pytest.approx(8.0)

    def test_fixed_link_packet_completion(self, alg_policy):
        topo = self.make_delay_topology(edge_delay=5, fixed=2)
        p = Packet(0, "s", "d", weight=1.0, arrival=3)
        result = simulate(topo, alg_policy, [p])
        record = result.record(0)
        assert record.used_fixed_link
        assert record.completion_time == 5
        assert record.weighted_latency == pytest.approx(2.0)

    def test_fixed_link_packets_do_not_contend(self, alg_policy):
        topo = self.make_delay_topology(edge_delay=10, fixed=2)
        packets = [Packet(i, "s", "d", 1.0, 1) for i in range(5)]
        result = simulate(topo, alg_policy, packets)
        assert all(r.used_fixed_link for r in result)
        assert all(r.weighted_latency == pytest.approx(2.0) for r in result)


class TestSpeedup:
    def test_speed_two_halves_queueing(self, line_topology, alg_policy):
        packets = [Packet(i, "s", "d", 1.0, 1) for i in range(4)]
        slow = simulate(line_topology, alg_policy, packets, speed=1.0)
        fast = simulate(line_topology, OpportunisticLinkScheduler(), packets, speed=2.0)
        assert fast.total_weighted_latency < slow.total_weighted_latency
        # At speed 2, two chunks cross per slot: completions at slots 1,1,2,2.
        assert fast.total_weighted_latency == pytest.approx(1 + 1 + 2 + 2)

    def test_fractional_speed_progress(self, line_topology):
        packets = [Packet(0, "s", "d", 1.0, 1)]
        result = simulate(line_topology, OpportunisticLinkScheduler(), packets, speed=0.5)
        # Half the chunk in slot 1, the rest in slot 2: fractional latency
        # 0.5*1 + 0.5*2 = 1.5.
        assert result.record(0).completion_time == 3
        assert result.record(0).weighted_latency == pytest.approx(1.5)

    def test_invalid_speed_rejected(self):
        with pytest.raises(ValueError):
            EngineConfig(speed=0.0)

    def test_higher_speed_never_worse(self, crossbar4):
        packets = uniform_random_workload(crossbar4, 30, arrival_rate=5.0, seed=3)
        costs = [
            simulate(crossbar4, OpportunisticLinkScheduler(), packets, speed=s).total_weighted_latency
            for s in (1.0, 2.0, 3.0)
        ]
        assert costs[0] >= costs[1] >= costs[2]


class TestMatchingValidation:
    class BadScheduler(Scheduler):
        name = "bad"

        def select_matching(self, pool, topology, now):
            # Return every eligible chunk, which can violate the matching property.
            return pool.eligible_chunks(now)

    def test_non_matching_schedule_rejected(self, line_topology):
        policy = Policy("bad", ImpactDispatcher(), self.BadScheduler())
        packets = [Packet(0, "s", "d", 1.0, 1), Packet(1, "s", "d", 1.0, 1)]
        with pytest.raises(SchedulingError):
            simulate(line_topology, policy, packets)

    class NotEligibleScheduler(Scheduler):
        name = "not-eligible"

        def select_matching(self, pool, topology, now):
            return [c for c in pool][:1]

    def test_ineligible_chunk_rejected(self):
        topo = TwoTierTopology()
        topo.add_source("s")
        topo.add_destination("d")
        topo.add_transmitter("t", "s", head_delay=5)
        topo.add_receiver("r", "d")
        topo.add_reconfigurable_edge("t", "r", delay=1)
        topo.freeze()
        policy = Policy("bad", ImpactDispatcher(), self.NotEligibleScheduler())
        with pytest.raises(SchedulingError):
            simulate(topo, policy, [Packet(0, "s", "d", 1.0, 1)])


class TestTraceRecording:
    def test_trace_disabled_by_default(self, line_topology, alg_policy):
        result = simulate(line_topology, alg_policy, [Packet(0, "s", "d", 1.0, 1)])
        assert result.trace is None

    def test_trace_records_slots(self, fig1_topology):
        result = simulate(
            fig1_topology, OpportunisticLinkScheduler(), figure1_packets(), record_trace=True
        )
        assert result.trace is not None
        assert len(result.trace) == result.num_slots
        slot1 = result.trace.slot(1)
        assert slot1.arrivals == [0, 1, 2]
        assert slot1.matching_size == 2

    def test_trace_format_readable(self, fig1_topology):
        result = simulate(
            fig1_topology, OpportunisticLinkScheduler(), figure1_packets(), record_trace=True
        )
        text = result.trace.format()
        assert "slot 1" in text and "dispatch" in text and "transmit" in text

    def test_trace_missing_slot_raises(self, fig1_topology):
        result = simulate(
            fig1_topology, OpportunisticLinkScheduler(), figure1_packets(), record_trace=True
        )
        with pytest.raises(KeyError):
            result.trace.slot(999)


class TestEngineConfig:
    def test_keyword_overrides(self, line_topology, alg_policy):
        engine = SimulationEngine(line_topology, alg_policy, speed=2.0, max_slots=50)
        assert engine.config.speed == 2.0
        assert engine.config.max_slots == 50

    def test_config_object_used(self, line_topology, alg_policy):
        engine = SimulationEngine(line_topology, alg_policy, EngineConfig(record_trace=True))
        assert engine.config.record_trace

    def test_invalid_max_slots(self):
        with pytest.raises(ValueError):
            EngineConfig(max_slots=0)

    # A non-default value for every EngineConfig field; the key check below
    # fails when a field is added without being listed here.
    NON_DEFAULTS = dict(
        speed=2.5,
        max_slots=123,
        record_trace=True,
        validate_matchings=False,
        slot_skipping=False,
        retention="aggregate",
        trace_path="slots.jsonl",
        engine="reference",
        share_dispatch=False,
        validate_shared_dispatch=True,
        obs=MetricsRegistry(),
        metrics_path="metrics.jsonl",
        span_stride=3,
        faults=FaultSchedule(),
        on_fail="drop",
    )

    def test_every_field_survives_the_constructor(self, line_topology, alg_policy):
        names = {field.name for field in dataclasses.fields(EngineConfig)}
        assert set(self.NON_DEFAULTS) == names
        defaults = EngineConfig()
        for name, value in self.NON_DEFAULTS.items():
            assert getattr(defaults, name) != value, name
        config = EngineConfig(**self.NON_DEFAULTS)
        engine = SimulationEngine(line_topology, alg_policy, config)
        for name, value in self.NON_DEFAULTS.items():
            assert getattr(engine.config, name) is value, name

    def test_each_shortcut_overrides_its_field(self, line_topology, alg_policy):
        # Every field is a constructor keyword applied over ``config``; the
        # other fields keep the config's values.
        config = EngineConfig(**self.NON_DEFAULTS)
        defaults = EngineConfig()
        for field in dataclasses.fields(EngineConfig):
            value = getattr(defaults, field.name)
            engine = SimulationEngine(line_topology, alg_policy, config, **{field.name: value})
            for other in dataclasses.fields(EngineConfig):
                expected = value if other.name == field.name else self.NON_DEFAULTS[other.name]
                assert getattr(engine.config, other.name) == expected, (field.name, other.name)

    def test_simulate_wrappers_forward_every_field(
        self, monkeypatch, line_topology, alg_policy
    ):
        monkeypatch.setattr(SimulationEngine, "run", lambda self, packets: self.config)
        monkeypatch.setattr(
            SimulationEngine, "run_multi", lambda self, packets, policies: self.config
        )
        for name, value in self.NON_DEFAULTS.items():
            expected = EngineConfig(**{name: value})
            assert simulate(line_topology, alg_policy, [], **{name: value}) == expected
            assert simulate_multi(
                line_topology, {"alg": alg_policy}, [], **{name: value}
            ) == expected, name

    def test_unknown_keyword_raises_type_error(self, line_topology, alg_policy):
        with pytest.raises(TypeError, match="bogus"):
            SimulationEngine(line_topology, alg_policy, bogus=1)
        with pytest.raises(TypeError, match="bogus"):
            simulate(line_topology, alg_policy, [], bogus=1)
        with pytest.raises(TypeError, match="bogus"):
            simulate_multi(line_topology, {"alg": alg_policy}, [], bogus=1)

    @staticmethod
    def _outcome(engine, packets, single):
        """A run's observable outcome: result (or error), metrics and files."""
        policy = engine.policy
        try:
            if single:
                result = engine.run(packets)
            else:
                result = engine.run_multi(packets, {policy.name: policy})[policy.name]
        except SimulationError as error:
            return ("error", str(error))
        records = (
            None
            if result.is_aggregate
            else [
                (pid, rec.completion_time, rec.weighted_latency, rec.alpha)
                for pid, rec in result.records.items()
            ]
        )
        trace = (
            None
            if result.trace is None
            else [
                (slot.slot, slot.arrivals, slot.matching, len(slot.transmissions))
                for slot in result.trace.slots
            ]
        )
        snapshot = engine.metrics.snapshot()
        # Phase timings are wall-clock; only which phases were timed is compared.
        snapshot["gauges"] = {
            key: None if key.startswith("engine_phase_seconds") else value
            for key, value in snapshot["gauges"].items()
        }
        files = {}
        for field_name in ("trace_path", "metrics_path"):
            path = getattr(engine.config, field_name)
            if path is not None:
                with open(path, encoding="utf-8") as handle:
                    files[field_name] = [json.loads(line) for line in handle]
        if "metrics_path" in files:
            for line in files["metrics_path"]:
                line["snapshot"]["gauges"] = snapshot["gauges"]
        return (
            result.summary(),
            result.first_slot,
            result.last_slot,
            list(result.matching_sizes),
            records,
            trace,
            snapshot,
            files,
        )

    def test_run_equals_one_policy_run_multi(self, tmp_path):
        """For every field, ``run()`` is a one-policy ``run_multi``.

        Each side runs with a live registry, phase spans on every slot and a
        metrics file, plus the field at its non-default value; results,
        metrics snapshots and written files must agree.
        """
        topology = projector_fabric(
            num_racks=4, lasers_per_rack=2, photodetectors_per_rack=2, seed=3
        )
        packets = uniform_random_workload(topology, 30, arrival_rate=3.0, seed=7)
        outage = FaultSchedule.from_events([
            FaultEvent(slot=3, action="fail", kind="edge", target=edge)
            for edge in sorted(topology.reconfigurable_edges)[:4]
        ])
        cases = dict(self.NON_DEFAULTS, faults=outage)
        cases = [(name, {name: value}) for name, value in cases.items()]
        cases.append(("all", dict(self.NON_DEFAULTS, faults=outage)))
        for label, fields in cases:
            outcomes = []
            for side, single in (("run", True), ("multi", False)):
                config = dict(
                    obs=MetricsRegistry(),
                    span_stride=1,
                    metrics_path=str(tmp_path / f"{label}-{side}-metrics.jsonl"),
                )
                config.update(fields)
                if "obs" in fields:
                    config["obs"] = MetricsRegistry()
                for field_name in ("trace_path", "metrics_path"):
                    if field_name in fields:
                        config[field_name] = str(tmp_path / f"{label}-{side}-{field_name}")
                engine = SimulationEngine(topology, OpportunisticLinkScheduler(), **config)
                outcomes.append(self._outcome(engine, packets, single))
            assert outcomes[0] == outcomes[1], label

    def test_engine_freezes_topology(self, alg_policy):
        topo = TwoTierTopology()
        topo.add_source("s")
        topo.add_destination("d")
        topo.add_transmitter("t", "s")
        topo.add_receiver("r", "d")
        topo.add_reconfigurable_edge("t", "r", delay=1)
        SimulationEngine(topo, alg_policy)
        assert topo.frozen
