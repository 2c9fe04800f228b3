"""Engine instrumentation tests: the obs= / metrics_path= / span_stride= knobs.

The bit-identity guarantee itself lives in tests/test_differential_engine.py;
this file pins what the instruments *record* — counter values that must
match the run's own summary, the metrics-snapshot JSONL side channel, the
sampled phase spans, the subsystem counters (shared-dispatch memo, matching
index, impact index) and the zero-cost disabled default.
"""

from __future__ import annotations

import pytest

from repro.core import OpportunisticLinkScheduler
from repro.network import projector_fabric
from repro.obs import NULL_REGISTRY, MetricsRegistry, read_metric_records
from repro.simulation import EngineConfig, SimulationEngine, simulate
from repro.workloads import uniform_weights
from repro.workloads.adversarial import iter_contention_hotspot_workload


@pytest.fixture(scope="module")
def cell():
    """A small dense-contention cell with heterogeneous weights.

    The weight spread keeps the impact index's consolidation path and the
    matching repairer's eviction paths busy, so the subsystem counters have
    something to count.
    """
    topology = projector_fabric(
        num_racks=6, lasers_per_rack=2, photodetectors_per_rack=2, seed=3
    )
    packets = list(
        iter_contention_hotspot_workload(
            topology,
            num_packets=120,
            side="receiver",
            hot_fraction=0.9,
            arrival_rate=6.0,
            weight_sampler=uniform_weights(1, 10),
            seed=4,
        )
    )
    return topology, packets


def _one(series: dict, name: str):
    """The single ``policy``-labeled series of ``name`` in a snapshot section."""
    matches = {k: v for k, v in series.items() if k.startswith(f"{name}{{policy=")}
    assert len(matches) == 1, (name, sorted(series))
    return next(iter(matches.values()))


def _run_with_registry(topology, packets, **kwargs):
    registry = MetricsRegistry()
    result = simulate(
        topology, OpportunisticLinkScheduler(), packets, obs=registry, **kwargs
    )
    return result, registry.snapshot()


class TestEngineCounters:
    def test_counters_match_the_summary(self, cell):
        topology, packets = cell
        result, snap = _run_with_registry(topology, packets)
        counters = snap["counters"]
        assert _one(counters, "engine_packets_arrived") == len(packets)
        assert _one(counters, "engine_packets_delivered") == len(packets)
        assert result.all_delivered
        # Every dispatched chunk was eventually matched and completed.
        dispatched = _one(counters, "engine_chunks_dispatched")
        assert dispatched > 0
        assert _one(counters, "engine_chunks_completed") == dispatched
        assert _one(counters, "engine_chunks_matched") >= dispatched
        simulated = _one(counters, "engine_slots_simulated")
        skipped = _one(counters, "engine_slots_skipped")
        assert 0 <= skipped < simulated
        assert simulated >= result.last_slot

    def test_matching_histogram_covers_executed_slots(self, cell):
        topology, packets = cell
        _result, snap = _run_with_registry(topology, packets)
        hist = _one(snap["histograms"], "engine_matching_size")
        counters = snap["counters"]
        executed = _one(counters, "engine_slots_simulated") - _one(
            counters, "engine_slots_skipped"
        )
        assert hist["count"] == executed
        assert hist["sum"] == _one(counters, "engine_chunks_matched")

    def test_pool_peak_gauges(self, cell):
        topology, packets = cell
        _result, snap = _run_with_registry(topology, packets)
        assert _one(snap["gauges"], "engine_pool_peak_chunks") >= 1
        assert _one(snap["gauges"], "engine_pool_peak_pending_work") > 0.0

    def test_impact_and_matching_index_counters(self, cell):
        topology, packets = cell
        _result, snap = _run_with_registry(topology, packets)
        counters = snap["counters"]
        # The indexed engine maintains both structures on this cell, and the
        # weight spread forces lazy prefix-sum repairs in the impact index.
        assert _one(counters, "impact_index_consolidations") > 0
        assert _one(counters, "matching_index_tasks") > 0
        assert _one(counters, "matching_index_evictions") >= 0


class TestSpans:
    def test_span_stride_times_all_three_phases(self, cell):
        topology, packets = cell
        _result, snap = _run_with_registry(topology, packets, span_stride=1)
        gauges = snap["gauges"]
        for phase in ("dispatch", "scheduler", "transmit"):
            matches = [
                v for k, v in gauges.items()
                if k.startswith(f"engine_phase_seconds{{phase={phase},")
            ]
            assert matches and matches[0] >= 0.0, phase
        assert _one(snap["counters"], "engine_span_sampled_slots") > 0

    def test_larger_stride_samples_fewer_slots(self, cell):
        topology, packets = cell
        _result, dense = _run_with_registry(topology, packets, span_stride=1)
        _result, sparse = _run_with_registry(topology, packets, span_stride=8)
        assert _one(sparse["counters"], "engine_span_sampled_slots") < _one(
            dense["counters"], "engine_span_sampled_slots"
        )

    def test_zero_stride_records_no_spans(self, cell):
        topology, packets = cell
        _result, snap = _run_with_registry(topology, packets, span_stride=0)
        assert not any(
            k.startswith("engine_span_sampled_slots") for k in snap["counters"]
        )
        assert not any(
            k.startswith("engine_phase_seconds") for k in snap["gauges"]
        )

    def test_negative_stride_rejected(self):
        with pytest.raises(ValueError, match="span_stride"):
            EngineConfig(span_stride=-1)


class TestMetricsPath:
    def test_snapshot_written_as_jsonl(self, cell, tmp_path):
        topology, packets = cell
        path = tmp_path / "metrics.jsonl"
        registry = MetricsRegistry()
        simulate(
            topology, OpportunisticLinkScheduler(), packets,
            obs=registry, metrics_path=str(path),
        )
        records = read_metric_records(path)
        assert len(records) == 1
        assert records[0]["record"] == "metrics_snapshot"
        assert records[0]["snapshot"] == registry.snapshot()

    def test_metrics_path_alone_enables_a_registry(self, cell, tmp_path):
        topology, packets = cell
        path = tmp_path / "metrics.jsonl"
        simulate(
            topology, OpportunisticLinkScheduler(), packets, metrics_path=str(path)
        )
        (record,) = read_metric_records(path)
        counters = record["snapshot"]["counters"]
        assert _one(counters, "engine_packets_arrived") == len(packets)


class TestDisabledDefault:
    def test_engine_defaults_to_the_null_singleton(self, crossbar4):
        engine = SimulationEngine(crossbar4)
        assert engine.metrics is NULL_REGISTRY
        assert engine.metrics.enabled is False

    def test_disabled_run_records_nothing(self, cell):
        topology, packets = cell
        engine = SimulationEngine(topology, OpportunisticLinkScheduler())
        result = engine.run(packets)
        assert result.all_delivered
        assert engine.metrics.snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {}
        }


class TestRunMulti:
    def test_shared_dispatch_memo_counters(self, cell):
        topology, packets = cell
        registry = MetricsRegistry()
        engine = SimulationEngine(topology, config=EngineConfig(obs=registry))
        policies = {
            "alg_a": OpportunisticLinkScheduler(),
            "alg_b": OpportunisticLinkScheduler(),
        }
        engine.run_multi(packets, policies)
        counters = registry.snapshot()["counters"]
        stats = engine.last_shared_dispatch_stats[0]
        assert counters["shared_dispatch_hits{group=0}"] == stats["hits"]
        assert counters["shared_dispatch_misses{group=0}"] == stats["misses"]
        assert stats["hits"] > 0  # both lanes share the impact rule
        # Per-lane engine counters carry the policy label.
        assert counters["engine_packets_arrived{policy=alg_a}"] == len(packets)
        assert counters["engine_packets_arrived{policy=alg_b}"] == len(packets)


class TestPoolOccupancy:
    def test_occupancy_counts_eligible_and_future(self):
        from repro.core.packet import Packet, split_into_chunks
        from repro.core.queues import PendingChunkPool

        pool = PendingChunkPool()
        now_packet = Packet(0, "s", "d", weight=2.0, arrival=1)
        pool.add_all(split_into_chunks(now_packet, "t1", "r1", edge_delay=2))
        future_packet = Packet(1, "s", "d", weight=1.0, arrival=9)
        pool.add_all(split_into_chunks(future_packet, "t2", "r2", edge_delay=1))
        occupancy = pool.occupancy()
        assert occupancy["pending_chunks"] == 3
        assert occupancy["eligible_chunks"] + occupancy["future_chunks"] == 3
        assert occupancy["future_chunks"] >= 1
        assert occupancy["pending_work"] == pytest.approx(
            pool.total_pending_work()
        )
