"""Unit tests for the observability layer (repro.obs).

Covers the registry's determinism contract (snapshots are pure functions of
the operations applied), histogram bucket edges, the shared no-op
singletons, the SpanTimer's accumulation, and the MetricsWriter JSONL
round-trip.
"""

from __future__ import annotations

import pytest

from repro.exceptions import ObservabilityError
from repro.obs import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    MetricsWriter,
    NULL_REGISTRY,
    NullRegistry,
    SpanTimer,
    iter_metric_records,
    log_spaced_buckets,
    read_metric_records,
)


class TestRegistry:
    def test_counter_gauge_histogram_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("events").inc()
        registry.counter("events").inc(4)
        registry.gauge("depth").set(3.5)
        registry.gauge("peak").set_max(2.0)
        registry.gauge("peak").set_max(1.0)  # lower: must not stick
        registry.histogram("sizes", buckets=(1.0, 2.0)).observe(1.5)
        snap = registry.snapshot()
        assert snap["counters"] == {"events": 5}
        assert snap["gauges"] == {"depth": 3.5, "peak": 2.0}
        assert snap["histograms"]["sizes"]["count"] == 1
        assert snap["histograms"]["sizes"]["sum"] == 1.5

    def test_same_series_returns_same_instrument(self):
        registry = MetricsRegistry()
        a = registry.counter("hits", policy="alg")
        b = registry.counter("hits", policy="alg")
        assert a is b
        assert registry.counter("hits", policy="fifo") is not a

    def test_labels_render_sorted_and_stringified(self):
        registry = MetricsRegistry()
        registry.counter("hits", policy="alg", group=3).inc()
        snap = registry.snapshot()
        assert snap["counters"] == {"hits{group=3,policy=alg}": 1}

    def test_label_order_is_irrelevant(self):
        registry = MetricsRegistry()
        a = registry.counter("hits", a="x", b="y")
        b = registry.counter("hits", b="y", a="x")
        assert a is b

    def test_snapshot_order_independent_of_creation_order(self):
        forward = MetricsRegistry()
        forward.counter("alpha").inc()
        forward.counter("beta").inc()
        backward = MetricsRegistry()
        backward.counter("beta").inc()
        backward.counter("alpha").inc()
        assert forward.snapshot() == backward.snapshot()
        assert list(forward.snapshot()["counters"]) == ["alpha", "beta"]

    def test_kind_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ObservabilityError, match="is a counter"):
            registry.gauge("x")

    def test_empty_snapshot_shape(self):
        assert MetricsRegistry().snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {}
        }


class TestHistogramBuckets:
    def test_default_buckets_are_strictly_increasing(self):
        assert all(b > a for a, b in zip(DEFAULT_BUCKETS, DEFAULT_BUCKETS[1:]))
        assert DEFAULT_BUCKETS[0] == pytest.approx(1e-6)
        assert DEFAULT_BUCKETS[-1] == pytest.approx(1e4)

    def test_log_spaced_buckets_closed_form(self):
        buckets = log_spaced_buckets(1.0, 100.0, per_decade=1)
        assert buckets == (1.0, 10.0, 100.0)

    def test_log_spaced_buckets_validation(self):
        with pytest.raises(ObservabilityError):
            log_spaced_buckets(0.0, 1.0)
        with pytest.raises(ObservabilityError):
            log_spaced_buckets(2.0, 1.0)
        with pytest.raises(ObservabilityError):
            log_spaced_buckets(1.0, 10.0, per_decade=0)

    def test_observation_lands_in_correct_bucket(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h", buckets=(1.0, 4.0, 16.0))
        # At-bound observations land in the bucket whose upper bound they hit.
        for value in (0.5, 1.0):  # both <= 1.0
            hist.observe(value)
        hist.observe(4.0)       # second bucket (<= 4.0)
        hist.observe(5.0)       # third bucket (<= 16.0)
        hist.observe(100.0)     # overflow
        snap = registry.snapshot()["histograms"]["h"]
        assert snap["counts"] == [2, 1, 1, 1]
        assert snap["count"] == 5
        assert snap["sum"] == pytest.approx(110.5)
        assert snap["buckets"] == [1.0, 4.0, 16.0]

    def test_non_increasing_buckets_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ObservabilityError, match="strictly increasing"):
            registry.histogram("bad", buckets=(1.0, 1.0, 2.0))
        with pytest.raises(ObservabilityError):
            registry.histogram("empty", buckets=())


class TestNullRegistry:
    def test_singletons_shared_and_inert(self):
        a = NULL_REGISTRY.counter("anything", policy="x")
        b = NULL_REGISTRY.counter("other")
        assert a is b
        a.inc(1000)
        NULL_REGISTRY.gauge("g").set(5.0)
        NULL_REGISTRY.gauge("g").set_max(5.0)
        NULL_REGISTRY.histogram("h").observe(1.0)
        assert NULL_REGISTRY.snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {}
        }
        assert a.value == 0

    def test_enabled_flags(self):
        assert MetricsRegistry().enabled is True
        assert NullRegistry().enabled is False
        assert NULL_REGISTRY.enabled is False


class TestSpanTimer:
    def test_add_accumulates_totals_and_counts(self):
        timer = SpanTimer()
        assert timer.total("dispatch") == 0.0
        timer.add("dispatch", 2.5)
        timer.add("dispatch", 1.0)
        timer.add("transmit", 0.25)
        assert timer.total("dispatch") == pytest.approx(3.5)
        assert timer.totals == {"dispatch": 3.5, "transmit": 0.25}
        assert timer.counts == {"dispatch": 2, "transmit": 1}


class TestMetricsWriter:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        with MetricsWriter(path) as writer:
            writer.write({"record": "a", "value": 1})
            writer.write({"record": "b", "unicode": "départ→光"})
        records = read_metric_records(path)
        assert records == [
            {"record": "a", "value": 1},
            {"record": "b", "unicode": "départ→光"},
        ]

    def test_keys_are_sorted_per_line(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        with MetricsWriter(path) as writer:
            writer.write({"zeta": 1, "alpha": 2})
        line = path.read_text(encoding="utf-8").splitlines()[0]
        assert line.index('"alpha"') < line.index('"zeta"')

    def test_append_mode_extends(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        with MetricsWriter(path) as writer:
            writer.write({"n": 1})
        with MetricsWriter(path, mode="a") as writer:
            writer.write({"n": 2})
        assert [r["n"] for r in iter_metric_records(path)] == [1, 2]

    def test_bad_mode_rejected(self, tmp_path):
        with pytest.raises(ObservabilityError, match="mode"):
            MetricsWriter(tmp_path / "m.jsonl", mode="x")

    def test_write_outside_context_rejected(self, tmp_path):
        writer = MetricsWriter(tmp_path / "m.jsonl")
        with pytest.raises(ObservabilityError, match="outside its context"):
            writer.write({})

    def test_malformed_file_rejected(self, tmp_path):
        path = tmp_path / "m.jsonl"
        # Malformed *final* lines are the tear a killed writer leaves behind
        # and are dropped; malformed lines followed by more data are real
        # corruption and still fail with a positioned error.
        path.write_text('{"ok": 1}\nnot json\n', encoding="utf-8")
        assert read_metric_records(path) == [{"ok": 1}]
        path.write_text('{"ok": 1}\nnot json\n{"ok": 2}\n', encoding="utf-8")
        with pytest.raises(ObservabilityError, match=":2"):
            read_metric_records(path)
        path.write_text('[1, 2]\n', encoding="utf-8")
        with pytest.raises(ObservabilityError, match="non-object"):
            read_metric_records(path)
