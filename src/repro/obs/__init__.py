"""Unified observability layer: metrics registry, span timing, JSONL emission.

Three small pieces compose into every instrumentation path in the
repository:

* :class:`~repro.obs.registry.MetricsRegistry` — deterministic labeled
  counters/gauges/histograms with a plain-dict snapshot, and its zero-cost
  twin :data:`~repro.obs.registry.NULL_REGISTRY` used whenever observability
  is off;
* :class:`~repro.obs.spans.SpanTimer` — named wall-clock span accumulation,
  the one timing path: the engine's slot-sampled phase spans, published as
  ``engine_phase_seconds`` gauges;
* :class:`~repro.obs.writer.MetricsWriter` — flushed utf-8 JSONL emission
  for snapshots and progress heartbeats, read back via
  :func:`~repro.obs.writer.iter_metric_records`.

Instruments record; they never influence the instrumented code.  That is
what lets the simulation engine promise bit-identical summaries with
observability enabled or disabled.
"""

from repro.obs.registry import (
    DEFAULT_BUCKETS,
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    log_spaced_buckets,
)
from repro.obs.spans import SpanTimer
from repro.obs.writer import MetricsWriter, iter_metric_records, read_metric_records

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "DEFAULT_BUCKETS",
    "log_spaced_buckets",
    "SpanTimer",
    "MetricsWriter",
    "iter_metric_records",
    "read_metric_records",
]
