"""E18 — observability overhead: metrics + spans must be (nearly) free.

PR 9's instrumentation promises two things the engine's hot loops depend on:

* **bit-identity** — a run with a live :class:`~repro.obs.MetricsRegistry`,
  slot-sampled phase spans and a metrics-snapshot file produces exactly the
  same summary as a plain run (the instruments only record);
* **bounded cost** — the enabled instrumentation adds at most
  ``REPRO_E18_MAX_OVERHEAD`` fractional wall-clock overhead on a dense
  cell, and the disabled default (the shared ``NULL_REGISTRY``) costs
  nothing measurable because every hot-path hook hides behind one boolean.

The comparison reuses the E15 receiver-hotspot cell so the overhead is
measured where the per-slot loop is genuinely busy, under the indexed
engine (the production default).  Both configurations are timed
back-to-back on the same process and inputs, in three interleaved
plain/observed pairs, and each side counts its best run; the plain run goes
first so a cold allocator penalises the *uninstrumented* side if anything.

Environment knobs (the CI smoke step shrinks the cell and relaxes the
threshold; the defaults are the full-size assertions):

* ``REPRO_E18_PACKETS`` — workload size;
* ``REPRO_E18_RACKS`` — fabric size;
* ``REPRO_E18_SPAN_STRIDE`` — phase-span sampling stride (0 disables spans);
* ``REPRO_E18_MAX_OVERHEAD`` — maximum fractional slowdown with obs on.
"""

from __future__ import annotations

import gc
import os
import time

from repro.core import OpportunisticLinkScheduler
from repro.network import projector_fabric
from repro.obs import MetricsRegistry, read_metric_records
from repro.simulation import simulate
from repro.workloads import uniform_weights
from repro.workloads.adversarial import iter_contention_hotspot_workload

E18_PACKETS = int(os.environ.get("REPRO_E18_PACKETS", "3000"))
E18_RACKS = int(os.environ.get("REPRO_E18_RACKS", "48"))
E18_SPAN_STRIDE = int(os.environ.get("REPRO_E18_SPAN_STRIDE", "16"))
E18_MAX_OVERHEAD = float(os.environ.get("REPRO_E18_MAX_OVERHEAD", "0.25"))
E18_REPEATS = 3


def _dense_cell(num_packets: int = E18_PACKETS, num_racks: int = E18_RACKS,
                seed: int = 15):
    topology = projector_fabric(
        num_racks=num_racks, lasers_per_rack=2, photodetectors_per_rack=2, seed=seed
    )
    packets = list(
        iter_contention_hotspot_workload(
            topology,
            num_packets=num_packets,
            side="receiver",
            hot_fraction=0.95,
            arrival_rate=8.0,
            weight_sampler=uniform_weights(1, 10),
            seed=seed + 1,
        )
    )
    return topology, packets


def test_e18_obs_overhead_bounded_and_bit_identical(
    run_once, report, tmp_path
) -> None:
    """Full instrumentation stays under the overhead bound, bit-identically."""
    topology, packets = _dense_cell()
    metrics_path = tmp_path / "metrics.jsonl"

    def timed(**obs_kwargs):
        # Each timed run starts from a freshly collected heap, so a full
        # collection of objects left by earlier runs cannot land in one
        # run and not the other.
        gc.collect()
        start = time.perf_counter()
        result = simulate(
            topology, OpportunisticLinkScheduler(), packets,
            engine="indexed", max_slots=10_000_000, **obs_kwargs,
        )
        return time.perf_counter() - start, result.summary()

    def compare():
        # Best of E18_REPEATS interleaved plain/observed pairs per side: a
        # single shot lets one scheduling hiccup on a shared machine decide
        # the ratio.
        plain_times, observed_times, observed_summaries = [], [], []
        for _ in range(E18_REPEATS):
            plain_s, plain_summary = timed()
            registry = MetricsRegistry()
            observed_s, observed_summary = timed(
                obs=registry, span_stride=E18_SPAN_STRIDE, metrics_path=str(metrics_path)
            )
            plain_times.append(plain_s)
            observed_times.append(observed_s)
            observed_summaries.append(observed_summary)
        return (
            min(plain_times), plain_summary, min(observed_times), observed_summaries, registry
        )

    plain_s, plain_summary, observed_s, observed_summaries, registry = run_once(compare)
    overhead = observed_s / plain_s - 1.0
    counters = registry.snapshot()["counters"]
    arrived = sum(
        value for key, value in counters.items()
        if key.startswith("engine_packets_arrived{")
    )
    report(
        "E18 observability overhead",
        f"cell: {E18_RACKS} racks, {len(packets)} packets (receiver hotspot)\n"
        f"plain: {plain_s:.2f}s   instrumented: {observed_s:.2f}s   "
        f"overhead: {overhead * 100:+.1f}% (bound {E18_MAX_OVERHEAD * 100:.0f}%)\n"
        f"recorded: {len(counters)} counter series, "
        f"{arrived} packets counted, span stride {E18_SPAN_STRIDE}",
    )
    for observed_summary in observed_summaries:
        assert observed_summary == plain_summary, (
            "instrumented run diverged from the plain run\n"
            f"plain:      {plain_summary}\ninstrumented: {observed_summary}"
        )
    assert arrived == len(packets)
    (record,) = read_metric_records(metrics_path)
    assert record["snapshot"] == registry.snapshot()
    assert overhead <= E18_MAX_OVERHEAD, (
        f"observability overhead {overhead * 100:.1f}% exceeds the "
        f"{E18_MAX_OVERHEAD * 100:.0f}% bound "
        f"(plain {plain_s:.2f}s vs instrumented {observed_s:.2f}s)"
    )
