"""E16 — scheduler scalability: incremental stable-matching repair.

The per-slot hot path of the paper's algorithm is the greedy stable-matching
pass over all eligible chunks.  This benchmark pins the incremental matching
repairer (``repro.core.matching_index``) against the from-scratch greedy
pass on a dense 64-rack receiver-hotspot cell whose long edge delay splits
every packet into ``d(e)`` chunks — a deep, long-lived pending pool, the
worst case for a per-slot full pass and the best case for delta repair.

Both configurations run under ``engine="indexed"`` and differ *only* in the
scheduler (``OpportunisticLinkScheduler(incremental_scheduler=...)``), so the
end-to-end ratio isolates the scheduler change; a phase breakdown from
:func:`repro.simulation.timed_policy` additionally pins the speedup of the
``select_matching`` phase itself.  Summaries must be bit-identical — the
repairer replays exactly the matchings the from-scratch pass would produce.

Measured at the default size on a shared 2-CPU x86-64 host (CPython 3.11),
with per-port matching scans and cached priority keys: 4.5–5.4× end to end
(flat 8.3–9.2 s, incremental 1.55–2.05 s) and 20–28× on the scheduler
phase, over two runs.  The earlier per-edge scan layout measured
2.6× / 4.2× on the same host.  The asserted thresholds below stay at
2× / 2.5×.

Environment knobs (the CI smoke step shrinks the cell and relaxes the
thresholds; the defaults are the full-size assertions):

* ``REPRO_E16_PACKETS`` — workload size;
* ``REPRO_E16_RACKS`` — fabric size (≥64 by default);
* ``REPRO_E16_DELAY`` — uniform reconfigurable-edge delay (chunks/packet);
* ``REPRO_E16_MIN_SPEEDUP`` / ``REPRO_E16_PHASE_MIN_SPEEDUP`` — thresholds.
"""

from __future__ import annotations

import os
import time

from repro.core import OpportunisticLinkScheduler
from repro.network import projector_fabric
from repro.simulation import simulate, timed_policy
from repro.workloads import uniform_weights
from repro.workloads.adversarial import iter_contention_hotspot_workload

E16_PACKETS = int(os.environ.get("REPRO_E16_PACKETS", "5000"))
E16_RACKS = int(os.environ.get("REPRO_E16_RACKS", "64"))
E16_DELAY = int(os.environ.get("REPRO_E16_DELAY", "4"))
E16_MIN_SPEEDUP = float(os.environ.get("REPRO_E16_MIN_SPEEDUP", "2.0"))
E16_PHASE_MIN_SPEEDUP = float(os.environ.get("REPRO_E16_PHASE_MIN_SPEEDUP", "2.5"))


def _dense_cell(num_packets: int, num_racks: int = E16_RACKS, seed: int = 16):
    """A receiver-hotspot cell with ``d(e) = E16_DELAY`` chunks per packet.

    The hotspot's photodetectors drain the pool two chunks per slot while
    arrivals outpace them, so the eligible set grows into the tens of
    thousands and persists across thousands of slots — every from-scratch
    greedy pass walks all of it, while the repairer touches only the slot's
    completions and activations.
    """
    topology = projector_fabric(
        num_racks=num_racks,
        lasers_per_rack=2,
        photodetectors_per_rack=2,
        delay=E16_DELAY,
        seed=seed,
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


def test_e16_incremental_vs_flat_scheduler(run_once, report) -> None:
    """The matching repairer is ≥Nx faster than the full pass, bit-identically."""
    topology, packets = _dense_cell(E16_PACKETS)

    def compare():
        out = {}
        for label, incremental in (("flat", False), ("incremental", True)):
            policy, timings = timed_policy(
                OpportunisticLinkScheduler(incremental_scheduler=incremental)
            )
            start = time.perf_counter()
            result = simulate(
                topology, policy, packets, engine="indexed", max_slots=10_000_000
            )
            total = time.perf_counter() - start
            out[label] = (total, timings, result.summary())
        return out

    out = run_once(compare)
    flat_total, flat_phases, flat_summary = out["flat"]
    incr_total, incr_phases, incr_summary = out["incremental"]
    e2e_speedup = flat_total / incr_total
    phase_speedup = flat_phases.scheduler_s / incr_phases.scheduler_s
    report(
        "E16 scheduler scale: incremental repair vs from-scratch pass",
        f"cell: {E16_RACKS} racks, {len(packets)} packets, edge delay {E16_DELAY}\n"
        f"end-to-end      : flat {flat_total:.2f}s   incremental {incr_total:.2f}s   "
        f"speedup {e2e_speedup:.1f}x\n"
        f"scheduler phase : flat {flat_phases.scheduler_s:.2f}s   "
        f"incremental {incr_phases.scheduler_s:.2f}s   speedup {phase_speedup:.1f}x\n"
        f"phase breakdown (incremental): {incr_phases.breakdown(incr_total)}",
    )
    # Bit-identity comes first: a fast scheduler that schedules differently
    # is a bug, not a win.
    assert incr_summary == flat_summary, (
        "incremental matching repair diverged from the from-scratch pass\n"
        f"flat:        {flat_summary}\nincremental: {incr_summary}"
    )
    assert e2e_speedup >= E16_MIN_SPEEDUP, (
        f"incremental scheduler only {e2e_speedup:.2f}x faster end-to-end "
        f"(needed {E16_MIN_SPEEDUP}x) on a {E16_RACKS}-rack dense cell"
    )
    assert phase_speedup >= E16_PHASE_MIN_SPEEDUP, (
        f"select_matching phase only {phase_speedup:.2f}x faster "
        f"(needed {E16_PHASE_MIN_SPEEDUP}x) on a {E16_RACKS}-rack dense cell"
    )
