"""E13 — single-pass multi-policy evaluation of a scenario grid.

Engineering benchmark for the scenario-matrix subsystem: a 5-policy ×
3-workload grid on a large ProjecToR fabric is evaluated twice —

* per-policy loop: one ``simulate`` call per (cell, policy), each rebuilding
  the topology and regenerating the workload from seeds (the pre-scenario
  architecture and the shape every sweep used to have);
* ``ScenarioMatrix.run``: one task per cell whose policies all run through
  ``SimulationEngine.run_multi`` over one shared arrival stream, so the
  topology is built and the workload generated exactly once per cell.

The rows must be bit-identical; the shared pass must be at least 2× faster
wall-clock (measured best-of-3, as E11b does, so one scheduler hiccup on a
loaded CI runner cannot fail the build).
"""

from __future__ import annotations

import time

from repro.scenarios import Scenario, ScenarioMatrix, TopologySpec, WorkloadSpec
from repro.simulation import simulate

#: ALG and the four standard baselines — the E7 comparison set.
_POLICIES = ("alg", "fifo", "maxweight", "islip", "shortest-path")

#: A deliberately large fabric: cell setup (topology build + pair table +
#: workload generation) dominates the 100-packet simulations, which is the
#: regime the shared-stream pass is designed for.
_TOPOLOGY = TopologySpec(
    "projector", {"num_racks": 40, "lasers_per_rack": 2, "photodetectors_per_rack": 2}
)


def _matrix() -> ScenarioMatrix:
    scenarios = tuple(
        Scenario(
            name=f"e13-{kind}",
            description=f"E13 benchmark cell: {kind} on a 40-rack fabric",
            topology=_TOPOLOGY,
            workload=WorkloadSpec(kind, params, weights=("uniform", 1, 10)),
            policies=_POLICIES,
        )
        for kind, params in (
            ("zipf", {"num_packets": 100, "exponent": 1.2, "arrival_rate": 3.0}),
            ("hotspot", {"num_packets": 100, "num_hotspots": 2,
                         "hotspot_fraction": 0.6, "arrival_rate": 3.0}),
            ("bursty", {"num_packets": 100, "on_rate": 4.0}),
        )
    )
    return ScenarioMatrix(name="e13", scenarios=scenarios)


def _per_policy_rows(matrix: ScenarioMatrix) -> list:
    """One ``simulate`` per (cell, policy), each materialising the cell afresh."""
    rows = []
    for scenario, seed in matrix.cells():
        for name in scenario.policies:
            topology, packets, policies = scenario.materialise(seed)
            result = simulate(
                topology, policies[name], packets, speed=scenario.speed,
                max_slots=scenario.max_slots, engine=scenario.engine,
            )
            rows.append({
                "scenario": scenario.name, "seed": seed, "policy": name,
                "speed": scenario.speed, **result.summary(),
            })
    return rows


def test_e13_scenario_matrix_single_pass_speedup(report):
    """run_multi grid ≥2× faster than the per-policy loop, identical rows."""
    matrix = _matrix()

    def timed(run):
        start = time.perf_counter()
        rows = run()
        return time.perf_counter() - start, rows

    def per_policy():
        return _per_policy_rows(matrix)

    # Warm-up pair so first-import costs don't skew either side.
    timed(matrix.run)
    timed(per_policy)

    pairs = []
    rows_shared = rows_per_policy = None
    for _ in range(3):
        elapsed_shared, rows_shared = timed(matrix.run)
        elapsed_per_policy, rows_per_policy = timed(per_policy)
        pairs.append((elapsed_per_policy, elapsed_shared))

    assert rows_shared == rows_per_policy, (
        "shared-stream grid rows differ from the per-policy loop"
    )
    assert len(rows_shared) == len(_POLICIES) * 3

    best_per_policy, best_shared = max(pairs, key=lambda pair: pair[0] / pair[1])
    speedup = best_per_policy / best_shared
    report(
        "E13 scenario matrix: single-pass multi-policy grid",
        f"grid=5 policies x 3 workloads on 40 racks  "
        f"per-policy={best_per_policy * 1e3:.0f}ms  shared={best_shared * 1e3:.0f}ms  "
        f"best-of-3 speedup={speedup:.1f}x",
    )
    assert speedup >= 2.0, (
        f"shared-stream pass gave only {speedup:.2f}x (best of 3) over the "
        f"per-policy loop ({best_per_policy * 1e3:.0f}ms -> {best_shared * 1e3:.0f}ms)"
    )


def test_e13_rows_are_jobs_invariant(report):
    """The same grid fanned out over 4 worker processes yields identical rows."""
    matrix = _matrix()
    serial = matrix.run()
    parallel = matrix.run(jobs=4)
    assert serial == parallel
    winners = {
        (row["scenario"], row["seed"]): min(
            (r for r in serial if (r["scenario"], r["seed"]) == (row["scenario"], row["seed"])),
            key=lambda r: r["total_weighted_latency"],
        )["policy"]
        for row in serial
    }
    report(
        "E13 per-cell winners",
        "\n".join(f"{cell[0]}: {policy}" for cell, policy in sorted(winners.items())),
    )
