"""The benchmark's three seeded workloads.

Each workload turns a seed into *cells* (set-up: topology built, packets
materialised or the grid expanded) and expands its cells into an
:class:`~repro.experiments.runner.ExperimentSpec` that
``ExperimentRunner(jobs=1)`` executes one cell at a time.  The program only
ever sees the generated packets.  Why each workload exists, which layer it
loads and which it bypasses is recorded in ``README.md`` beside this file.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional

from repro.core import OpportunisticLinkScheduler
from repro.experiments.runner import ExperimentSpec, ExperimentTask
from repro.scenarios import ScenarioMatrix
from repro.scenarios.library import list_scenarios
from repro.scenarios.spec import Scenario, TopologySpec, WorkloadSpec
from repro.simulation import EngineConfig, SimulationEngine, simulate
from repro.workloads import uniform_weights
from repro.workloads.adversarial import iter_saturated_pairs_workload

from bench_layers import Tracer

#: Engine slot budget: far above any cell here, so it never binds.
MAX_SLOTS = 10_000_000


def _projector(delay: int) -> TopologySpec:
    """The 64-rack ProjecToR fabric of benchmarks E16/E17."""
    return TopologySpec(
        "projector",
        {"num_racks": 64, "lasers_per_rack": 2, "photodetectors_per_rack": 2, "delay": delay},
    )


def _cell_seeds(seed: int, count: int) -> List[int]:
    return [seed * 10 + k for k in range(count)]


def _single_alg_task(task: ExperimentTask) -> Dict[str, Any]:
    """One cell: ALG alone through :func:`simulate`."""
    params = task.params
    result = simulate(
        params["topology"],
        OpportunisticLinkScheduler(),
        params["packets"],
        engine=params["engine"],
        max_slots=MAX_SLOTS,
    )
    return {"cell": params["cell"], "lane": "alg", **result.summary()}


def _shared_alg_task(task: ExperimentTask) -> List[Dict[str, Any]]:
    """One cell: identical ALG lanes through ``run_multi`` with a shared dispatch memo."""
    params = task.params
    engine = SimulationEngine(
        params["topology"], config=EngineConfig(engine=params["engine"], max_slots=MAX_SLOTS)
    )
    lanes = {f"alg{k}": OpportunisticLinkScheduler() for k in range(params["lanes"])}
    results = engine.run_multi(params["packets"], lanes)
    memo = [[stats["hits"], stats["misses"]] for stats in engine.last_shared_dispatch_stats]
    return [
        {"cell": params["cell"], "lane": name, "shared_dispatch": memo, **res.summary()}
        for name, res in results.items()
    ]


class DenseD4:
    """ALG alone on the E16 dense cell: every packet becomes 4 chunks."""

    name = "dense-d4"
    default_seed = 16
    cells_per_pass = 4
    packets_per_cell = 1000
    prefix_packets = 300

    def build(self, seed: int, tracer: Optional[Tracer] = None) -> List[Dict[str, Any]]:
        scenario = Scenario(
            name=self.name,
            description="receiver hotspot on 64 racks, edge delay 4",
            topology=_projector(delay=4),
            workload=WorkloadSpec(
                "contention-hotspot",
                {"num_packets": self.packets_per_cell, "side": "receiver",
                 "hot_fraction": 0.95, "arrival_rate": 8.0},
                weights=("uniform", 1, 10),
            ),
            policies=("alg",),
        )
        cells = []
        for cell, cell_seed in enumerate(_cell_seeds(seed, self.cells_per_pass)):
            topology, packets, _ = scenario.materialise(cell_seed)
            cells.append({"cell": cell, "topology": topology, "packets": list(packets)})
        return cells

    def spec(self, cells: List[Dict[str, Any]], engine: str = "indexed") -> ExperimentSpec:
        return ExperimentSpec(
            name=self.name,
            task_fn=_single_alg_task,
            grid=[{**cell, "engine": engine} for cell in cells],
        )

    def prefix_spec(self, cells: List[Dict[str, Any]], engine: str) -> ExperimentSpec:
        first = dict(cells[0], packets=cells[0]["packets"][: self.prefix_packets])
        return self.spec([first], engine)


class SaturatedPairs(DenseD4):
    """Two ALG lanes on the E17 saturated-pairs cell: deep per-edge queues."""

    name = "saturated-pairs"
    default_seed = 17
    cells_per_pass = 4
    packets_per_cell = 1500
    prefix_packets = 400
    lanes = 2
    topology = _projector(delay=4)

    def build(self, seed: int, tracer: Optional[Tracer] = None) -> List[Dict[str, Any]]:
        pull = iter if tracer is None else tracer.iterate
        cells = []
        for cell, cell_seed in enumerate(_cell_seeds(seed, self.cells_per_pass)):
            topology = self.topology.build(cell_seed)
            packets = iter_saturated_pairs_workload(
                topology,
                num_packets=self.packets_per_cell,
                num_pairs=8,
                hot_fraction=0.95,
                arrival_rate=8.0,
                weight_sampler=uniform_weights(1, 10),
                seed=cell_seed + 1,
            )
            cells.append({"cell": cell, "topology": topology, "packets": list(pull(packets))})
        return cells

    def spec(self, cells: List[Dict[str, Any]], engine: str = "indexed") -> ExperimentSpec:
        return ExperimentSpec(
            name=self.name,
            task_fn=_shared_alg_task,
            grid=[{**cell, "engine": engine, "lanes": self.lanes} for cell in cells],
        )


class ScenarioGrid:
    """The registry's ``full`` grid, every scenario replicated over cell seeds."""

    name = "scenario-grid"
    default_seed = 13
    replicas = 5
    prefix_cells = 8

    def build(self, seed: int, tracer: Optional[Tracer] = None) -> ScenarioMatrix:
        seeds = tuple(_cell_seeds(seed, self.replicas))
        return ScenarioMatrix(
            name="full",
            scenarios=tuple(dataclasses.replace(s, seeds=seeds) for s in list_scenarios()),
        )

    def spec(self, matrix: ScenarioMatrix, engine: str = "indexed") -> ExperimentSpec:
        return matrix.to_experiment_spec(mode="shared", retention="aggregate", engine=engine)

    def prefix_spec(self, matrix: ScenarioMatrix, engine: str) -> ExperimentSpec:
        spec = self.spec(matrix, engine)
        return dataclasses.replace(spec, grid=list(spec.grid)[: self.prefix_cells])


WORKLOADS = {w.name: w for w in (DenseD4(), SaturatedPairs(), ScenarioGrid())}


def cell_key(row: Dict[str, Any]) -> tuple:
    """The cell a result row belongs to (rows of one cell arrive together)."""
    return (row.get("scenario"), row.get("seed"), row.get("cell"))
