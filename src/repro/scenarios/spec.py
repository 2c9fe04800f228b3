"""Declarative scenario specifications and the scenario matrix.

A *scenario* names one reproducible experiment cell family: a topology
recipe, a workload recipe, the policies to race on it and the seeds to
repeat it with.  Everything is plain data — string kinds plus primitive
parameters — so scenarios can be registered declaratively, listed from the
CLI, fingerprinted for golden tests and pickled verbatim into
:class:`~repro.experiments.runner.ExperimentRunner` worker processes.

The expansion chain is::

    Scenario ──(seeds)──▶ cells ──ScenarioMatrix.to_experiment_spec()──▶
        ExperimentSpec ──ExperimentRunner──▶ one row per (cell, policy)

Each cell builds its topology and workload from seeds derived *only* from
the scenario name and the cell seed, so a scenario's rows are identical no
matter which matrix (or grid, or jobs count) it runs in.  In the default
``mode="shared"`` a cell evaluates all of its policies through
:meth:`~repro.simulation.engine.SimulationEngine.run_multi` — one workload
generation feeding every policy — while ``mode="per-policy"`` replays the
historical architecture (one task per (cell, policy), each regenerating the
instance) and produces bit-identical rows; benchmark E13 races the two.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.baselines.policies import all_policies
from repro.core.interfaces import Policy
from repro.core.packet import Packet
from repro.exceptions import ScenarioError, TopologyError
from repro.experiments.runner import ExperimentSpec, ExperimentTask, run_experiment
from repro.faults import ON_FAIL_MODES, FaultSchedule, seeded_fault_schedule
from repro.network.builders import (
    add_uniform_fixed_links,
    figure1_topology,
    figure2_topology,
    projector_fabric,
    random_bipartite,
    single_tier_crossbar,
)
from repro.network.topology import TwoTierTopology
from repro.simulation.engine import ENGINE_MODES, EngineConfig, SimulationEngine
from repro.simulation.results import SimulationResult
from repro.utils.rng import SeedSequenceFactory
from repro.workloads.adversarial import (
    iter_contention_hotspot_workload,
    iter_heavy_tailed_incast_workload,
    iter_priority_inversion_workload,
)
from repro.workloads.bursty import iter_bursty_workload, iter_incast_workload
from repro.workloads.paper_figures import iter_figure1_packets, iter_figure2_packets_pi
from repro.workloads.skewed import iter_elephant_mice_workload, iter_zipf_workload
from repro.workloads.synthetic import (
    iter_all_to_all_workload,
    iter_hotspot_workload,
    iter_permutation_workload,
    iter_uniform_random_workload,
)
from repro.workloads.trace_io import iter_packet_trace, iter_packet_trace_jsonl
from repro.workloads.weights import (
    WeightSampler,
    bimodal_weights,
    constant_weights,
    pareto_weights,
    uniform_weights,
)

__all__ = [
    "TopologySpec",
    "WorkloadSpec",
    "Scenario",
    "ScenarioMatrix",
    "resolve_weight_sampler",
    "resolve_policies",
]

SCENARIO_MODES = ("shared", "per-policy")


# ---------------------------------------------------------------------- #
# weight-sampler specs
# ---------------------------------------------------------------------- #
_WEIGHT_KINDS: Dict[str, Callable[..., WeightSampler]] = {
    "constant": constant_weights,
    "uniform": uniform_weights,
    "pareto": pareto_weights,
    "bimodal": bimodal_weights,
}


def resolve_weight_sampler(spec: Optional[Sequence[Any]]) -> Optional[WeightSampler]:
    """Turn a declarative weight spec into a sampler callable.

    ``spec`` is ``None`` (generator default) or a tuple whose head names the
    sampler family and whose tail holds its positional parameters, e.g.
    ``("uniform", 1, 10)`` or ``("pareto", 1.5)``.  Samplers are closures and
    hence unpicklable, which is why scenarios carry this data form instead.
    """
    if spec is None:
        return None
    if not spec or spec[0] not in _WEIGHT_KINDS:
        raise ScenarioError(
            f"unknown weight spec {tuple(spec)!r}; expected head in "
            f"{sorted(_WEIGHT_KINDS)}"
        )
    return _WEIGHT_KINDS[spec[0]](*spec[1:])


# ---------------------------------------------------------------------- #
# topology specs
# ---------------------------------------------------------------------- #
def _cross_rack(source: str, destination: str) -> bool:
    """Fixed links only between distinct racks (module-level for pickling)."""
    return source.split(":")[0] != destination.split(":")[0]


#: kind -> (builder, accepts a ``seed`` keyword)
_TOPOLOGY_KINDS: Dict[str, Tuple[Callable[..., TwoTierTopology], bool]] = {
    "projector": (projector_fabric, True),
    "random-bipartite": (random_bipartite, True),
    "crossbar": (single_tier_crossbar, False),
    "figure1": (figure1_topology, False),
    "figure2": (figure2_topology, False),
}


@dataclass(frozen=True)
class TopologySpec:
    """Declarative recipe for a topology.

    Attributes
    ----------
    kind:
        One of ``projector``, ``random-bipartite``, ``crossbar``,
        ``figure1``, ``figure2``.
    params:
        Keyword arguments for the corresponding builder in
        :mod:`repro.network.builders` (primitives only).
    fixed_link_delay:
        When set, uniform fixed links of this delay are added between every
        cross-rack (source, destination) pair, turning the fabric into a
        hybrid one.
    """

    kind: str
    params: Mapping[str, Any] = field(default_factory=dict)
    fixed_link_delay: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in _TOPOLOGY_KINDS:
            raise ScenarioError(
                f"unknown topology kind {self.kind!r}; expected one of "
                f"{sorted(_TOPOLOGY_KINDS)}"
            )

    def build(self, seed: Optional[int] = None) -> TwoTierTopology:
        """Materialise the topology (deterministically for a fixed seed)."""
        builder, seeded = _TOPOLOGY_KINDS[self.kind]
        kwargs = dict(self.params)
        if seeded:
            kwargs.setdefault("seed", seed)
        topology = builder(**kwargs)
        if self.fixed_link_delay is not None:
            topology = add_uniform_fixed_links(
                topology, delay=self.fixed_link_delay, pair_filter=_cross_rack
            )
        return topology


# ---------------------------------------------------------------------- #
# workload specs
# ---------------------------------------------------------------------- #
#: kind -> (iter builder, accepts a ``weight_sampler`` keyword)
_WORKLOAD_KINDS: Dict[str, Tuple[Callable[..., Iterator[Packet]], bool]] = {
    "uniform": (iter_uniform_random_workload, True),
    "permutation": (iter_permutation_workload, True),
    "all-to-all": (iter_all_to_all_workload, True),
    "hotspot": (iter_hotspot_workload, True),
    "zipf": (iter_zipf_workload, True),
    "elephant-mice": (iter_elephant_mice_workload, False),
    "bursty": (iter_bursty_workload, True),
    "incast": (iter_incast_workload, True),
    "priority-inversion": (iter_priority_inversion_workload, False),
    "contention-hotspot": (iter_contention_hotspot_workload, True),
    "heavy-tailed-incast": (iter_heavy_tailed_incast_workload, False),
}

#: deterministic packet sets (no topology/seed parameters)
_FIXED_WORKLOAD_KINDS: Dict[str, Callable[[], Iterator[Packet]]] = {
    "figure1-packets": iter_figure1_packets,
    "figure2-packets": iter_figure2_packets_pi,
}

#: keys the trace-replay workload kind accepts in ``params``
_TRACE_PARAM_KEYS = frozenset({"path"})


def _check_replay_routable(
    packets: Iterator[Packet], topology: TwoTierTopology, path: str
) -> Iterator[Packet]:
    """Yield replayed packets, rejecting any the topology cannot route.

    Generated workloads draw their endpoints from the topology, so they are
    routable by construction; a replayed trace was recorded on *some*
    topology and deserves the explicit check — a mismatched recipe should
    fail with a clear diagnostic, not deep inside the engine.
    """
    for packet in packets:
        try:
            routable = topology.can_route(packet.source, packet.destination)
        except TopologyError:
            # can_route raises (rather than returning False) for endpoints
            # the topology has never heard of.
            routable = False
        if not routable:
            raise ScenarioError(
                f"trace {path}: packet {packet.packet_id} "
                f"({packet.source} -> {packet.destination}) is not routable on "
                f"topology {topology.name!r}; the scenario's topology spec does "
                "not match the one the trace was recorded on"
            )
        yield packet


@dataclass(frozen=True)
class WorkloadSpec:
    """Declarative recipe for an online packet sequence.

    Attributes
    ----------
    kind:
        A generator kind from :mod:`repro.workloads` (``uniform``, ``zipf``,
        ``bursty``, ``priority-inversion``, …), a deterministic packet set
        (``figure1-packets``, ``figure2-packets``) or ``trace`` — replaying
        a recorded packet trace (``params={"path": …}``, ``.jsonl`` or
        ``.csv`` as written by :mod:`repro.workloads.trace_io`), which makes
        recorded or search-discovered workloads first-class scenarios.
    params:
        Keyword arguments for the generator (primitives only).
    weights:
        Optional declarative weight-sampler spec, e.g. ``("uniform", 1, 10)``
        — see :func:`resolve_weight_sampler`.
    """

    kind: str
    params: Mapping[str, Any] = field(default_factory=dict)
    weights: Optional[Tuple[Any, ...]] = None

    def __post_init__(self) -> None:
        if self.kind == "trace":
            # A replayed trace is already a fixed packet sequence: it takes a
            # path, and nothing that could silently alter the replay.
            unknown = set(self.params) - _TRACE_PARAM_KEYS
            if "path" not in self.params:
                raise ScenarioError(
                    "workload kind 'trace' requires params={'path': <trace file>}"
                )
            if unknown:
                raise ScenarioError(
                    f"workload kind 'trace' got unknown params {sorted(unknown)}; "
                    f"accepted: {sorted(_TRACE_PARAM_KEYS)}"
                )
            if self.weights is not None:
                raise ScenarioError(
                    "workload kind 'trace' replays recorded weights and "
                    "accepts no weight sampler"
                )
            return
        if self.kind in _FIXED_WORKLOAD_KINDS:
            # Deterministic packet sets take no parameters; accepting (and
            # silently dropping) them would make a misconfigured scenario
            # run with the wrong workload without any diagnostic.
            if self.params or self.weights is not None:
                raise ScenarioError(
                    f"workload kind {self.kind!r} is a fixed packet set and "
                    "accepts no params or weights"
                )
            return
        if self.kind not in _WORKLOAD_KINDS:
            raise ScenarioError(
                f"unknown workload kind {self.kind!r}; expected one of "
                f"{sorted(_WORKLOAD_KINDS) + sorted(_FIXED_WORKLOAD_KINDS) + ['trace']}"
            )
        if self.weights is not None and not _WORKLOAD_KINDS[self.kind][1]:
            raise ScenarioError(
                f"workload kind {self.kind!r} does not take a weight sampler; "
                "its weights are part of the generator's own parameters"
            )

    def build_iter(
        self, topology: TwoTierTopology, seed: Optional[int] = None
    ) -> Iterator[Packet]:
        """Lazily yield the scenario's packets on ``topology``."""
        if self.kind == "trace":
            path = str(self.params["path"])
            packets = (
                iter_packet_trace(path) if path.endswith(".csv")
                else iter_packet_trace_jsonl(path)
            )
            return _check_replay_routable(packets, topology, path)
        if self.kind in _FIXED_WORKLOAD_KINDS:
            return _FIXED_WORKLOAD_KINDS[self.kind]()
        builder, takes_sampler = _WORKLOAD_KINDS[self.kind]
        kwargs = dict(self.params)
        kwargs.setdefault("seed", seed)
        if takes_sampler and self.weights is not None:
            kwargs.setdefault("weight_sampler", resolve_weight_sampler(self.weights))
        return builder(topology, **kwargs)

    def build(
        self, topology: TwoTierTopology, seed: Optional[int] = None
    ) -> List[Packet]:
        """Materialised form of :meth:`build_iter`."""
        return list(self.build_iter(topology, seed=seed))


# ---------------------------------------------------------------------- #
# policies
# ---------------------------------------------------------------------- #
def resolve_policies(names: Sequence[str], seed: Optional[int] = None) -> Dict[str, Policy]:
    """Fresh policy objects for ``names`` (in order), seeded deterministically."""
    catalogue = all_policies(seed=seed or 0, include_direct_first=True)
    unknown = [name for name in names if name not in catalogue]
    if unknown:
        raise ScenarioError(
            f"unknown policies {unknown!r}; choose from {sorted(catalogue)}"
        )
    return {name: catalogue[name] for name in names}


# ---------------------------------------------------------------------- #
# scenarios
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class Scenario:
    """One named, fully declarative experiment cell family.

    Attributes
    ----------
    name:
        Registry key and row label.
    description:
        One line shown by ``repro scenarios list``.
    topology, workload:
        The declarative recipes.
    policies:
        Policy names (see :func:`repro.baselines.all_policies`) raced on the
        scenario; in shared mode they run through ``run_multi`` over one
        arrival stream.
    speed:
        Engine speed augmentation.
    seeds:
        Cell seeds; the scenario expands into one cell per seed.
    tags:
        Free-form labels used by grids and ``list --tag``.
    max_slots:
        Engine safety bound.
    seed_key:
        Name used for topology/workload/policy seed derivation (defaults to
        ``name``).  Variant scenarios that must share *exactly* the same
        cells as a base scenario — e.g. a speed-augmentation grid running
        one instance at several speeds — set this to the base scenario's
        name, so only the engine configuration differs between variants.
    engine:
        Hot-path backend for dispatch *and* scheduling (``"indexed"`` or
        ``"reference"``, see :class:`~repro.simulation.engine.EngineConfig`):
        ``"indexed"`` enables the incremental impact index and the
        incremental matching repairer, ``"reference"`` the O(n) scans.
        Results of the two engines are bit-identical, so this is a
        performance knob, overridable per run through
        :meth:`ScenarioMatrix.to_experiment_spec`.
    faults:
        Optional explicit :class:`~repro.faults.FaultSchedule` injected into
        every cell's engine.  Only usable when the topology spec is
        deterministic enough that the named hardware exists in every cell.
    fault_seed:
        When set, each cell generates its own fault schedule from the
        materialised topology via
        :func:`~repro.faults.seeded_fault_schedule`, with a schedule seed
        derived from ``(fault_seed, seed key, cell seed)`` — deterministic
        across jobs counts and safe for seed-dependent topologies.
        Mutually exclusive with ``faults``.
    on_fail:
        Degradation policy for chunks stranded on failed hardware
        (``"requeue"``, ``"drop"`` or ``"redispatch"``, see
        :class:`~repro.simulation.engine.EngineConfig`).
    """

    name: str
    description: str
    topology: TopologySpec
    workload: WorkloadSpec
    policies: Tuple[str, ...] = ("alg", "fifo", "maxweight", "islip", "shortest-path")
    speed: float = 1.0
    seeds: Tuple[int, ...] = (0,)
    tags: Tuple[str, ...] = ()
    max_slots: int = 1_000_000
    seed_key: Optional[str] = None
    engine: str = "indexed"
    faults: Optional[FaultSchedule] = None
    fault_seed: Optional[int] = None
    on_fail: str = "requeue"

    def __post_init__(self) -> None:
        if not self.name:
            raise ScenarioError("scenario name must be non-empty")
        if not self.policies:
            raise ScenarioError(f"scenario {self.name!r} lists no policies")
        if not self.seeds:
            raise ScenarioError(f"scenario {self.name!r} lists no seeds")
        if self.engine not in ENGINE_MODES:
            raise ScenarioError(
                f"scenario {self.name!r}: engine must be one of {ENGINE_MODES}, "
                f"got {self.engine!r}"
            )
        if self.faults is not None and not isinstance(self.faults, FaultSchedule):
            raise ScenarioError(
                f"scenario {self.name!r}: faults must be a FaultSchedule, "
                f"got {type(self.faults).__name__}"
            )
        if self.faults is not None and self.fault_seed is not None:
            raise ScenarioError(
                f"scenario {self.name!r}: faults and fault_seed are mutually "
                "exclusive"
            )
        if self.on_fail not in ON_FAIL_MODES:
            raise ScenarioError(
                f"scenario {self.name!r}: on_fail must be one of {ON_FAIL_MODES}, "
                f"got {self.on_fail!r}"
            )

    def materialise(
        self, seed: int
    ) -> Tuple[TwoTierTopology, Iterator[Packet], Dict[str, Policy]]:
        """Build one cell: ``(topology, lazy packet stream, fresh policies)``.

        All randomness derives only from (seed key, cell seed) — the seed
        key defaults to the scenario name — so a scenario's cells are
        identical no matter which matrix or grid they run in, two scenarios
        sharing a cell seed still draw independent topologies and workloads,
        and variants sharing a ``seed_key`` (the speed-augmentation grid)
        replay exactly the same instances.
        """
        key = self.seed_key or self.name
        factory = SeedSequenceFactory(seed)
        topology = self.topology.build(factory.integer_seed("topology", key))
        packets = self.workload.build_iter(
            topology, factory.integer_seed("workload", key)
        )
        policies = resolve_policies(
            self.policies, factory.integer_seed("policies", key)
        )
        return topology, packets, policies


def _summary_row(
    scenario: Scenario, seed: int, policy_name: str, result: SimulationResult
) -> Dict[str, Any]:
    """One output row of a scenario cell (plain JSON-serialisable dict)."""
    row: Dict[str, Any] = {
        "scenario": scenario.name,
        "seed": seed,
        "policy": policy_name,
        "speed": scenario.speed,
    }
    row.update(result.summary())
    return row


def _resolve_cell_faults(
    scenario: Scenario, task: ExperimentTask, topology: TwoTierTopology, seed: int
) -> Tuple[Optional[FaultSchedule], str]:
    """The ``(fault schedule, on_fail)`` pair for one cell.

    A run-level ``faults_seed`` (``repro scenarios run --faults``) overrides
    the scenario's own fault configuration; schedule seeds are derived from
    ``(faults seed, seed key, cell seed)`` so the same cell sees the same
    faults no matter which grid or jobs count runs it.
    """
    on_fail = task.params.get("on_fail") or scenario.on_fail
    fault_seed = task.params.get("faults_seed")
    if fault_seed is None:
        fault_seed = scenario.fault_seed
        if fault_seed is None:
            return scenario.faults, on_fail
    key = scenario.seed_key or scenario.name
    schedule_seed = SeedSequenceFactory(fault_seed).integer_seed("faults", key, seed)
    # Four events (vs the generator's default two) so small cells still see
    # traffic actually stranded by a failure, not just masked edges.
    return seeded_fault_schedule(topology, seed=schedule_seed, num_faults=4), on_fail


def _fault_row_fields(
    row: Dict[str, Any], faults: Optional[FaultSchedule], on_fail: str
) -> Dict[str, Any]:
    """Annotate a summary row with its fault configuration (faulted cells only).

    Fault-free rows keep the historical key set, so golden fingerprints and
    existing result files are unaffected.
    """
    if faults is not None:
        row["num_fault_events"] = len(faults)
        row["on_fail"] = on_fail
    return row


def _scenario_cell_task(task: ExperimentTask) -> List[Dict[str, Any]]:
    """Shared mode: one task per cell, all policies over one arrival stream."""
    scenario: Scenario = task.params["scenario"]
    seed: int = task.params["seed"]
    retention: str = task.params.get("retention", "full")
    engine_mode: str = task.params.get("engine") or scenario.engine
    topology, packets, policies = scenario.materialise(seed)
    faults, on_fail = _resolve_cell_faults(scenario, task, topology, seed)
    engine = SimulationEngine(
        topology,
        config=EngineConfig(
            speed=scenario.speed,
            max_slots=scenario.max_slots,
            retention=retention,
            engine=engine_mode,
            faults=faults,
            on_fail=on_fail,
        ),
    )
    results = engine.run_multi(packets, policies)
    return [
        _fault_row_fields(_summary_row(scenario, seed, name, results[name]), faults, on_fail)
        for name in policies
    ]


def _scenario_policy_task(task: ExperimentTask) -> Dict[str, Any]:
    """Per-policy mode: one task per (cell, policy), regenerating the instance."""
    scenario: Scenario = task.params["scenario"]
    seed: int = task.params["seed"]
    policy_name: str = task.params["policy_name"]
    retention: str = task.params.get("retention", "full")
    engine_mode: str = task.params.get("engine") or scenario.engine
    topology, packets, policies = scenario.materialise(seed)
    faults, on_fail = _resolve_cell_faults(scenario, task, topology, seed)
    engine = SimulationEngine(
        topology,
        policies[policy_name],
        EngineConfig(
            speed=scenario.speed,
            max_slots=scenario.max_slots,
            retention=retention,
            engine=engine_mode,
            faults=faults,
            on_fail=on_fail,
        ),
    )
    return _fault_row_fields(
        _summary_row(scenario, seed, policy_name, engine.run(packets)), faults, on_fail
    )


@dataclass(frozen=True)
class ScenarioMatrix:
    """A named collection of scenarios expanded into runnable experiment specs."""

    name: str
    scenarios: Tuple[Scenario, ...]

    def __post_init__(self) -> None:
        seen: set = set()
        for scenario in self.scenarios:
            if scenario.name in seen:
                raise ScenarioError(
                    f"matrix {self.name!r} contains scenario {scenario.name!r} twice"
                )
            seen.add(scenario.name)

    @property
    def num_cells(self) -> int:
        """Number of (scenario, seed) cells in the matrix."""
        return sum(len(s.seeds) for s in self.scenarios)

    @property
    def num_runs(self) -> int:
        """Number of (scenario, seed, policy) simulation runs in the matrix."""
        return sum(len(s.seeds) * len(s.policies) for s in self.scenarios)

    def cells(self) -> List[Tuple[Scenario, int]]:
        """Every (scenario, seed) cell, in declaration order."""
        return [(s, seed) for s in self.scenarios for seed in s.seeds]

    def to_experiment_spec(
        self,
        mode: str = "shared",
        retention: str = "full",
        engine: Optional[str] = None,
        faults_seed: Optional[int] = None,
        on_fail: Optional[str] = None,
    ) -> ExperimentSpec:
        """Expand the matrix into an :class:`ExperimentSpec`.

        ``mode="shared"`` (default) makes one task per cell and evaluates all
        of the cell's policies in a single ``run_multi`` pass;
        ``mode="per-policy"`` makes one task per (cell, policy), each
        rebuilding topology and workload — same rows, the pre-scenario
        architecture.  ``engine`` overrides every scenario's hot-path backend
        for dispatch and scheduling (``None`` keeps each scenario's own).
        ``faults_seed`` injects a deterministic per-cell fault schedule into
        every cell (overriding any scenario-level fault configuration) and
        ``on_fail`` overrides the degradation policy.  Row order and
        contents are identical across modes, engines and jobs counts.
        """
        if mode not in SCENARIO_MODES:
            raise ScenarioError(f"mode must be one of {SCENARIO_MODES}, got {mode!r}")
        if engine is not None and engine not in ENGINE_MODES:
            raise ScenarioError(f"engine must be one of {ENGINE_MODES}, got {engine!r}")
        if on_fail is not None and on_fail not in ON_FAIL_MODES:
            raise ScenarioError(
                f"on_fail must be one of {ON_FAIL_MODES}, got {on_fail!r}"
            )
        common = {"retention": retention, "engine": engine}
        if faults_seed is not None:
            common["faults_seed"] = faults_seed
        if on_fail is not None:
            common["on_fail"] = on_fail
        if mode == "shared":
            grid = [
                {"scenario": scenario, "seed": seed, **common}
                for scenario, seed in self.cells()
            ]
            return ExperimentSpec(
                name=f"scenarios-{self.name}", task_fn=_scenario_cell_task, grid=grid
            )
        grid = [
            {
                "scenario": scenario,
                "seed": seed,
                "policy_name": policy_name,
                **common,
            }
            for scenario, seed in self.cells()
            for policy_name in scenario.policies
        ]
        return ExperimentSpec(
            name=f"scenarios-{self.name}", task_fn=_scenario_policy_task, grid=grid
        )

    def run(
        self,
        jobs: int = 1,
        chunksize: int = 1,
        mode: str = "shared",
        retention: str = "full",
        engine: Optional[str] = None,
        output_path: Optional[str] = None,
        faults_seed: Optional[int] = None,
        on_fail: Optional[str] = None,
    ) -> List[Dict[str, Any]]:
        """Run every cell and return one row per (scenario, seed, policy)."""
        return run_experiment(
            self.to_experiment_spec(
                mode=mode, retention=retention, engine=engine,
                faults_seed=faults_seed, on_fail=on_fail,
            ),
            jobs=jobs,
            chunksize=chunksize,
            output_path=output_path,
        )
