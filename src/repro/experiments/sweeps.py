"""Parameter sweeps for experiments E5, E6, E8, E9 and E10.

Every sweep returns a list of plain dataclass rows (one per swept point) so
the benchmark harness can both assert on the qualitative shape (who wins,
monotonicity, bound satisfaction) and print the series that would appear as a
figure in a systems paper.

All sweeps route through the :mod:`repro.experiments.runner` subsystem: each
grid point is a self-contained task (its instance is either passed in or
reconstructed from deterministic seeds inside the task), so passing
``jobs=N`` fans the grid out over ``N`` worker processes while producing
row-for-row identical output to the serial run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence

from repro.analysis.competitive import evaluate_competitive_ratio
from repro.analysis.lp import solve_lp_lower_bound
from repro.core.algorithm import OpportunisticLinkScheduler, theoretical_competitive_ratio
from repro.core.interfaces import Policy
from repro.experiments.comparison import run_policies, run_policy
from repro.experiments.runner import ExperimentSpec, ExperimentTask, run_experiment
from repro.network.builders import add_uniform_fixed_links, projector_fabric, random_bipartite
from repro.utils.rng import SeedSequenceFactory
from repro.workloads.base import Instance
from repro.workloads.skewed import zipf_workload
from repro.workloads.synthetic import uniform_random_workload
from repro.workloads.weights import uniform_weights

__all__ = [
    "CompetitiveRatioRow",
    "SpeedupRow",
    "DelaySweepRow",
    "HybridSweepRow",
    "TierSweepRow",
    "competitive_ratio_sweep",
    "speedup_sweep",
    "delay_heterogeneity_sweep",
    "hybrid_fixed_link_sweep",
    "two_tier_sweep",
]


def _hybrid_pair_filter(source: str, destination: str) -> bool:
    """Fixed links only between distinct racks (module-level for pickling)."""
    return source.split(":")[0] != destination.split(":")[0]


# ---------------------------------------------------------------------- #
# E5 — competitive ratio vs ε
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class CompetitiveRatioRow:
    """One (instance, ε) point of the competitive-ratio experiment."""

    instance: str
    epsilon: float
    algorithm_cost: float
    lower_bound: float
    empirical_ratio: float
    theoretical_bound: float
    within_bound: bool


def _competitive_ratio_task(task: ExperimentTask) -> CompetitiveRatioRow:
    """Evaluate ALG's competitive ratio on one (instance, ε) grid point."""
    instance: Instance = task.params["instance"]
    epsilon: float = task.params["epsilon"]
    report = evaluate_competitive_ratio(instance, epsilon, use_lp=task.params["use_lp"])
    return CompetitiveRatioRow(
        instance=instance.name,
        epsilon=epsilon,
        algorithm_cost=report.algorithm_cost,
        lower_bound=report.best_lower_bound,
        empirical_ratio=report.empirical_ratio,
        theoretical_bound=report.theoretical_bound,
        within_bound=report.within_bound,
    )


def competitive_ratio_sweep(
    instances: Mapping[str, Instance],
    epsilons: Sequence[float] = (0.5, 1.0, 2.0, 4.0),
    use_lp: bool = True,
    jobs: int = 1,
) -> List[CompetitiveRatioRow]:
    """Measure ALG's empirical competitive ratio for several ε on several instances."""
    grid = [
        {"instance": instance, "epsilon": epsilon, "use_lp": use_lp}
        for instance in instances.values()
        for epsilon in epsilons
    ]
    spec = ExperimentSpec(name="competitive-ratio", task_fn=_competitive_ratio_task, grid=grid)
    return run_experiment(spec, jobs=jobs)


# ---------------------------------------------------------------------- #
# E6 — speedup sensitivity
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class SpeedupRow:
    """ALG's cost at one speed, normalised by the unaugmented LP lower bound."""

    instance: str
    speed: float
    algorithm_cost: float
    lp_lower_bound: float
    ratio: float


def _speedup_task(task: ExperimentTask) -> SpeedupRow:
    """Run ALG at one speed and normalise by the precomputed LP value."""
    instance: Instance = task.params["instance"]
    speed: float = task.params["speed"]
    lp_value: float = task.params["lp_value"]
    result = run_policy(instance, task.params["policy"], speed=speed)
    cost = result.total_weighted_latency
    return SpeedupRow(
        instance=instance.name,
        speed=speed,
        algorithm_cost=cost,
        lp_lower_bound=lp_value,
        ratio=cost / lp_value if lp_value > 0 else float("inf"),
    )


def speedup_sweep(
    instance: Instance,
    speeds: Sequence[float] = (1.0, 1.5, 2.0, 2.5, 3.0),
    policy: Optional[Policy] = None,
    lp_horizon: Optional[int] = None,
    jobs: int = 1,
) -> List[SpeedupRow]:
    """Run ALG at several speeds against the speed-1 LP lower bound.

    The gap at speed 1 versus higher speeds illustrates why resource
    augmentation is needed (Section I / Dinitz et al.).  The LP is solved once
    in the calling process; the per-speed simulations form the parallel grid.
    """
    lp_value = solve_lp_lower_bound(
        instance, capacity=1.0, horizon=lp_horizon, objective="fractional"
    ).objective_value
    grid = [
        {
            "instance": instance,
            "speed": speed,
            "policy": policy or OpportunisticLinkScheduler(),
            "lp_value": lp_value,
        }
        for speed in speeds
    ]
    spec = ExperimentSpec(name="speedup", task_fn=_speedup_task, grid=grid)
    return run_experiment(spec, jobs=jobs)


# ---------------------------------------------------------------------- #
# E8 — heterogeneous edge delays
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class DelaySweepRow:
    """Outcome of one (delay pool, policy) combination."""

    delay_pool: str
    policy: str
    total_weighted_latency: float
    mean_completion_time: float


def _delay_pool_instance(task: ExperimentTask) -> Instance:
    """Rebuild one delay-pool instance from the task's deterministic seeds."""
    pool: Sequence[int] = task.params["pool"]
    topo = random_bipartite(
        task.params["num_sources"],
        task.params["num_destinations"],
        transmitters_per_source=2,
        receivers_per_destination=2,
        edge_probability=0.7,
        delay_choices=pool,
        seed=task.params["topo_seed"],
    )
    packets = uniform_random_workload(
        topo,
        task.params["num_packets"],
        weight_sampler=uniform_weights(1, 10),
        arrival_rate=2.0,
        seed=task.params["packets_seed"],
    )
    return Instance(
        name=f"delays-{'-'.join(map(str, pool))}", topology=topo, packets=packets
    )


def _delay_heterogeneity_task(task: ExperimentTask) -> List[DelaySweepRow]:
    """Build one delay-pool instance and run every policy over its shared stream."""
    results = run_policies(
        _delay_pool_instance(task),
        task.params["policies"],
        retention=task.params.get("retention", "full"),
    )
    return [
        DelaySweepRow(
            delay_pool="/".join(map(str, task.params["pool"])),
            policy=name,
            total_weighted_latency=results[name].total_weighted_latency,
            mean_completion_time=results[name].mean_flow_completion_time,
        )
        for name in task.params["policies"]
    ]


def delay_heterogeneity_sweep(
    policies: Mapping[str, Policy],
    delay_pools: Sequence[Sequence[int]] = ((1,), (1, 2), (1, 2, 4), (2, 4, 8)),
    num_sources: int = 4,
    num_destinations: int = 4,
    num_packets: int = 120,
    seed: int = 5,
    jobs: int = 1,
    retention: str = "full",
) -> List[DelaySweepRow]:
    """Compare policies as the reconfigurable-edge delay distribution widens (E8).

    Each delay pool is one task: its instance is generated once and every
    policy runs over the shared arrival stream via
    :meth:`~repro.simulation.engine.SimulationEngine.run_multi`, so a sweep
    over ``P`` policies performs one workload generation per pool instead of
    ``P``.
    """
    seeds = SeedSequenceFactory(seed)
    grid = [
        {
            "pool": tuple(pool),
            "num_sources": num_sources,
            "num_destinations": num_destinations,
            "num_packets": num_packets,
            "topo_seed": seeds.integer_seed("topo", tuple(pool)),
            "packets_seed": seeds.integer_seed("packets", tuple(pool)),
            "retention": retention,
            "policies": dict(policies),
        }
        for pool in delay_pools
    ]
    spec = ExperimentSpec(
        name="delay-heterogeneity", task_fn=_delay_heterogeneity_task, grid=grid, seed=seed
    )
    return run_experiment(spec, jobs=jobs)


# ---------------------------------------------------------------------- #
# E9 — hybrid topologies
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class HybridSweepRow:
    """Outcome of ALG on a hybrid fabric for one fixed-link delay."""

    fixed_link_delay: int
    total_weighted_latency: float
    fixed_link_fraction: float
    reconfigurable_fraction: float


def _hybrid_fixed_link_task(task: ExperimentTask) -> HybridSweepRow:
    """Rebuild the hybrid fabric for one fixed-link delay and run ALG."""
    delay: int = task.params["delay"]
    base = projector_fabric(
        num_racks=task.params["num_racks"],
        lasers_per_rack=2,
        photodetectors_per_rack=2,
        seed=task.params["topo_seed"],
    )
    topo = add_uniform_fixed_links(base, delay=delay, pair_filter=_hybrid_pair_filter)
    packets = zipf_workload(
        topo,
        task.params["num_packets"],
        exponent=1.1,
        weight_sampler=uniform_weights(1, 10),
        arrival_rate=2.0,
        seed=task.params["packets_seed"],
    )
    instance = Instance(name=f"hybrid-dl{delay}", topology=topo, packets=packets)
    result = run_policy(
        instance, OpportunisticLinkScheduler(), retention=task.params.get("retention", "full")
    )
    return HybridSweepRow(
        fixed_link_delay=delay,
        total_weighted_latency=result.total_weighted_latency,
        fixed_link_fraction=result.fixed_link_fraction,
        reconfigurable_fraction=1.0 - result.fixed_link_fraction,
    )


def hybrid_fixed_link_sweep(
    fixed_link_delays: Sequence[int] = (1, 2, 4, 8, 16),
    num_racks: int = 6,
    num_packets: int = 150,
    seed: int = 17,
    jobs: int = 1,
    retention: str = "full",
) -> List[HybridSweepRow]:
    """Sweep the fixed-link delay of a hybrid fabric and measure ALG's offload split (E9).

    Fast fixed links should absorb most traffic; slow ones should push ALG to
    use the reconfigurable network.
    """
    seeds = SeedSequenceFactory(seed)
    topo_seed = seeds.integer_seed("topology")
    packets_seed = seeds.integer_seed("packets")
    grid = [
        {
            "delay": delay,
            "num_racks": num_racks,
            "num_packets": num_packets,
            "topo_seed": topo_seed,
            "packets_seed": packets_seed,
            "retention": retention,
        }
        for delay in fixed_link_delays
    ]
    spec = ExperimentSpec(
        name="hybrid-fixed-link", task_fn=_hybrid_fixed_link_task, grid=grid, seed=seed
    )
    return run_experiment(spec, jobs=jobs)


# ---------------------------------------------------------------------- #
# E10 — two-tier vs single-tier
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class TierSweepRow:
    """Outcome of ALG for one per-rack transmitter/receiver count."""

    lasers_per_rack: int
    total_weighted_latency: float
    mean_matching_size: float
    num_slots: int


def _two_tier_task(task: ExperimentTask) -> TierSweepRow:
    """Build one per-rack laser-count fabric and run ALG on skewed traffic."""
    lasers: int = task.params["lasers"]
    topo = projector_fabric(
        num_racks=task.params["num_racks"],
        lasers_per_rack=lasers,
        photodetectors_per_rack=lasers,
        seed=task.params["topo_seed"],
    )
    packets = zipf_workload(
        topo,
        task.params["num_packets"],
        exponent=1.2,
        weight_sampler=uniform_weights(1, 10),
        arrival_rate=3.0,
        seed=task.params["packets_seed"],
    )
    instance = Instance(name=f"tiers-{lasers}", topology=topo, packets=packets)
    result = run_policy(
        instance, OpportunisticLinkScheduler(), retention=task.params.get("retention", "full")
    )
    return TierSweepRow(
        lasers_per_rack=lasers,
        total_weighted_latency=result.total_weighted_latency,
        mean_matching_size=result.mean_matching_size,
        num_slots=result.num_slots,
    )


def two_tier_sweep(
    lasers_per_rack: Sequence[int] = (1, 2, 3, 4),
    num_racks: int = 6,
    num_packets: int = 150,
    seed: int = 23,
    jobs: int = 1,
    retention: str = "full",
) -> List[TierSweepRow]:
    """Vary the number of lasers/photodetectors per rack (E10).

    One laser per rack degenerates to the classic single-tier crossbar model;
    more opportunistic links per rack should reduce the total weighted
    latency on skewed traffic.
    """
    seeds = SeedSequenceFactory(seed)
    packets_seed = seeds.integer_seed("packets")
    grid = [
        {
            "lasers": lasers,
            "num_racks": num_racks,
            "num_packets": num_packets,
            "topo_seed": seeds.integer_seed("topology", lasers),
            "packets_seed": packets_seed,
            "retention": retention,
        }
        for lasers in lasers_per_rack
    ]
    spec = ExperimentSpec(name="two-tier", task_fn=_two_tier_task, grid=grid, seed=seed)
    return run_experiment(spec, jobs=jobs)
