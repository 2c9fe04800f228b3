"""Policy-comparison experiments (E7, E10 and the ablations).

The functions here run several policies on the *same* instance (or instance
suite) through the shared simulation engine and tabulate the paper's
objective — total weighted fractional latency — together with normalised
ratios, so "who wins and by how much" is immediately visible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.core.algorithm import OpportunisticLinkScheduler
from repro.core.interfaces import Policy
from repro.experiments.runner import ExperimentSpec, ExperimentTask, run_experiment
from repro.simulation.engine import simulate, simulate_multi
from repro.simulation.results import SimulationResult
from repro.utils.tables import format_table
from repro.workloads.base import Instance

__all__ = [
    "PolicyComparisonRow",
    "run_policy",
    "run_policies",
    "compare_policies_on_instance",
    "compare_policies_on_suite",
]


@dataclass(frozen=True)
class PolicyComparisonRow:
    """One (instance, policy) outcome in a comparison experiment."""

    instance: str
    policy: str
    total_weighted_latency: float
    ratio_to_alg: float
    num_slots: int
    fixed_link_fraction: float

    def as_tuple(self) -> tuple:
        """Row tuple in the column order used by :func:`format_comparison_table`."""
        return (
            self.instance,
            self.policy,
            self.total_weighted_latency,
            self.ratio_to_alg,
            self.num_slots,
            self.fixed_link_fraction,
        )


def run_policy(
    instance: Instance,
    policy: Policy,
    speed: float = 1.0,
    max_slots: int = 1_000_000,
    retention: str = "full",
) -> SimulationResult:
    """Run one policy on one instance and return the raw simulation result.

    ``retention="aggregate"`` streams the instance's packets through the
    engine without keeping per-packet records; the summary numbers are
    bit-identical to the default in-memory run.
    """
    packets = instance.iter_packets() if retention == "aggregate" else instance.packets
    return simulate(
        instance.topology,
        policy,
        packets,
        speed=speed,
        max_slots=max_slots,
        retention=retention,
    )


def run_policies(
    instance: Instance,
    policies: Mapping[str, Policy],
    speed: float = 1.0,
    max_slots: int = 1_000_000,
    retention: str = "full",
) -> Dict[str, SimulationResult]:
    """Run several policies on one instance through a single engine pass.

    The single-pass counterpart of calling :func:`run_policy` once per
    policy: the instance's arrival stream is materialised into batches once
    and shared by every policy lane
    (:meth:`~repro.simulation.engine.SimulationEngine.run_multi`), so the
    per-policy results — and their ``summary()`` — are bit-identical to the
    sequential calls at a fraction of the setup cost.
    """
    packets = instance.iter_packets() if retention == "aggregate" else instance.packets
    return simulate_multi(
        instance.topology,
        policies,
        packets,
        speed=speed,
        max_slots=max_slots,
        retention=retention,
    )


def _comparison_task(task: ExperimentTask) -> List[Dict[str, Any]]:
    """Run all policies of one instance over a shared arrival stream."""
    instance: Instance = task.params["instance"]
    results = run_policies(
        instance,
        task.params["policies"],
        speed=task.params["speed"],
        max_slots=task.params["max_slots"],
        retention=task.params.get("retention", "full"),
    )
    return [
        {
            "instance": instance.name,
            "policy": name,
            "total_weighted_latency": results[name].total_weighted_latency,
            "num_slots": results[name].num_slots,
            "fixed_link_fraction": results[name].fixed_link_fraction,
        }
        for name in task.params["policies"]
    ]


def _normalise_rows(measurements: Sequence[Dict[str, Any]]) -> List[PolicyComparisonRow]:
    """Turn one instance's raw measurements into rows normalised to ALG."""
    by_policy = {m["policy"]: m for m in measurements}
    if "alg" in by_policy:
        baseline = by_policy["alg"]["total_weighted_latency"]
    else:
        baseline = min(m["total_weighted_latency"] for m in measurements)

    rows: List[PolicyComparisonRow] = []
    for measurement in measurements:
        cost = measurement["total_weighted_latency"]
        rows.append(
            PolicyComparisonRow(
                instance=measurement["instance"],
                policy=measurement["policy"],
                total_weighted_latency=cost,
                ratio_to_alg=cost / baseline if baseline > 0 else float("nan"),
                num_slots=measurement["num_slots"],
                fixed_link_fraction=measurement["fixed_link_fraction"],
            )
        )
    rows.sort(key=lambda row: row.total_weighted_latency)
    return rows


def compare_policies_on_instance(
    instance: Instance,
    policies: Optional[Mapping[str, Policy]] = None,
    speed: float = 1.0,
    max_slots: int = 1_000_000,
    retention: str = "full",
) -> List[PolicyComparisonRow]:
    """Run every policy on ``instance`` and normalise costs to the paper's ALG.

    ``policies`` defaults to ``{"alg": OpportunisticLinkScheduler()}``; when a
    policy named ``"alg"`` is present its cost is the normalisation baseline,
    otherwise the smallest cost is used.  ``retention="aggregate"`` keeps the
    run's memory bounded by the in-flight state.
    """
    return compare_policies_on_suite(
        {instance.name: instance},
        dict(policies) if policies else {"alg": OpportunisticLinkScheduler()},
        speed=speed,
        max_slots=max_slots,
        retention=retention,
    )


def compare_policies_on_suite(
    instances: Mapping[str, Instance],
    policies: Mapping[str, Policy],
    speed: float = 1.0,
    max_slots: int = 1_000_000,
    jobs: int = 1,
    retention: str = "full",
) -> List[PolicyComparisonRow]:
    """Run the full cross-product of instances × policies (optionally in parallel).

    Each *instance* is one runner task evaluating all policies through a
    single shared-arrival engine pass
    (:meth:`~repro.simulation.engine.SimulationEngine.run_multi`), so
    ``jobs > 1`` fans out over instances.  Every name needs its own policy
    object; one object under two names fails with ``run_multi``'s error.
    """
    policies = dict(policies) if policies else {"alg": OpportunisticLinkScheduler()}
    grid = [
        {
            "instance": instance,
            "policies": policies,
            "speed": speed,
            "max_slots": max_slots,
            "retention": retention,
        }
        for instance in instances.values()
    ]
    spec = ExperimentSpec(name="policy-comparison", task_fn=_comparison_task, grid=grid)
    measurements = run_experiment(spec, jobs=jobs)

    rows: List[PolicyComparisonRow] = []
    num_policies = len(policies)
    for start in range(0, len(measurements), num_policies):
        rows.extend(_normalise_rows(measurements[start : start + num_policies]))
    return rows


def format_comparison_table(rows: Sequence[PolicyComparisonRow], title: str = "") -> str:
    """Render comparison rows as an ASCII table."""
    return format_table(
        headers=[
            "instance",
            "policy",
            "total_weighted_latency",
            "ratio_to_alg",
            "slots",
            "fixed_link_frac",
        ],
        rows=[row.as_tuple() for row in rows],
        title=title,
    )
