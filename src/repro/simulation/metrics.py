"""Metrics computed from simulation results.

Besides the paper's objective (total weighted fractional latency) the module
provides the flow-completion-time statistics customarily reported for
datacenter schedulers (mean / median / tail percentiles), throughput-style
aggregates (matching occupancy), and cross-checking helpers used by the test
suite to validate the engine's latency accounting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.simulation.accumulators import CompensatedSum, compensated_total
from repro.simulation.results import SimulationResult

__all__ = [
    "LatencyStatistics",
    "latency_statistics",
    "completion_time_statistics",
    "matching_occupancy",
    "recompute_weighted_latency",
    "per_source_latency",
    "compare_policies",
]


@dataclass(frozen=True)
class LatencyStatistics:
    """Summary statistics of a per-packet latency distribution."""

    count: int
    total: float
    mean: float
    median: float
    p95: float
    p99: float
    maximum: float

    def as_dict(self) -> Dict[str, float]:
        """Return the statistics as a plain dictionary."""
        return {
            "count": float(self.count),
            "total": self.total,
            "mean": self.mean,
            "median": self.median,
            "p95": self.p95,
            "p99": self.p99,
            "max": self.maximum,
        }


def _stats(values: Sequence[float]) -> LatencyStatistics:
    if not values:
        return LatencyStatistics(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    arr = np.asarray(values, dtype=float)
    # Summary totals use compensated summation so large-N aggregates do not
    # drift (regression-tested against math.fsum).
    total = compensated_total(values)
    return LatencyStatistics(
        count=int(arr.size),
        total=total,
        mean=total / arr.size,
        median=float(np.median(arr)),
        p95=float(np.percentile(arr, 95)),
        p99=float(np.percentile(arr, 99)),
        maximum=float(arr.max()),
    )


def latency_statistics(result: SimulationResult) -> LatencyStatistics:
    """Statistics of per-packet *weighted* latencies."""
    return _stats(result.weighted_latencies())


def completion_time_statistics(result: SimulationResult) -> LatencyStatistics:
    """Statistics of per-packet (unweighted) flow completion times."""
    return _stats(result.flow_completion_times())


def matching_occupancy(result: SimulationResult) -> Dict[str, float]:
    """Aggregate statistics of the per-slot matching sizes (either retention)."""
    agg = result.aggregates
    slots = result.num_slots
    if not slots:
        return {"mean": 0.0, "max": 0.0, "nonempty_fraction": 0.0}
    return {
        "mean": agg.matching_total / slots,
        "max": float(agg.matching_max),
        "nonempty_fraction": agg.matching_nonempty / slots,
    }


def recompute_weighted_latency(result: SimulationResult) -> float:
    """Recompute the objective from chunk delivery times and fixed-link delays.

    For runs in which every chunk finishes within a single slot (integral
    transmissions — always the case at speed 1 and at integer speeds), this
    equals :attr:`SimulationResult.total_weighted_latency` exactly; the test
    suite uses the equality as an accounting invariant.  With fractional
    transmissions spread over several slots this is an upper bound (it charges
    the whole chunk at its final delivery time).
    """
    total = CompensatedSum()
    for record in result:
        if record.used_fixed_link:
            total.add(record.assignment.weighted_latency)
            continue
        for chunk in record.chunks:
            if chunk.delivery_time is None:
                raise ValueError(
                    f"chunk {chunk!r} has no delivery time; run did not complete"
                )
            total.add(chunk.weight * (chunk.delivery_time - record.packet.arrival))
    return total.value


def per_source_latency(result: SimulationResult) -> Dict[str, float]:
    """Total weighted latency grouped by packet source."""
    totals: Dict[str, float] = {}
    for record in result:
        totals[record.packet.source] = (
            totals.get(record.packet.source, 0.0) + record.weighted_latency
        )
    return totals


def compare_policies(results: Sequence[SimulationResult]) -> List[Dict[str, float]]:
    """Tabulate the headline metrics of several runs of the *same* instance.

    Returns one dictionary per result with the policy name, objective value
    and the ratio to the best (smallest) objective among the inputs.
    """
    if not results:
        return []
    best = min(r.total_weighted_latency for r in results)
    rows: List[Dict[str, float]] = []
    for r in results:
        obj = r.total_weighted_latency
        rows.append(
            {
                "policy": r.policy_name,
                "total_weighted_latency": obj,
                "ratio_to_best": obj / best if best > 0 else float("nan"),
                "num_slots": float(r.num_slots),
                "fixed_link_fraction": r.fixed_link_fraction,
            }
        )
    return rows
