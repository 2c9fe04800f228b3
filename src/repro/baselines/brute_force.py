"""Exhaustive offline optimum for tiny instances.

The brute-force solver enumerates, for every packet, each admissible route
(every candidate reconfigurable edge plus the fixed link when present) and,
for every route combination, computes the minimum-total-weighted-latency
schedule by dynamic programming over (slot, remaining-chunk) states.  It is
exponential and guarded by explicit size limits — its purpose is to provide
ground-truth optima for the worked examples (Figure 1's cost-7 optimum) and
for randomized cross-checks of the LP lower bound in the test-suite.

The solver models the same non-migratory integral schedules the online
algorithm produces (each packet uses exactly one route; one chunk per matched
edge per slot at speed 1).  The paper's OPT is allowed to be preemptive and
migratory, so the value returned here is an *upper bound* on the paper's OPT
and a *lower bound* on every integral non-migratory schedule — which is
exactly what the tests need.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

from repro.core.packet import Packet
from repro.exceptions import AnalysisError
from repro.network.topology import TwoTierTopology
from repro.workloads.base import Instance

__all__ = ["BruteForceResult", "brute_force_optimal"]


@dataclass(frozen=True)
class _RouteOption:
    """One admissible route of a packet (fixed link or a reconfigurable edge)."""

    packet_index: int
    uses_fixed_link: bool
    edge: Optional[Tuple[str, str]]
    edge_delay: int
    head_delay: int
    tail_delay: int
    fixed_delay: int


@dataclass(frozen=True)
class BruteForceResult:
    """Outcome of the exhaustive search."""

    cost: float
    routes: Tuple[Tuple[str, ...], ...]
    num_route_combinations: int

    @property
    def optimal_cost(self) -> float:
        """Alias for :attr:`cost` (the minimum total weighted latency found)."""
        return self.cost


def _route_options(packet: Packet, topology: TwoTierTopology, index: int) -> List[_RouteOption]:
    options: List[_RouteOption] = []
    for (t, r) in topology.candidate_edges(packet.source, packet.destination):
        options.append(
            _RouteOption(
                packet_index=index,
                uses_fixed_link=False,
                edge=(t, r),
                edge_delay=topology.edge_delay(t, r),
                head_delay=topology.head_delay(t),
                tail_delay=topology.tail_delay(r),
                fixed_delay=0,
            )
        )
    if topology.has_fixed_link(packet.source, packet.destination):
        options.append(
            _RouteOption(
                packet_index=index,
                uses_fixed_link=True,
                edge=None,
                edge_delay=0,
                head_delay=0,
                tail_delay=0,
                fixed_delay=topology.fixed_link_delay(packet.source, packet.destination),
            )
        )
    if not options:
        raise AnalysisError(
            f"packet {packet.packet_id} ({packet.source}->{packet.destination}) has no route"
        )
    return options


def _schedule_cost(
    packets: Sequence[Packet],
    routes: Sequence[_RouteOption],
    horizon: int,
) -> float:
    """Minimum weighted latency of scheduling the reconfigurable routes in ``routes``."""
    fixed_cost = 0.0
    jobs: List[Tuple[int, float, int, str, str, int, int]] = []
    # job = (packet idx, chunk weight, num chunks, transmitter, receiver, eligible, tail)
    for packet, route in zip(packets, routes):
        if route.uses_fixed_link:
            fixed_cost += packet.weight * route.fixed_delay
            continue
        t, r = route.edge  # type: ignore[misc]
        jobs.append(
            (
                route.packet_index,
                packet.weight / route.edge_delay,
                route.edge_delay,
                t,
                r,
                packet.arrival + route.head_delay,
                route.tail_delay,
            )
        )
    if not jobs:
        return fixed_cost

    num_jobs = len(jobs)
    arrivals = [packets[j[0]].arrival for j in jobs]
    first_slot = min(eligible for (_pi, _w, _n, _t, _r, eligible, _tail) in jobs)
    packet_arrival = {j[0]: packets[j[0]].arrival for j in jobs}

    @lru_cache(maxsize=None)
    def solve(slot: int, remaining: Tuple[int, ...]) -> float:
        if all(v == 0 for v in remaining):
            return 0.0
        if slot > horizon:
            raise AnalysisError(
                f"brute-force schedule search exceeded horizon {horizon}; "
                "instance is too large for exhaustive search"
            )
        active = [
            i
            for i in range(num_jobs)
            if remaining[i] > 0 and jobs[i][5] <= slot
        ]
        if not active:
            return solve(slot + 1, remaining)

        best = float("inf")

        def latency_of(i: int) -> float:
            _pi, weight, _n, _t, _r, _eligible, tail = jobs[i]
            return weight * (slot + 1 + tail - packet_arrival[jobs[i][0]])

        # Enumerate maximal matchings of the active jobs' edges (transmitting a
        # superset of chunks never increases later completion times, so
        # maximal matchings are sufficient for optimality).
        def recurse(selected: List[int], idx: int, used_t: frozenset, used_r: frozenset) -> None:
            nonlocal best
            if idx == len(active):
                if not selected:
                    return
                new_remaining = list(remaining)
                cost = 0.0
                for i in selected:
                    new_remaining[i] -= 1
                    cost += latency_of(i)
                total = cost + solve(slot + 1, tuple(new_remaining))
                best = min(best, total)
                return
            i = active[idx]
            _pi, _w, _n, t, r, _eligible, _tail = jobs[i]
            if t not in used_t and r not in used_r:
                recurse(selected + [i], idx + 1, used_t | {t}, used_r | {r})
                # Skipping this job is only allowed if it could conflict with a
                # later choice; to keep matchings maximal we also explore the
                # skip branch (the maximality filter below discards dominated
                # selections via the min over branches).
                recurse(selected, idx + 1, used_t, used_r)
            else:
                recurse(selected, idx + 1, used_t, used_r)

        recurse([], 0, frozenset(), frozenset())
        if best == float("inf"):
            best = solve(slot + 1, remaining)
        return best

    initial_remaining = tuple(j[2] for j in jobs)
    return fixed_cost + solve(first_slot, initial_remaining)


def brute_force_optimal(
    instance: Instance,
    max_total_chunks: int = 12,
    max_route_combinations: int = 5000,
) -> BruteForceResult:
    """Exhaustively compute the optimal integral non-migratory schedule cost.

    Parameters
    ----------
    instance:
        The instance to solve.
    max_total_chunks:
        Safety limit on the total number of chunks of any route combination.
    max_route_combinations:
        Safety limit on the number of route combinations enumerated.

    Raises
    ------
    AnalysisError
        If the instance exceeds the configured size limits.
    """
    packets = sorted(instance.packets, key=lambda p: p.packet_id)
    topology = instance.topology
    option_lists = [_route_options(p, topology, i) for i, p in enumerate(packets)]

    num_combos = 1
    for options in option_lists:
        num_combos *= len(options)
    if num_combos > max_route_combinations:
        raise AnalysisError(
            f"instance has {num_combos} route combinations; "
            f"limit is {max_route_combinations}"
        )

    horizon = instance.horizon_estimate(speed=1.0) + 2
    best_cost = float("inf")
    best_routes: Tuple[Tuple[str, ...], ...] = ()
    for combo in itertools.product(*option_lists):
        total_chunks = sum(0 if o.uses_fixed_link else o.edge_delay for o in combo)
        if total_chunks > max_total_chunks:
            raise AnalysisError(
                f"route combination requires {total_chunks} chunks; "
                f"limit is {max_total_chunks}"
            )
        cost = _schedule_cost(packets, combo, horizon)
        if cost < best_cost:
            best_cost = cost
            best_routes = tuple(
                ("fixed",) if o.uses_fixed_link else o.edge for o in combo  # type: ignore[misc]
            )
    return BruteForceResult(
        cost=best_cost, routes=best_routes, num_route_combinations=num_combos
    )
