"""Baseline dispatch rules.

These dispatchers implement the same interface as the paper's
:class:`~repro.core.dispatcher.ImpactDispatcher` but use simpler decision
rules.  They exist to quantify how much of ALG's performance comes from the
worst-case-impact dispatch policy (as opposed to the stable-matching
scheduler), and to serve as the naive comparators in experiment E7.

Every baseline still records a well-defined ``impact`` value on the
assignment (the worst-case impact of the *chosen* route) so that downstream
tooling can treat results uniformly; the dual-fitting analysis, however, is
only meaningful for runs of the paper's algorithm.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.dispatcher import _fold_impacts, edge_assignment, fixed_assignment
from repro.core.interfaces import Dispatcher
from repro.core.packet import Assignment, EdgeAssignment, Packet
from repro.core.queues import PendingChunkPool
from repro.exceptions import RoutingError
from repro.network.topology import TwoTierTopology
from repro.utils.rng import RngLike, as_rng

__all__ = [
    "RandomDispatcher",
    "LeastLoadedDispatcher",
    "ShortestPathDispatcher",
    "DirectFirstDispatcher",
]


def _impact_assignment(
    packet: Packet,
    edges: Sequence[Tuple[str, str]],
    topology: TwoTierTopology,
    pool: PendingChunkPool,
) -> EdgeAssignment:
    """Assign ``packet`` to the minimum-``Δ_p(e)`` edge of ``edges``, recording that impact."""
    total, (transmitter, receiver), edge_delay = _fold_impacts(packet, edges, topology, pool)
    return edge_assignment(packet, transmitter, receiver, edge_delay, total, topology)


def _require_routable(packet: Packet, candidates: List[Tuple[str, str]], has_fixed: bool) -> None:
    if not candidates and not has_fixed:
        raise RoutingError(
            f"packet {packet.packet_id} ({packet.source}->{packet.destination}) has no route"
        )


class RandomDispatcher(Dispatcher):
    """Assign each packet to a uniformly random candidate edge.

    The fixed link (when present) is treated as one more candidate route.
    """

    name = "random-dispatch"

    def __init__(self, seed: RngLike = None) -> None:
        self._seed = seed
        self._rng = as_rng(seed)

    def reset(self) -> None:
        """Re-seed the generator so repeated runs are identical."""
        self._rng = as_rng(self._seed)

    def dispatch(
        self,
        packet: Packet,
        topology: TwoTierTopology,
        pool: PendingChunkPool,
        now: int,
    ) -> Assignment:
        candidates = topology.candidate_edges(packet.source, packet.destination)
        has_fixed = topology.has_fixed_link(packet.source, packet.destination)
        _require_routable(packet, candidates, has_fixed)
        options: List[Optional[Tuple[str, str]]] = list(candidates)
        if has_fixed:
            options.append(None)  # None encodes the fixed link
        choice = options[int(self._rng.integers(len(options)))]
        if choice is None:
            return fixed_assignment(packet, topology)
        return _impact_assignment(packet, (choice,), topology, pool)


class LeastLoadedDispatcher(Dispatcher):
    """Assign each packet to the candidate edge with the least queued weight.

    The load of edge ``(t, r)`` is the total weight of pending chunks at ``t``
    plus at ``r`` (the join-the-shortest-queue heuristic); exact load ties go
    to the shorter path delay, then to the smaller edge tuple.  The fixed
    link is used only when no reconfigurable candidate exists.

    One pass over the candidates reads each distinct port's load once (the
    candidates of a rack pair share their lasers and photodetectors) and
    looks up path delays only to break a load tie.
    """

    name = "least-loaded"

    def dispatch(
        self,
        packet: Packet,
        topology: TwoTierTopology,
        pool: PendingChunkPool,
        now: int,
    ) -> Assignment:
        candidates = topology.candidate_edges(packet.source, packet.destination)
        has_fixed = topology.has_fixed_link(packet.source, packet.destination)
        _require_routable(packet, candidates, has_fixed)
        if not candidates:
            return fixed_assignment(packet, topology)
        tx_load: Dict[str, float] = {}
        rx_load: Dict[str, float] = {}
        best: Optional[Tuple[str, str]] = None
        best_load = best_delay = None
        for edge in candidates:
            t, r = edge
            load_t = tx_load.get(t)
            if load_t is None:
                load_t = tx_load[t] = pool.weight_at_transmitter(t)
            load_r = rx_load.get(r)
            if load_r is None:
                load_r = rx_load[r] = pool.weight_at_receiver(r)
            load = load_t + load_r
            if best is None or load < best_load:
                best, best_load, best_delay = edge, load, None
            elif load == best_load:
                if best_delay is None:
                    best_delay = topology.path_delay(*best)
                delay = topology.path_delay(t, r)
                if delay < best_delay or (delay == best_delay and edge < best):
                    best, best_delay = edge, delay
        return _impact_assignment(packet, (best,), topology, pool)


class ShortestPathDispatcher(Dispatcher):
    """Assign each packet to the candidate edge with the smallest path delay.

    Queue state is ignored entirely; ties are broken lexicographically.  The
    fixed link is chosen when it is strictly faster than the best
    reconfigurable path (ignoring queueing).
    """

    name = "shortest-path"

    def dispatch(
        self,
        packet: Packet,
        topology: TwoTierTopology,
        pool: PendingChunkPool,
        now: int,
    ) -> Assignment:
        candidates = topology.candidate_edges(packet.source, packet.destination)
        has_fixed = topology.has_fixed_link(packet.source, packet.destination)
        _require_routable(packet, candidates, has_fixed)
        best: Optional[Tuple[str, str]] = None
        if candidates:
            best = min(candidates, key=lambda edge: (topology.path_delay(*edge), edge))
        if has_fixed:
            fixed_delay = topology.fixed_link_delay(packet.source, packet.destination)
            if best is None or fixed_delay < topology.path_delay(*best):
                return fixed_assignment(packet, topology)
        assert best is not None
        return _impact_assignment(packet, (best,), topology, pool)


class DirectFirstDispatcher(Dispatcher):
    """Always use the fixed link when one exists; otherwise fall back to impact dispatch.

    This models the pre-reconfigurable-network behaviour (all traffic on the
    static topology) with opportunistic links used only where no static route
    exists.
    """

    name = "direct-first"

    def dispatch(
        self,
        packet: Packet,
        topology: TwoTierTopology,
        pool: PendingChunkPool,
        now: int,
    ) -> Assignment:
        candidates = topology.candidate_edges(packet.source, packet.destination)
        has_fixed = topology.has_fixed_link(packet.source, packet.destination)
        _require_routable(packet, candidates, has_fixed)
        if has_fixed:
            return fixed_assignment(packet, topology)
        return _impact_assignment(packet, candidates, topology, pool)
