"""The worst-case-impact dispatcher of Section III-B.

Upon arrival of packet ``p`` the dispatcher evaluates, for every candidate
reconfigurable edge ``e = (t, r) ∈ E_p``, the *worst-case impact* of assigning
``p`` to ``e``:

.. math::

    Δ_p(e) = w_p · ( d(src,t) + (d(e)+1)/2 + d(r,dest) )
             + w_p · |H_p(e)| + d(e) · w(L_p(e))

where ``A_p(e)`` is the set of pending chunks (of earlier-arrived packets)
assigned to an edge sharing ``t`` or ``r``, ``H_p(e) ⊆ A_p(e)`` are the chunks
that may delay ``p``'s chunks (weight at least ``w_p/d(e)``; ties favour the
earlier arrival, i.e. the existing chunk) and ``L_p(e) = A_p(e) \\ H_p(e)`` are
the chunks ``p`` may delay.

The packet is assigned to the edge minimising ``Δ_p(e)`` unless a direct fixed
link exists whose weighted latency ``w_p · d_l(p)`` is no larger, in which
case the fixed link is used.  The chosen value also becomes the dual variable
``α_p`` used throughout the competitive analysis (Section IV-B).

One fold, :func:`_fold_impacts`, is the only place ``Δ_p(e)`` is written.  It
serves ALG's decision, its decision log, :func:`compute_edge_impact` and the
baseline dispatchers, and reads the three adjacency statistics
``(|H_p(e)|, |L_p(e)|, w(L_p(e)))`` from one of two sources:

* the pool's incremental :class:`~repro.core.impact_index.ImpactIndex` when
  the pool maintains one (``engine="indexed"``) — O(log pending chunks) per
  candidate;
* the **reference scan** :func:`_scan_adjacency_stats` otherwise — a walk of
  ``pool.adjacent_chunks``, O(pending chunks) per candidate, and the oracle
  the index is tested against.

``w(L_p(e))`` is canonically defined as the *exact* sum of the lighter
weights, correctly rounded once (``math.fsum`` in the scan, exact integer
arithmetic in the index), so both sources give bit-identical impacts — and
hence bit-identical simulations — on any workload.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro.core.interfaces import Dispatcher
from repro.core.packet import (
    Assignment,
    EdgeAssignment,
    FixedLinkAssignment,
    Packet,
    split_into_chunks,
)
from repro.core.queues import PendingChunkPool
from repro.exceptions import RoutingError, SimulationError
from repro.network.topology import Edge, TwoTierTopology

__all__ = [
    "ImpactDispatcher",
    "EdgeImpact",
    "SharedDispatchMemo",
    "compute_edge_impact",
]


@dataclass(frozen=True)
class EdgeImpact:
    """Breakdown of the worst-case impact ``Δ_p(e)`` of one candidate edge.

    Attributes
    ----------
    transmitter, receiver:
        The candidate edge.
    edge_delay:
        ``d(e)``.
    self_latency:
        ``w_p · (d(src,t) + (d(e)+1)/2 + d(r,dest))`` — the weighted latency
        of ``p``'s own chunks when they are never blocked by other packets.
    blocked_by_term:
        ``w_p · |H_p(e)|`` — worst-case latency ``p`` suffers from heavier
        pending chunks.
    blocks_term:
        ``d(e) · w(L_p(e))`` — worst-case latency ``p`` inflicts on lighter
        pending chunks.
    num_heavier, num_lighter:
        ``|H_p(e)|`` and ``|L_p(e)|``.
    """

    transmitter: str
    receiver: str
    edge_delay: int
    self_latency: float
    blocked_by_term: float
    blocks_term: float
    num_heavier: int
    num_lighter: int

    @property
    def edge(self) -> Tuple[str, str]:
        """The candidate ``(transmitter, receiver)`` pair."""
        return (self.transmitter, self.receiver)

    @property
    def total(self) -> float:
        """The worst-case impact ``Δ_p(e)``."""
        return self.self_latency + self.blocked_by_term + self.blocks_term


def _scan_adjacency_stats(
    pool: PendingChunkPool, transmitter: str, receiver: str, chunk_weight: float
) -> Tuple[int, int, float]:
    """Reference ``(num_heavier, num_lighter, lighter_weight)`` via a pool scan.

    This is the canonical definition of the three adjacency statistics: a
    walk over ``A_p(e)`` counting the ``H``/``L`` split, with the lighter
    weights summed *exactly* (``math.fsum``, i.e. the correctly rounded exact
    sum, which no iteration order can change).  The incremental index must —
    and does — reproduce these values bit for bit.
    """
    num_heavier = 0
    lighter: List[float] = []
    for chunk in pool.adjacent_chunks(transmitter, receiver):
        # Ties go to the already-pending chunk (it belongs to an earlier
        # packet), so equality counts towards H_p(e).
        if chunk.weight >= chunk_weight:
            num_heavier += 1
        else:
            lighter.append(chunk.weight)
    return num_heavier, len(lighter), math.fsum(lighter)


def _fold_impacts(
    packet: Packet,
    edges: Sequence[Edge],
    topology: TwoTierTopology,
    pool: PendingChunkPool,
    sink: Optional[List[EdgeImpact]] = None,
) -> Tuple[Optional[float], Optional[Edge], int]:
    """Fold ``Δ_p(e)`` over ``edges`` into its ``(total, edge)`` minimum.

    Returns ``(total, edge, d(e))`` of the minimum, or ``(None, None, 0)``
    for no edges.  The adjacency statistics come from the pool's impact
    index when it has one and from the reference scan otherwise (e.g. the
    duck-typed naive pools of the differential harness).  When ``sink`` is
    given, every candidate's :class:`EdgeImpact` breakdown is appended to it
    in evaluation order.
    """
    index = getattr(pool, "impact_index", None)
    weight = packet.weight
    best_total: Optional[float] = None
    best_edge: Optional[Edge] = None
    best_delay = 0
    for transmitter, receiver in edges:
        d_e = topology.edge_delay(transmitter, receiver)
        chunk_weight = weight / d_e
        if index is not None:
            num_heavier, num_lighter, lighter_weight = index.query(
                transmitter, receiver, chunk_weight
            )
        else:
            num_heavier, num_lighter, lighter_weight = _scan_adjacency_stats(
                pool, transmitter, receiver, chunk_weight
            )
        self_latency = weight * (
            topology.head_delay(transmitter)
            + (d_e + 1) / 2.0
            + topology.tail_delay(receiver)
        )
        blocked_by = weight * num_heavier
        blocks = d_e * lighter_weight
        total = self_latency + blocked_by + blocks
        if sink is not None:
            sink.append(
                EdgeImpact(
                    transmitter, receiver, d_e, self_latency, blocked_by, blocks,
                    num_heavier, num_lighter,
                )
            )
        if best_total is None or (total, (transmitter, receiver)) < (best_total, best_edge):
            best_total = total
            best_edge = (transmitter, receiver)
            best_delay = d_e
    return best_total, best_edge, best_delay


def compute_edge_impact(
    packet: Packet,
    transmitter: str,
    receiver: str,
    topology: TwoTierTopology,
    pool: PendingChunkPool,
) -> EdgeImpact:
    """Compute ``Δ_p(e)`` for ``packet`` on edge ``(transmitter, receiver)``.

    The pending chunks currently in ``pool`` play the role of the paper's set
    ``B_p`` (chunks of packets that arrived before ``p`` and are still
    pending); chunks adjacent to the edge form ``A_p(e)``.  Reads the pool's
    impact index when it has one and the reference scan otherwise; the
    breakdown is bit-identical either way.
    """
    sink: List[EdgeImpact] = []
    _fold_impacts(packet, ((transmitter, receiver),), topology, pool, sink)
    return sink[0]


def edge_assignment(
    packet: Packet,
    transmitter: str,
    receiver: str,
    edge_delay: int,
    impact: float,
    topology: TwoTierTopology,
) -> EdgeAssignment:
    """Assign ``packet`` to an edge: its ``d(e)`` chunks, with ``impact`` recorded."""
    chunks = split_into_chunks(
        packet,
        transmitter,
        receiver,
        edge_delay=edge_delay,
        head_delay=topology.head_delay(transmitter),
        tail_delay=topology.tail_delay(receiver),
    )
    return EdgeAssignment(
        packet=packet,
        transmitter=transmitter,
        receiver=receiver,
        edge_delay=edge_delay,
        impact=impact,
        chunks=chunks,
    )


def _fixed_latency(packet: Packet, topology: TwoTierTopology) -> Optional[float]:
    """``w_p · d_l(p)``, or ``None`` when the packet has no fixed link."""
    if not topology.has_fixed_link(packet.source, packet.destination):
        return None
    return packet.weight * topology.fixed_link_delay(packet.source, packet.destination)


def fixed_assignment(packet: Packet, topology: TwoTierTopology) -> FixedLinkAssignment:
    """Assign ``packet`` to its fixed link; the impact is ``w_p · d_l(p)``."""
    delay = topology.fixed_link_delay(packet.source, packet.destination)
    return FixedLinkAssignment(packet=packet, link_delay=delay, impact=packet.weight * delay)


#: A dispatch decision reduced to plain data: ``(use_fixed, transmitter,
#: receiver, edge_delay, impact)``.  Small, immutable and exactly comparable,
#: which is what the shared-dispatch memo stores and validates.
_Decision = Tuple[bool, Optional[str], Optional[str], int, float]


class SharedDispatchMemo:
    """Cross-lane dispatch cache used by :meth:`SimulationEngine.run_multi`.

    Policy lanes whose dispatchers share the impact rule register one memo
    per group.  The first lane to dispatch an arrival computes the decision
    and stores it under ``(packet_id, pool fingerprint)``; every other lane
    whose pool holds an impact-equivalent chunk multiset (same fingerprint)
    reuses it instead of re-evaluating all candidate edges.  Lanes whose
    pools have diverged (different schedulers transmit different chunks) miss
    the memo and fall back to their own evaluation, so sharing is always
    sound — never required.

    Entries are evicted once every lane of the group has dispatched the
    packet, so the memo holds at most the arrival window the round-robin
    stepper keeps in flight anyway.  With ``validate=True`` every hit is
    re-derived from the hitting lane's own pool and compared exactly — the
    cross-lane invariant check behind the engine's
    ``validate_shared_dispatch`` debug flag.
    """

    __slots__ = ("group_size", "validate", "hits", "misses", "_entries")

    def __init__(self, group_size: int, validate: bool = False) -> None:
        if group_size < 2:
            raise SimulationError(
                f"a shared-dispatch group needs at least two lanes, got {group_size}"
            )
        self.group_size = group_size
        self.validate = validate
        self.hits = 0
        self.misses = 0
        # packet id -> [lanes served, {pool fingerprint: decision}]
        self._entries: Dict[int, list] = {}

    def lookup(self, packet_id: int, fingerprint: int) -> Optional[_Decision]:
        """The memoised decision for an impact-equivalent pool, if any."""
        entry = self._entries.get(packet_id)
        if entry is None:
            return None
        decision = entry[1].get(fingerprint)
        if decision is not None:
            self.hits += 1
            self._account(packet_id, entry)
        return decision

    def store(self, packet_id: int, fingerprint: int, decision: _Decision) -> None:
        """Record a freshly computed decision for other lanes to reuse."""
        entry = self._entries.get(packet_id)
        if entry is None:
            entry = self._entries[packet_id] = [0, {}]
        entry[1][fingerprint] = decision
        self.misses += 1
        self._account(packet_id, entry)

    def _account(self, packet_id: int, entry: list) -> None:
        entry[0] += 1
        if entry[0] >= self.group_size:
            del self._entries[packet_id]

    def stats(self) -> Dict[str, int]:
        """Hit/miss counters plus the number of in-flight entries."""
        return {"hits": self.hits, "misses": self.misses, "pending": len(self._entries)}


class ImpactDispatcher(Dispatcher):
    """The paper's greedy minimum-worst-case-impact dispatch rule."""

    name = "impact"

    def __init__(self, record_decisions: bool = False) -> None:
        #: When ``record_decisions`` is set, every dispatch stores the full
        #: per-edge impact breakdown for later inspection (used by the
        #: Figure 2 reproduction and by the analysis tests).
        self.record_decisions = record_decisions
        self.decision_log: List[Dict[str, object]] = []
        #: Set by ``SimulationEngine.run_multi`` for lanes grouped into a
        #: shared-dispatch lane; ``None`` for every single-policy run.
        self.shared_memo: Optional[SharedDispatchMemo] = None

    def reset(self) -> None:
        """Clear the decision log and detach from any shared-dispatch group."""
        self.decision_log = []
        self.shared_memo = None

    def dispatch_sharing_key(self) -> Optional[Hashable]:
        """All plain impact dispatchers compute one rule and may share lanes.

        Recording dispatchers keep their own full per-candidate logs, which a
        memo hit would silently truncate, so they never share.
        """
        return None if self.record_decisions else ("impact",)

    # ------------------------------------------------------------------ #
    def _decide(
        self,
        packet: Packet,
        topology: TwoTierTopology,
        pool: PendingChunkPool,
        sink: Optional[List[EdgeImpact]] = None,
    ) -> _Decision:
        """The dispatch rule: the impact fold, then the fixed-link test.

        ``sink`` collects every candidate's breakdown (the decision log).
        """
        best_total, best_edge, best_delay = _fold_impacts(
            packet,
            topology.candidate_edges(packet.source, packet.destination),
            topology,
            pool,
            sink,
        )
        fixed_latency = _fixed_latency(packet, topology)
        if fixed_latency is None:
            if best_edge is None:
                raise RoutingError(
                    f"packet {packet.packet_id} ({packet.source}->{packet.destination}) "
                    "has no reconfigurable edge and no fixed link"
                )
        elif best_total is None or fixed_latency <= best_total:
            return (True, None, None, 0, fixed_latency)
        return (False, best_edge[0], best_edge[1], best_delay, best_total)

    def dispatch(
        self,
        packet: Packet,
        topology: TwoTierTopology,
        pool: PendingChunkPool,
        now: int,
    ) -> Assignment:
        """Assign ``packet`` per Section III-B and return the assignment.

        Raises
        ------
        RoutingError
            If the packet has neither a candidate reconfigurable edge nor a
            fixed link.
        """
        memo = self.shared_memo
        if memo is None or self.record_decisions:
            candidates: Optional[List[EdgeImpact]] = [] if self.record_decisions else None
            decision = self._decide(packet, topology, pool, candidates)
            if candidates is not None:
                self.decision_log.append(
                    {
                        "packet_id": packet.packet_id,
                        "now": now,
                        "candidates": candidates,
                        "fixed_latency": _fixed_latency(packet, topology),
                        "chosen_fixed": decision[0],
                        "impact": decision[4],
                        "edge": None if decision[0] else (decision[1], decision[2]),
                    }
                )
        else:
            fingerprint = pool.impact_fingerprint
            decision = memo.lookup(packet.packet_id, fingerprint)
            if decision is None:
                decision = self._decide(packet, topology, pool)
                memo.store(packet.packet_id, fingerprint, decision)
            elif memo.validate:
                expected = self._decide(packet, topology, pool)
                if expected != decision:
                    raise SimulationError(
                        f"shared-dispatch invariant violated for packet "
                        f"{packet.packet_id}: memoised decision {decision!r} != "
                        f"this lane's own {expected!r} (fingerprint collision "
                        "or index corruption)"
                    )

        use_fixed, transmitter, receiver, edge_delay, impact = decision
        if use_fixed:
            return fixed_assignment(packet, topology)
        return edge_assignment(packet, transmitter, receiver, edge_delay, impact, topology)
