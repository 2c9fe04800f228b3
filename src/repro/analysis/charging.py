"""The ALG-to-α charging scheme of Section IV-C.

The analysis charges every unit of weighted latency accumulated by ALG to
some packet, and Lemma 2 shows each packet ``p`` is charged at most ``α_p``.
The rules are, per chunk ``c`` of packet ``p`` and per slot ``τ`` of its
active interval:

* slots spent traversing an edge of the graph (the source→transmitter head,
  the transmission slot on the reconfigurable edge, and the
  receiver→destination tail) are charged to ``p`` itself;
* slots spent waiting because another chunk ``c'`` *blocked* ``c`` (``c'`` was
  transmitted that slot, shares a transmitter or receiver with ``c``'s edge,
  and outranks ``c`` in the priority order) are charged to ``p`` when the
  blocker belongs to ``p`` or to an earlier-arrived packet, and to the
  blocker's packet when that packet arrived later.

Packets transmitted over the fixed network are charged their full latency
``w_p · d_l(p)``.

Figure 2 of the paper tabulates exactly these per-packet charges for two
small inputs; the reproduction benchmark E2 recomputes them with this module.

The computation requires a run of the *paper's* algorithm at speed 1 with the
event trace enabled (the stable-matching property guarantees a blocker exists
for every waiting slot; other schedulers may violate this, in which case an
:class:`~repro.exceptions.AnalysisError` is raised).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.core.packet import Chunk
from repro.exceptions import AnalysisError
from repro.simulation.results import SimulationResult
from repro.utils.ordering import chunk_priority_key

__all__ = ["ChargingBreakdown", "compute_charges"]


@dataclass
class ChargingBreakdown:
    """Per-packet charges assigned by the Section IV-C charging scheme."""

    charges: Dict[int, float]
    transit_charges: Dict[int, float]
    blocking_charges: Dict[int, float]

    @property
    def total(self) -> float:
        """Total charged latency (equals ALG's objective by construction)."""
        return sum(self.charges.values())

    def charge(self, packet_id: int) -> float:
        """The total charge received by packet ``packet_id``."""
        return self.charges.get(packet_id, 0.0)


def _packet_order_key(chunk: Chunk) -> Tuple[int, int]:
    """Arrival order of a chunk's packet (earlier slot, then earlier dispatch)."""
    return (chunk.packet.arrival, chunk.packet.packet_id)


def compute_charges(result: SimulationResult) -> ChargingBreakdown:
    """Compute the charging-scheme values for a completed ALG run.

    Requires ``result.trace`` (run the engine with ``record_trace=True``) and
    speed 1 (so every chunk is transmitted in exactly one slot and the notion
    of "the slot in which a chunk was transmitted" is well defined).
    """
    if result.trace is None:
        raise AnalysisError("charging requires a run recorded with record_trace=True")
    if abs(result.speed - 1.0) > 1e-12:
        raise AnalysisError(
            f"charging is defined for speed-1 runs; this run used speed {result.speed}"
        )

    charges: Dict[int, float] = {pid: 0.0 for pid in result.records}
    transit: Dict[int, float] = {pid: 0.0 for pid in result.records}
    blocking: Dict[int, float] = {pid: 0.0 for pid in result.records}

    # Chunks transmitted in each slot, resolved back to Chunk objects.
    chunk_of: Dict[Tuple[int, int], Chunk] = {}
    for record in result:
        for chunk in record.chunks:
            chunk_of[(record.packet.packet_id, chunk.index)] = chunk
    transmitted_per_slot: Dict[int, List[Chunk]] = {}
    for slot_trace in result.trace:
        transmitted_per_slot[slot_trace.slot] = [
            chunk_of[(ev.packet_id, ev.chunk_index)] for ev in slot_trace.transmissions
        ]

    for record in result:
        pid = record.packet.packet_id
        if record.used_fixed_link:
            charges[pid] += record.assignment.weighted_latency
            transit[pid] += record.assignment.weighted_latency
            continue

        arrival = record.packet.arrival
        for chunk in record.chunks:
            if chunk.completed_slot is None or chunk.delivery_time is None:
                raise AnalysisError(f"chunk {chunk!r} was never delivered")
            # Head traversal (source → transmitter) and tail traversal
            # (receiver → destination): charged to the packet itself.
            head_slots = chunk.eligible_time - arrival
            tail_slots = int(math.ceil(chunk.delivery_time)) - (chunk.completed_slot + 1)
            transit_amount = chunk.weight * (head_slots + 1 + tail_slots)
            charges[pid] += transit_amount
            transit[pid] += transit_amount

            # Waiting slots: every slot in [eligible, completed) where the
            # chunk was pending but not transmitted.
            key_c = chunk_priority_key(chunk)
            for slot in range(chunk.eligible_time, chunk.completed_slot):
                blockers = [
                    other
                    for other in transmitted_per_slot.get(slot, ())
                    if other is not chunk
                    and (
                        other.transmitter == chunk.transmitter
                        or other.receiver == chunk.receiver
                    )
                    and chunk_priority_key(other) < key_c
                ]
                if not blockers:
                    raise AnalysisError(
                        f"chunk {chunk!r} waited at slot {slot} without a blocking chunk; "
                        "the charging scheme applies only to the stable-matching scheduler"
                    )
                # Own-packet blockers take precedence (the Lemma 2 accounting
                # folds those slots into the packet's self-latency term).
                own = [b for b in blockers if b.packet.packet_id == pid]
                if own:
                    charges[pid] += chunk.weight
                    transit[pid] += chunk.weight
                    continue
                blocker = min(blockers, key=chunk_priority_key)
                if _packet_order_key(blocker) < (arrival, pid):
                    # Blocker arrived earlier: the charge stays with this packet.
                    target = pid
                else:
                    # Blocker arrived later: it pays for the delay it causes.
                    target = blocker.packet.packet_id
                charges[target] += chunk.weight
                blocking[target] += chunk.weight

    return ChargingBreakdown(charges=charges, transit_charges=transit, blocking_charges=blocking)
