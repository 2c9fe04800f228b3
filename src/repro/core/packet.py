"""Packet, chunk and assignment data types (Section II / III-B of the paper).

A :class:`Packet` is the unit of demand: it arrives online at an integer time
slot, carries a positive weight and must be routed from its source to its
destination.  Packets are of uniform size 1 (the paper argues this is without
loss of generality in the speed-augmentation model).

When the dispatcher assigns a packet to a reconfigurable edge ``e`` it is
split into ``d(e)`` :class:`Chunk` objects of size ``1/d(e)`` and weight
``w_p / d(e)``; each chunk crosses the edge in exactly one slot at speed 1.
The dispatcher's decision is recorded as an :class:`EdgeAssignment` or a
:class:`FixedLinkAssignment` (direct source→destination link).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

from repro.exceptions import DispatchError

__all__ = [
    "Packet",
    "Chunk",
    "ChunkRun",
    "EdgeAssignment",
    "FixedLinkAssignment",
    "Assignment",
    "split_into_chunks",
]


@dataclass(frozen=True)
class Packet:
    """A unit-size packet of the online input sequence.

    Attributes
    ----------
    packet_id:
        Unique non-negative integer identifier; also used for deterministic
        tie-breaking (packets with smaller ids were handed to the dispatcher
        earlier).
    source, destination:
        Names of the source and destination nodes.
    weight:
        Positive weight ``w_p`` (e.g. flow priority or remaining flow size).
    arrival:
        Integer arrival slot ``a_p >= 1``.  Fractional arrival times must be
        ceiled by the workload layer before constructing the packet, as in
        Section II of the paper.
    """

    packet_id: int
    source: str
    destination: str
    weight: float
    arrival: int

    def __post_init__(self) -> None:
        if self.packet_id < 0:
            raise ValueError(f"packet_id must be non-negative, got {self.packet_id}")
        if not self.weight > 0:
            raise ValueError(f"packet weight must be positive, got {self.weight}")
        if int(self.arrival) != self.arrival or self.arrival < 1:
            raise ValueError(f"packet arrival must be an integer >= 1, got {self.arrival}")

    @property
    def size(self) -> float:
        """Packet size; always 1 (uniform-size assumption of Section II)."""
        return 1.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Packet(id={self.packet_id}, {self.source}->{self.destination}, "
            f"w={self.weight}, a={self.arrival})"
        )


class Chunk:
    """A ``1/d(e)``-sized piece of a packet assigned to reconfigurable edge ``e``.

    The chunk carries the scheduling state mutated by the simulation engine:
    ``remaining_work`` (1.0 when untransmitted, 0.0 when fully transmitted)
    and, once delivered, the slot in which it crossed its edge and the time it
    reached the destination.

    ``key`` is the chunk's total-order priority key (see
    :func:`~repro.utils.ordering.chunk_priority_key`), computed once here.
    It reads only fields that never change after construction (a fault
    redispatch rewrites the edge and ``eligible_time``, never these), so every
    sorted index can compare cached keys instead of rebuilding them.
    """

    __slots__ = (
        "packet",
        "index",
        "key",
        "size",
        "weight",
        "transmitter",
        "receiver",
        "eligible_time",
        "tail_delay",
        "remaining_work",
        "completed_slot",
        "delivery_time",
    )

    def __init__(
        self,
        packet: Packet,
        index: int,
        size: float,
        weight: float,
        transmitter: str,
        receiver: str,
        eligible_time: int,
        tail_delay: int,
    ) -> None:
        if index < 1:
            raise ValueError(f"chunk index must be >= 1, got {index}")
        if not 0 < size <= 1:
            raise ValueError(f"chunk size must lie in (0, 1], got {size}")
        if not weight > 0:
            raise ValueError(f"chunk weight must be positive, got {weight}")
        self.packet = packet
        self.index = index
        self.key = (-weight, packet.arrival, packet.packet_id, index)
        self.size = size
        self.weight = weight
        self.transmitter = transmitter
        self.receiver = receiver
        self.eligible_time = eligible_time
        self.tail_delay = tail_delay
        self.remaining_work: float = 1.0
        self.completed_slot: Optional[int] = None
        self.delivery_time: Optional[float] = None

    @property
    def edge(self) -> Tuple[str, str]:
        """The ``(transmitter, receiver)`` edge this chunk is assigned to."""
        return (self.transmitter, self.receiver)

    @property
    def pending(self) -> bool:
        """Whether the chunk still has untransmitted work."""
        return self.remaining_work > 0

    @property
    def delivered(self) -> bool:
        """Whether the chunk has fully reached its destination."""
        return self.delivery_time is not None

    def latency(self) -> float:
        """Weighted latency ``w_c · (delivery_time − a_p)`` of a delivered chunk."""
        if self.delivery_time is None:
            raise DispatchError(f"chunk {self!r} has not been delivered yet")
        return self.weight * (self.delivery_time - self.packet.arrival)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "delivered" if self.delivered else ("pending" if self.pending else "in-flight")
        return (
            f"Chunk(p{self.packet.packet_id}#{self.index}, edge={self.edge}, "
            f"w={self.weight:.4g}, {state})"
        )


class ChunkRun:
    """One sorted-structure entry for a run: consecutive chunks of one packet
    on one edge, with one weight and one ``eligible_time``.

    No other chunk's key lies between the run's keys, so the entry sorts by
    ``key``, its first pending chunk's (the head's).  When the head leaves,
    its holder moves ``key`` to the next chunk and every list stays sorted.
    The pool caches ``impact_hash`` here (see its impact fingerprint).
    """

    __slots__ = ("chunks", "key", "transmitter", "receiver", "impact_hash")

    def __init__(self, chunks: List[Chunk]) -> None:
        head = chunks[0]
        self.chunks = chunks
        self.key = head.key
        self.transmitter = head.transmitter
        self.receiver = head.receiver

    def cut(self, chunk: Chunk) -> List[Chunk]:
        """Take ``chunk``, not the head, out of the run; return the chunks
        after it, which must become a run of their own."""
        chunks = self.chunks
        pos = chunks.index(chunk)
        rest = chunks[pos + 1:]
        del chunks[pos:]
        return rest


@dataclass
class EdgeAssignment:
    """Assignment of a packet to a reconfigurable edge, with its chunks.

    Attributes
    ----------
    packet:
        The assigned packet.
    transmitter, receiver:
        The chosen edge ``e_p``.
    edge_delay:
        ``d(e_p)``; the packet is split into this many chunks.
    impact:
        The dispatcher's worst-case impact estimate ``Δ_p(e_p)``; this is the
        value the analysis assigns to the dual variable ``α_p``.
    chunks:
        The ``d(e_p)`` chunks created for the packet.
    """

    packet: Packet
    transmitter: str
    receiver: str
    edge_delay: int
    impact: float
    chunks: List[Chunk] = field(default_factory=list)

    @property
    def edge(self) -> Tuple[str, str]:
        """The chosen ``(transmitter, receiver)`` pair."""
        return (self.transmitter, self.receiver)

    @property
    def uses_fixed_link(self) -> bool:
        """Always ``False`` for edge assignments."""
        return False


@dataclass
class FixedLinkAssignment:
    """Assignment of a packet to the direct source→destination link.

    Attributes
    ----------
    packet:
        The assigned packet.
    link_delay:
        ``d_l(p)``; the packet completes at ``a_p + d_l(p)`` with weighted
        latency ``w_p · d_l(p)``.
    impact:
        The value assigned to the dual variable ``α_p``; the paper sets it to
        ``w_p · d_l(p)`` for fixed-link packets.
    """

    packet: Packet
    link_delay: int
    impact: float

    @property
    def uses_fixed_link(self) -> bool:
        """Always ``True`` for fixed-link assignments."""
        return True

    @property
    def completion_time(self) -> float:
        """Time the packet reaches its destination via the fixed link."""
        return self.packet.arrival + self.link_delay

    @property
    def weighted_latency(self) -> float:
        """Weighted latency ``w_p · d_l(p)`` incurred on the fixed link."""
        return self.packet.weight * self.link_delay


Assignment = Union[EdgeAssignment, FixedLinkAssignment]


def split_into_chunks(
    packet: Packet,
    transmitter: str,
    receiver: str,
    edge_delay: int,
    head_delay: int = 0,
    tail_delay: int = 0,
) -> List[Chunk]:
    """Split ``packet`` into ``edge_delay`` chunks for edge ``(transmitter, receiver)``.

    Each chunk has size ``1/d(e)`` and weight ``w_p/d(e)`` (Section III-B).
    Chunks become eligible for transmission once the packet has traversed the
    source→transmitter attachment edge, i.e. at ``a_p + head_delay``.
    """
    if edge_delay < 1:
        raise DispatchError(f"edge delay must be >= 1, got {edge_delay}")
    size = 1.0 / edge_delay
    weight = packet.weight / edge_delay
    eligible = packet.arrival + head_delay
    return [
        Chunk(
            packet=packet,
            index=i + 1,
            size=size,
            weight=weight,
            transmitter=transmitter,
            receiver=receiver,
            eligible_time=eligible,
            tail_delay=tail_delay,
        )
        for i in range(edge_delay)
    ]
