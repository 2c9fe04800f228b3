"""Result containers produced by the simulation engine.

A :class:`SimulationResult` records, for every packet, the dispatcher's
assignment (and hence the dual variable ``α_p``), the packet's completion
time and its weighted fractional latency, plus per-slot aggregates (matching
sizes) and an optional full event trace.  The analysis package reconstructs
the dual ``β`` variables from the chunk objects referenced here.

Every summary-level accessor (``summary()``, ``total_weighted_latency``,
``all_delivered``, …) reads the run's
:class:`~repro.simulation.accumulators.OnlineSummary`, which the engine
feeds under both retentions.  With ``retention="aggregate"`` the engine
keeps none of the per-packet records, and the per-packet accessors raise
:class:`ValueError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from repro.core.packet import Assignment, Chunk, Packet
from repro.simulation.accumulators import OnlineSummary
from repro.simulation.trace import SimulationTrace

__all__ = ["PacketRecord", "SimulationResult", "RETENTION_MODES"]

#: Valid values of ``EngineConfig.retention`` / ``SimulationResult.retention``.
RETENTION_MODES = ("full", "aggregate")


@dataclass
class PacketRecord:
    """Per-packet outcome of a simulation run.

    Attributes
    ----------
    packet:
        The packet.
    assignment:
        The dispatcher's decision (fixed link or reconfigurable edge with its
        chunks).
    completion_time:
        Time at which the *last* fraction of the packet reached the
        destination (``None`` while undelivered).
    weighted_latency:
        Total weighted fractional latency accumulated by the packet,
        ``Σ x · w_p · (delivery_time(x) − a_p)`` over delivered fractions.
    """

    packet: Packet
    assignment: Assignment
    completion_time: Optional[float] = None
    weighted_latency: float = 0.0

    @property
    def alpha(self) -> float:
        """The dual variable ``α_p`` (the dispatcher's recorded impact)."""
        return self.assignment.impact

    @property
    def used_fixed_link(self) -> bool:
        """Whether the packet was sent over the direct fixed link."""
        return self.assignment.uses_fixed_link

    @property
    def delivered(self) -> bool:
        """Whether the packet has fully reached its destination."""
        return self.completion_time is not None

    @property
    def flow_completion_time(self) -> float:
        """Unweighted completion latency ``completion_time − a_p``."""
        if self.completion_time is None:
            raise ValueError(f"packet {self.packet.packet_id} has not completed")
        return self.completion_time - self.packet.arrival

    @property
    def chunks(self) -> List[Chunk]:
        """The packet's chunks (empty for fixed-link packets)."""
        if self.assignment.uses_fixed_link:
            return []
        return list(self.assignment.chunks)


@dataclass
class SimulationResult:
    """Outcome of one simulation run of a policy on an instance.

    ``retention`` mirrors the engine configuration that produced the result.
    Both retentions fill the :attr:`aggregates` accumulators, the one source
    of every summary number; ``"full"`` also keeps a :class:`PacketRecord`
    per packet in :attr:`records` and the per-slot :attr:`matching_sizes`,
    while ``"aggregate"`` keeps nothing per packet (O(1) memory in the
    number of packets).
    """

    policy_name: str
    topology_name: str
    speed: float
    retention: str = "full"
    records: Dict[int, PacketRecord] = field(default_factory=dict)
    first_slot: int = 0
    last_slot: int = 0
    matching_sizes: List[int] = field(default_factory=list)
    trace: Optional[SimulationTrace] = None
    aggregates: OnlineSummary = field(default_factory=OnlineSummary)

    # ------------------------------------------------------------------ #
    # retention plumbing
    # ------------------------------------------------------------------ #
    @property
    def is_aggregate(self) -> bool:
        """Whether this result holds only streaming aggregates."""
        return self.retention == "aggregate"

    def _require_records(self, what: str) -> None:
        if self.is_aggregate:
            raise ValueError(
                f"{what} requires per-packet records, which retention='aggregate' "
                "does not keep; rerun with retention='full'"
            )

    # ------------------------------------------------------------------ #
    # summary accessors (the online aggregates, under both retentions)
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return self.aggregates.num_packets

    def __iter__(self) -> Iterator[PacketRecord]:
        self._require_records("iterating packet records")
        return iter(self.records.values())

    def record(self, packet_id: int) -> PacketRecord:
        """The :class:`PacketRecord` of packet ``packet_id``."""
        self._require_records("record()")
        return self.records[packet_id]

    @property
    def packets(self) -> List[Packet]:
        """All packets of the run, in packet-id order."""
        self._require_records("packets")
        return [self.records[pid].packet for pid in sorted(self.records)]

    @property
    def all_delivered(self) -> bool:
        """Whether every packet completed within the simulated horizon."""
        return self.aggregates.all_delivered

    @property
    def total_weighted_latency(self) -> float:
        """The objective value: total weighted fractional latency of the run.

        Summed with Neumaier compensation in dispatch order, so large-N
        totals do not drift.
        """
        return self.aggregates.total_weighted_latency

    @property
    def total_alpha(self) -> float:
        """Sum of the dual variables ``α_p`` recorded at dispatch time."""
        return self.aggregates.total_alpha

    @property
    def total_flow_completion_time(self) -> float:
        """Sum of per-packet (unweighted) flow completion times.

        Raises :class:`ValueError` when ``on_fail="drop"`` dropped packets:
        a dropped packet never completes, so the sum is undefined.
        """
        dropped = self.aggregates.num_dropped
        if dropped:
            raise ValueError(
                f"{dropped} of {len(self)} packets were dropped (on_fail='drop') "
                "and never completed; flow completion time is undefined"
            )
        return self.aggregates.total_completion_time

    @property
    def mean_flow_completion_time(self) -> float:
        """Average (unweighted) flow completion time (see :attr:`total_flow_completion_time`)."""
        n = len(self)
        return self.total_flow_completion_time / n if n else 0.0

    @property
    def num_slots(self) -> int:
        """Number of transmission slots simulated."""
        return max(0, self.last_slot - self.first_slot + 1) if len(self) else 0

    @property
    def num_fixed_link_packets(self) -> int:
        """Number of packets routed over the fixed network."""
        return self.aggregates.num_fixed_link

    @property
    def fixed_link_fraction(self) -> float:
        """Fraction of packets routed over the fixed network."""
        n = len(self)
        if not n:
            return 0.0
        return self.num_fixed_link_packets / n

    @property
    def mean_matching_size(self) -> float:
        """Average per-slot matching size across the simulated horizon."""
        slots = self.num_slots
        return self.aggregates.matching_total / slots if slots else 0.0

    def weighted_latencies(self) -> List[float]:
        """Per-packet weighted latencies, in packet-id order."""
        self._require_records("weighted_latencies()")
        return [self.records[pid].weighted_latency for pid in sorted(self.records)]

    def flow_completion_times(self) -> List[float]:
        """Per-packet completion latencies, in packet-id order."""
        self._require_records("flow_completion_times()")
        return [self.records[pid].flow_completion_time for pid in sorted(self.records)]

    def chunk_records(self) -> List[Chunk]:
        """All chunks of all reconfigurable-routed packets."""
        self._require_records("chunk_records()")
        chunks: List[Chunk] = []
        for rec in self.records.values():
            chunks.extend(rec.chunks)
        return chunks

    def summary(self) -> Dict[str, float]:
        """Compact numeric summary used by the experiment harness.

        Read from the online aggregates, so it is the same (bit-for-bit)
        under ``retention="full"`` and ``retention="aggregate"``.
        """
        total = self.total_weighted_latency
        n = len(self)
        return {
            "num_packets": float(n),
            "total_weighted_latency": total,
            "mean_weighted_latency": total / n if n else 0.0,
            "num_slots": float(self.num_slots),
            "fixed_link_fraction": self.fixed_link_fraction,
            "mean_matching_size": self.mean_matching_size,
        }
