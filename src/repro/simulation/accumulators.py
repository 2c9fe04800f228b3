"""Online (streaming) accumulators for simulation summaries.

The paper's objective — total weighted fractional latency — is a pure sum
over transmissions, so none of the summary numbers reported by
:meth:`~repro.simulation.results.SimulationResult.summary` actually require
the per-packet records to be held in memory.  This module provides the
running aggregates the engine maintains under every retention, and from
which every summary number is read:

* :class:`CompensatedSum` — a Neumaier-compensated running float sum, so
  million-packet totals do not drift the way a naive ``+=`` loop does;
* :class:`OnlineSummary` — the counters and compensated totals behind
  every ``summary()`` number.

Per-packet final values enter the compensated totals in dispatch order (the
engine defers out-of-order completions until all earlier-dispatched packets
are final), so the totals do not depend on completion order and equal a
compensated sum over the full-retention records in record order.
"""

from __future__ import annotations

from typing import Iterable

__all__ = ["CompensatedSum", "OnlineSummary", "compensated_total"]


class CompensatedSum:
    """Neumaier-compensated (improved Kahan) running sum.

    Keeps a running compensation term for the low-order bits lost by each
    addition, so the accumulated error stays O(1) ulp instead of growing with
    the number of terms.  For any fixed sequence of :meth:`add` calls the
    result is deterministic, which is what the engine's cross-retention
    bit-identity guarantee builds on.

    Examples
    --------
    >>> acc = CompensatedSum()
    >>> for v in (1e16, 1.0, -1e16):
    ...     acc.add(v)
    >>> acc.value   # a naive sum returns 0.0 here
    1.0
    """

    __slots__ = ("_total", "_compensation")

    def __init__(self, value: float = 0.0) -> None:
        self._total = float(value)
        self._compensation = 0.0

    def add(self, value: float) -> None:
        """Add ``value`` to the running sum."""
        value = float(value)
        total = self._total
        new_total = total + value
        if abs(total) >= abs(value):
            self._compensation += (total - new_total) + value
        else:
            self._compensation += (value - new_total) + total
        self._total = new_total

    @property
    def value(self) -> float:
        """The compensated running total."""
        return self._total + self._compensation

    def __float__(self) -> float:
        return self.value

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CompensatedSum({self.value!r})"


def compensated_total(values: Iterable[float]) -> float:
    """Sum ``values`` with Neumaier compensation, in iteration order."""
    acc = CompensatedSum()
    for value in values:
        acc.add(value)
    return acc.value


class OnlineSummary:
    """Running aggregates of a simulation run, under every retention.

    The engine feeds three event streams into this object:

    * :meth:`add_dispatch` — once per packet, at its dispatch slot;
    * :meth:`add_completion` — once per packet, *in dispatch order* (the
      engine buffers out-of-order completions), with the packet's final
      weighted latency and flow completion time;
    * the ``matching_*`` counters — per non-empty slot matching, its size
      folded into a total, a maximum and a count of non-empty slots (the
      slot count is the result's ``num_slots``).

    It also counts packets that completed (``num_delivered``) and packets
    abandoned by ``on_fail="drop"`` (``num_dropped``).
    """

    __slots__ = (
        "num_packets",
        "num_delivered",
        "num_dropped",
        "num_fixed_link",
        "matching_total",
        "matching_max",
        "matching_nonempty",
        "_weighted_latency",
        "_alpha",
        "_completion_time",
    )

    def __init__(self) -> None:
        self.num_packets = 0
        self.num_delivered = 0
        self.num_dropped = 0
        self.num_fixed_link = 0
        self.matching_total = 0
        self.matching_max = 0
        self.matching_nonempty = 0
        self._weighted_latency = CompensatedSum()
        self._alpha = CompensatedSum()
        self._completion_time = CompensatedSum()

    # ------------------------------------------------------------------ #
    # event ingestion
    # ------------------------------------------------------------------ #
    def add_dispatch(self, alpha: float, used_fixed_link: bool) -> None:
        """Record one dispatched packet (its ``α_p`` and routing class)."""
        self.num_packets += 1
        if used_fixed_link:
            self.num_fixed_link += 1
        self._alpha.add(alpha)

    def add_completion(self, weighted_latency: float, flow_completion_time: float) -> None:
        """Fold one packet's final per-packet metrics into the totals.

        Called in dispatch order (the engine guarantees this), so the totals
        do not depend on the order in which packets complete.
        """
        self._weighted_latency.add(weighted_latency)
        self._completion_time.add(flow_completion_time)

    # ------------------------------------------------------------------ #
    # aggregate accessors
    # ------------------------------------------------------------------ #
    @property
    def all_delivered(self) -> bool:
        """Whether every dispatched packet completed."""
        return self.num_delivered == self.num_packets

    @property
    def total_weighted_latency(self) -> float:
        """The objective value: total weighted fractional latency."""
        return self._weighted_latency.value

    @property
    def total_alpha(self) -> float:
        """Sum of the dual variables ``α_p``."""
        return self._alpha.value

    @property
    def total_completion_time(self) -> float:
        """Sum of per-packet (unweighted) flow completion times."""
        return self._completion_time.value
