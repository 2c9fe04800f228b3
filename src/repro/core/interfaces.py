"""Policy interfaces shared by the paper's algorithm and the baselines.

A *policy* is the pair of online decisions the simulator needs each slot:

* a :class:`Dispatcher` decides, at packet arrival, whether the packet uses
  the fixed link or which reconfigurable edge it is committed to (and hence
  how it is chunked);
* a :class:`Scheduler` decides, at each transmission slot, which pending
  chunks are transmitted; the returned set must use each transmitter and each
  receiver at most once (a matching in the reconfigurable network).

The paper's algorithm ALG is the pair (impact dispatcher, greedy
stable-matching scheduler); the baselines in :mod:`repro.baselines` implement
the same interfaces with different decision rules so that every policy runs
on the identical simulation engine.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING, Hashable, List, Optional

from repro.core.packet import Assignment, Chunk, Packet

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.queues import PendingChunkPool
    from repro.network.topology import TwoTierTopology

__all__ = ["Dispatcher", "Scheduler", "Policy"]


class Dispatcher(abc.ABC):
    """Online dispatch rule: commit each arriving packet to a route."""

    #: Human-readable name used in experiment reports.
    name: str = "dispatcher"

    @abc.abstractmethod
    def dispatch(
        self,
        packet: Packet,
        topology: "TwoTierTopology",
        pool: "PendingChunkPool",
        now: int,
    ) -> Assignment:
        """Assign ``packet`` to a fixed link or a reconfigurable edge.

        Parameters
        ----------
        packet:
            The arriving packet (its arrival slot equals ``now``).
        topology:
            The (frozen) network topology.
        pool:
            The current pending-chunk pool; contains every chunk already
            dispatched but not yet fully transmitted.  Because packets are
            dispatched one at a time in arrival order, the pool is exactly
            the paper's set ``B_p`` restricted to pending chunks.
        now:
            The current transmission slot.

        Returns
        -------
        Assignment
            Either an :class:`~repro.core.packet.EdgeAssignment` (with chunks
            created) or a :class:`~repro.core.packet.FixedLinkAssignment`.
        """

    def reset(self) -> None:
        """Clear any per-run internal state (default: nothing to clear)."""

    def dispatch_sharing_key(self) -> Optional[Hashable]:
        """Key identifying dispatchers that compute the *same* dispatch rule.

        :meth:`~repro.simulation.engine.SimulationEngine.run_multi` groups
        lanes whose dispatchers return the same non-``None`` key and lets
        them share one impact evaluation per (arrival, pool state) through a
        :class:`~repro.core.dispatcher.SharedDispatchMemo`.  A dispatcher
        returning a non-``None`` key must expose a writable ``shared_memo``
        attribute and consult it in :meth:`dispatch`.  The default — no
        sharing — is right for any stateful or randomised rule.
        """
        return None


class Scheduler(abc.ABC):
    """Per-slot transmission rule: pick the chunks transmitted this slot."""

    #: Human-readable name used in experiment reports.
    name: str = "scheduler"

    #: Whether the scheduler reads the pool's incremental
    #: :class:`~repro.core.matching_index.MatchingIndex` when one is present.
    #: Indexed-engine lanes only pay for maintaining the index when their
    #: scheduler opts in (the stable-matching scheduler does by default).
    uses_matching_index: bool = False

    @abc.abstractmethod
    def select_matching(
        self,
        pool: "PendingChunkPool",
        topology: "TwoTierTopology",
        now: int,
    ) -> List[Chunk]:
        """Return the chunks to transmit during slot ``[now, now+1)``.

        The returned chunks must be pending, eligible at ``now``, and their
        edges must form a matching: no two returned chunks may share a
        transmitter or a receiver.  The engine validates this and raises
        :class:`~repro.exceptions.SchedulingError` otherwise.
        """

    def reset(self) -> None:
        """Clear any per-run internal state (default: nothing to clear)."""


@dataclass
class Policy:
    """A named (dispatcher, scheduler) pair runnable by the simulation engine."""

    name: str
    dispatcher: Dispatcher
    scheduler: Scheduler

    def reset(self) -> None:
        """Reset both components before a fresh simulation run."""
        self.dispatcher.reset()
        self.scheduler.reset()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Policy({self.name!r}, dispatcher={self.dispatcher.name!r}, "
            f"scheduler={self.scheduler.name!r})"
        )
