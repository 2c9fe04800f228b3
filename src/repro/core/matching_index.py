"""Incremental repair of the greedy stable matching (Section III-C hot path).

The reference scheduler recomputes the greedy stable matching from scratch
every slot: sort all eligible chunks by priority, walk the order, select a
chunk whenever both ports of its edge are free.  Between consecutive slots,
however, the eligible set changes only where chunks arrived, completed or
became eligible, and the greedy matching has a local characterisation that
makes it repairable from exactly those deltas:

    a chunk ``c`` is matched  ⟺  no *matched* chunk of higher priority
    shares ``c``'s transmitter or receiver.

(The greedy matching is the lexicographically-first maximal matching in the
chunk conflict graph; each matched chunk owns both its ports.)  The
characterisation yields three repair rules:

* **removal** of a matched chunk ``c`` frees its two ports; the only chunks
  whose status can flip are *lower*-priority chunks on those two ports (a
  higher-priority unmatched chunk was blocked through its other port, which
  the removal did not touch).  Removing an unmatched chunk changes nothing.
* **addition / activation** of a chunk ``c`` can match it — evicting at most
  one lower-priority owner per port — and each eviction recursively frees
  that owner's other port.  Every chunk in the cascade has strictly lower
  priority than its evictor, so the cascade is driven by the delta, not by
  the pool size.
* **handover** is the common case of removal, applied at once.  At speed 1 a
  matched chunk finishes its edge in one slot, and the next chunk on both of
  its ports is usually the next chunk of the same edge — often of the same
  packet.  So if no repair task is pending and, after the matched chunk
  ``c`` is deleted, the entry at ``c``'s old position is the same chunk ``u``
  in the transmitter list and in the receiver list, ``u`` takes both ports
  and no task is pushed.  *Proof.*  With no task pending, the matching is
  the greedy matching of the eligible set that still includes ``c``.  Take
  the two scans the removal rule would push, both from ``c``'s key.  Each
  finds ``u`` first, because ``u`` follows ``c`` directly on that port, and
  ``u``'s other port is free, because ``c`` owned it.  So the first scan to
  reach ``u`` without deferring to the other matches it, and the other then
  finds its port owned.  In greedy terms: every chunk between ``c`` and
  ``u`` in priority order avoids both ports and is decided as before, and
  ``u`` then finds both ports free and leaves every later chunk exactly the
  port state ``c`` left it.

:class:`MatchingIndex` implements the rules with a single priority-keyed
task heap.  Events (activations, removals) push *tasks*; draining the heap
processes tasks in non-decreasing priority order, which makes every decision
final — exactly the order the from-scratch greedy pass would have used — so
the repaired matching is **bit-identical** (same chunks, and, after the final
priority sort of the small matched set, same order) to
:func:`~repro.core.stable_matching.greedy_stable_matching` on the current
eligible set.  The differential harness and the property tests in
``tests/test_matching_index.py`` enforce this equivalence.

Two task kinds exist:

* ``eval(run)`` — decide an activated run's head ``c`` at its own priority:
  match it (evicting lower-priority port owners) iff both ports are free or
  lower-priority.
* ``scan(side, port, from_key)`` — a port was freed by a chunk with priority
  ``from_key``; find the highest-priority chunk below ``from_key`` on the
  port whose other port is also free (or lower-priority).  Before committing
  to a candidate ``u``, the scan *defers* to any heap task of higher priority
  than ``u`` by re-pushing itself at ``u``'s key — this is what keeps
  decisions globally priority-ordered even when several ports are repaired
  at once.

One entry and one ``eval`` per run
----------------------------------
A packet dispatched to edge ``e`` becomes ``d(e)`` chunks with the same edge,
weight and eligibility time, so they activate together as a *run*:
consecutive entries in the priority order (their keys differ only in the
chunk index).  Each port list holds the pool's own
:class:`~repro.core.packet.ChunkRun` entry for the run, keyed by its head,
the only chunk of the run that can be matched; only the head gets an
``eval`` task.
Every later chunk of the run shares both ports with the head and ranks
below it, so when the head is evaluated either

* it wins both ports, and then owns them against the rest of the run, or
* it is blocked by an owner that outranks it, and therefore outranks the
  whole run.

Either way the rest of the run is unmatched in the greedy pass, exactly as
their own evals would have found.  Any later release of those ports pushes a
scan from the releaser's key, which ranks above the whole run.  If the head
leaves before its ``eval`` runs, the run's next chunk is decided in its place.

When a head that is not its run's last chunk leaves, the pool moves the
entry's head to the next chunk, the next entry on both ports: if the head
was matched and no task is pending, the run keeps both ports (the handover,
by construction).  With a task pending the removal rule runs.  Only a run's
last chunk deletes the entry, and the pool empties its chunk list so a
queued ``eval`` does nothing.  A chunk leaving from behind its run's head
is unmatched; the pool activates the chunks after it as a new entry.

Runs are stored per *port*: every transmitter and every receiver keeps its
eligible run entries sorted by key, a total order computed once per chunk
(:attr:`Chunk.key <repro.core.packet.Chunk>`), so entries bisect with
C-level tuple comparisons.  A scan bisects the freed port's list at
``from_key`` and walks forward.  When a candidate's other port is owned by
a run that outranks it, that peer port goes into the scan's local
``blocked`` set: the owner outranks every later chunk of the same edge too,
so the walk skips them without looking at their owners again.  Skipping is
safe: if that owner is later evicted, the eviction itself pushes a scan for
the freed peer port, which re-covers the skipped chunks.

The walk stops at the first chunk it can match, so a scan costs one bisect
plus a short walk instead of one bisect per active edge of the port.  On
perfbench's ALG cells, 65% (``dense-d4``) and 68% (``saturated-pairs``) of
the matched removals leave their run's entry in place with its ports, and
another 0.4% and 21% hand over to the next run on the same edge.

Amortised cost per slot is O((Δ + cascade) · (log n + walk)) against the
reference scheduler's Θ(E log E) full pass over all eligible chunks, where
walk is the number of entries a scan reads.
"""

from __future__ import annotations

from bisect import bisect_left
from heapq import heappop, heappush
from operator import attrgetter
from typing import Dict, List, Optional, Set, Tuple

from repro.core.packet import Chunk, ChunkRun

__all__ = ["MatchingIndex"]

#: A chunk's total-order priority key; keys are unique.
_Key = Tuple[float, int, int, int]
_key = attrgetter("key")

#: Task kinds, ordered only for readability — the heap never compares them
#: (a strictly increasing sequence number sits before the kind in each entry).
_EVAL = 0
_SCAN_TX = 1
_SCAN_RX = 2


def _insert(lists: Dict[str, List[ChunkRun]], port: str, run: ChunkRun) -> None:
    """Insert a run's entry into ``port``'s key-sorted list."""
    existing = lists.get(port)
    if existing is None:
        lists[port] = [run]
    else:
        existing.insert(bisect_left(existing, run.key, key=_key), run)


def _delete(
    lists: Dict[str, List[ChunkRun]], port: str, key: _Key
) -> Tuple[List[ChunkRun], int]:
    """Delete the entry keyed ``key`` from ``port``'s list; return the list
    and the entry's old position."""
    entries = lists[port]
    pos = bisect_left(entries, key, key=_key)
    del entries[pos]
    if not entries:
        del lists[port]
    return entries, pos


class MatchingIndex:
    """Maintains the greedy stable matching of an *eligible* chunk set under deltas.

    The owning :class:`~repro.core.queues.PendingChunkPool` passes its own
    run entries through three events: :meth:`activate` (a run became
    eligible), :meth:`head_left` (a run's head left and the run goes on) and
    :meth:`run_left` (a run's last chunk left).  Repair work is deferred:
    events only push tasks (a handover needs none and settles at once), and
    :meth:`current_matching` drains the task heap before reporting, so a
    burst of completions and arrivals between two slots is settled in one
    priority-ordered pass.
    """

    __slots__ = (
        "_tx_runs",
        "_rx_runs",
        "_tx_owner",
        "_rx_owner",
        "_tasks",
        "_seq",
        "_tasks_done",
        "_evictions",
        "_handovers",
    )

    def __init__(self) -> None:
        # Port → its eligible run entries, kept key-sorted.
        self._tx_runs: Dict[str, List[ChunkRun]] = {}
        self._rx_runs: Dict[str, List[ChunkRun]] = {}
        # Port → the matched run currently owning it.  A matched run's head
        # is the matched chunk; it owns both its ports, and only matched
        # runs own ports, so the transmitter owners are the matching.
        self._tx_owner: Dict[str, ChunkRun] = {}
        self._rx_owner: Dict[str, ChunkRun] = {}
        # Pending repair tasks: (priority key, seq, kind, payload).  The seq
        # makes entries unique so kinds/payloads are never compared.
        self._tasks: List[Tuple[_Key, int, int, object]] = []
        self._seq = 0
        # Lifetime repair-work tallies (always on; one int add per event).
        self._tasks_done = 0
        self._evictions = 0
        self._handovers = 0

    # ------------------------------------------------------------------ #
    # events (pushed by the pool)
    # ------------------------------------------------------------------ #
    def activate(self, run: ChunkRun) -> None:
        """Track a run entry that just became eligible: both port lists and
        one ``eval`` task (the pool has rejected duplicate chunks)."""
        _insert(self._tx_runs, run.transmitter, run)
        _insert(self._rx_runs, run.receiver, run)
        self._push(run.key, _EVAL, run)

    def head_left(self, run: ChunkRun, key: _Key) -> None:
        """A run's head of priority ``key`` left; the pool has moved the
        entry's head and key to the run's next chunk."""
        if self._tx_owner.get(run.transmitter) is not run:
            return
        if not self._tasks:
            # Handover by construction: the run keeps both ports.
            self._handovers += 1
            return
        self._release(run, key)

    def run_left(self, run: ChunkRun) -> None:
        """A tracked run's last chunk left: the entry leaves both port lists."""
        key = run.key
        tx, rx = run.transmitter, run.receiver
        # The positions are kept: after the deletion they hold the successors.
        tx_entries, tx_pos = _delete(self._tx_runs, tx, key)
        rx_entries, rx_pos = _delete(self._rx_runs, rx, key)
        if self._tx_owner.get(tx) is not run:
            return
        if not self._tasks and tx_pos < len(tx_entries) and rx_pos < len(rx_entries):
            successor = tx_entries[tx_pos]
            if successor is rx_entries[rx_pos]:
                # Handover rule: the next entry on both ports takes them both.
                self._tx_owner[tx] = self._rx_owner[rx] = successor
                self._handovers += 1
                return
        self._release(run, key)

    def _release(self, run: ChunkRun, key: _Key) -> None:
        """Removal rule: only lower-priority chunks on the two freed ports can
        flip status — scan each port from the removed chunk's ``key``."""
        tx, rx = run.transmitter, run.receiver
        del self._tx_owner[tx]
        del self._rx_owner[rx]
        self._push(key, _SCAN_TX, (tx, None))
        self._push(key, _SCAN_RX, (rx, None))

    def clear(self) -> None:
        """Forget every chunk and pending task."""
        self._tx_runs.clear()
        self._rx_runs.clear()
        self._tx_owner.clear()
        self._rx_owner.clear()
        self._tasks.clear()
        self._tasks_done = 0
        self._evictions = 0
        self._handovers = 0

    def stats(self) -> Dict[str, int]:
        """Lifetime repair-work counters.

        ``tasks`` is the number of heap tasks drained (evals, scans and scan
        deferrals) and ``evictions`` the number of matched chunks displaced
        by higher-priority arrivals — together the size of the repair
        cascades that replaced full recomputes.  ``handovers`` counts matched
        removals settled by the handover rule, which push no task.
        """
        return {
            "tasks": self._tasks_done,
            "evictions": self._evictions,
            "handovers": self._handovers,
        }

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def current_matching(self) -> List[Chunk]:
        """The greedy stable matching of the tracked eligible set, in priority order.

        Drains the pending repair tasks first; the result is bit-identical to
        ``greedy_stable_matching(eligible)`` recomputed from scratch.
        """
        self._drain()
        return [run.chunks[0] for run in sorted(self._tx_owner.values(), key=_key)]

    # ------------------------------------------------------------------ #
    # repair machinery
    # ------------------------------------------------------------------ #
    def _push(self, key: _Key, kind: int, payload: object) -> None:
        heappush(self._tasks, (key, self._seq, kind, payload))
        self._seq += 1

    def _drain(self) -> None:
        tasks = self._tasks
        while tasks:
            key, _, kind, payload = heappop(tasks)
            self._tasks_done += 1
            if kind == _EVAL:
                self._eval(payload)
            else:
                self._scan(payload[0], key, payload[1], is_tx=kind == _SCAN_TX)

    def _eval(self, run: ChunkRun) -> None:
        """Decide an activated run at its head's priority position.

        Heads that left before this task ran never held a port (the run was
        unmatched until its eval), and no other task key lies between theirs
        and the run's current head, so that chunk is decided in their place.
        """
        if not run.chunks:
            return
        key = run.key
        tx_owner = self._tx_owner.get(run.transmitter)
        if tx_owner is run:
            return
        rx_owner = self._rx_owner.get(run.receiver)
        # The priority key is a total order, so an owner's key is never equal
        # to ``key``; a lower key means the owner outranks (blocks) the run.
        if tx_owner is not None and tx_owner.key < key:
            return
        if rx_owner is not None and rx_owner.key < key:
            return
        self._match(run, tx_owner, rx_owner)

    def _match(
        self, run: ChunkRun, tx_owner: Optional[ChunkRun], rx_owner: Optional[ChunkRun]
    ) -> None:
        """Match ``run``'s head, evicting the (strictly lower-priority) port owners."""
        if tx_owner is not None and tx_owner is rx_owner:
            # Same-edge owner: both its ports pass straight to ``run``.
            self._evictions += 1
        else:
            if tx_owner is not None:
                # Evicted from the shared transmitter; its receiver is freed
                # and only chunks below the evictee can use it.
                self._evictions += 1
                del self._rx_owner[tx_owner.receiver]
                self._push(tx_owner.key, _SCAN_RX, (tx_owner.receiver, None))
            if rx_owner is not None:
                self._evictions += 1
                del self._tx_owner[rx_owner.transmitter]
                self._push(rx_owner.key, _SCAN_TX, (rx_owner.transmitter, None))
        self._tx_owner[run.transmitter] = run
        self._rx_owner[run.receiver] = run

    def _scan(
        self,
        port: str,
        from_key: _Key,
        state: Optional[Tuple[int, Set[str]]],
        *,
        is_tx: bool,
    ) -> None:
        """Find a new owner for a freed ``port`` among runs at or below ``from_key``.

        Decisions made while this task was queued all had keys <= ``from_key``
        (the deferral rule below guarantees it), so if the port has an owner
        again it outranks every candidate and the scan is over.

        The scan walks the port's key-sorted list from ``from_key``, skipping
        runs whose peer port is in the local ``blocked`` set.  ``state`` is
        ``None`` for a fresh scan (one bisect finds the start) or the saved
        ``(index, blocked)`` of a deferred scan — port lists and run keys
        only change outside :meth:`_drain`, and a deferred scan is always re-popped within
        the same drain, so the saved index stays valid.
        """
        owners = self._tx_owner if is_tx else self._rx_owner
        if port in owners:
            return
        entries = (self._tx_runs if is_tx else self._rx_runs).get(port)
        if entries is None:
            return
        if state is None:
            start = bisect_left(entries, from_key, key=_key)
            blocked: Set[str] = set()
        else:
            start, blocked = state
        other_owners = self._rx_owner if is_tx else self._tx_owner
        tasks = self._tasks
        for index in range(start, len(entries)):
            candidate = entries[index]
            peer = candidate.receiver if is_tx else candidate.transmitter
            if peer in blocked:
                continue
            candidate_key = candidate.key
            if tasks and tasks[0][0] < candidate_key:
                # A strictly higher-priority task is pending; defer so every
                # decision is made in global priority order.
                self._push(
                    candidate_key, _SCAN_TX if is_tx else _SCAN_RX, (port, (index, blocked))
                )
                return
            # ``candidate`` is unmatched: matched runs own both their ports,
            # and this port has no owner.
            other_owner = other_owners.get(peer)
            if other_owner is None or candidate_key < other_owner.key:
                if is_tx:
                    self._match(candidate, None, other_owner)
                else:
                    self._match(candidate, other_owner, None)
                return
            # The peer port's owner outranks the candidate — and therefore
            # every later chunk on the same edge, so the walk skips them.
            # If that owner is evicted later, the eviction pushes a scan for
            # the freed peer port which re-covers these chunks.
            blocked.add(peer)
