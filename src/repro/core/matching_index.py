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
characterisation yields two repair rules:

* **removal** of a matched chunk ``c`` frees its two ports; the only chunks
  whose status can flip are *lower*-priority chunks on those two ports (a
  higher-priority unmatched chunk was blocked through its other port, which
  the removal did not touch).  Removing an unmatched chunk changes nothing.
* **addition / activation** of a chunk ``c`` can match it — evicting at most
  one lower-priority owner per port — and each eviction recursively frees
  that owner's other port.  Every chunk in the cascade has strictly lower
  priority than its evictor, so the cascade is driven by the delta, not by
  the pool size.

:class:`MatchingIndex` implements both rules with a single priority-keyed
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

One ``eval`` per run
--------------------
A packet dispatched to edge ``e`` becomes ``d(e)`` chunks with the same edge,
weight and eligibility time, so they activate together as a *run*:
consecutive entries in the priority order (their keys differ only in the
chunk index).  Only the run's head gets an ``eval`` task.  Every later chunk
of the run shares both ports with the head and ranks below it, so when the
head is evaluated either

* it wins both ports, and then owns them against the rest of the run, or
* it is blocked by an owner that outranks it, and therefore outranks the
  whole run.

Either way the rest of the run is unmatched in the greedy pass, exactly as
their own evals would have found.  Any later release of those ports — the
head's removal, or the eviction or removal of the blocking owner — pushes a
scan from the releaser's key, which ranks above the whole run, so that scan
walks the run.  If the head leaves the pool before its ``eval`` runs, the
first remaining chunk of the run is decided in its place.

Chunks are stored per *port*: every transmitter and every receiver keeps
its eligible chunks as key-sorted ``(priority key, chunk)`` pairs.  The key
is a total order computed once per chunk (:attr:`Chunk.key
<repro.core.packet.Chunk>`), so pairs sort and bisect with C-level tuple
comparisons.  A scan bisects the freed port's list at ``from_key`` and walks
forward.  When a candidate's other port is owned by a chunk that outranks
it, that peer port goes into the scan's local ``blocked`` set: the owner
outranks every later chunk of the same edge too, so the walk skips them
without looking at their owners again.  Skipping is safe: if that owner is
later evicted, the eviction itself pushes a scan for the freed peer port,
which re-covers the skipped chunks.

The walk stops at the first chunk it can match.  On the perfbench workloads
a scan reads 1.3–3.7 entries on average, the matched one included, so it
costs one bisect plus a short walk instead of one bisect per active edge of
the port.

Amortised cost per slot is O((Δ + cascade) · (log n + walk)) against the
reference scheduler's Θ(E log E) full pass over all eligible chunks, where
walk is the number of entries a scan reads.
"""

from __future__ import annotations

from bisect import bisect_left
from heapq import heappop, heappush
from typing import Dict, List, Optional, Set, Tuple

from repro.core.packet import Chunk
from repro.exceptions import SimulationError
from repro.utils.ordering import chunk_priority_key

__all__ = ["MatchingIndex"]

#: A chunk's total-order priority key paired with the chunk itself.  Keys are
#: unique, so tuple comparison never falls through to comparing chunks.
_Key = Tuple[float, int, int, int]
_Entry = Tuple[_Key, Chunk]

#: Task kinds, ordered only for readability — the heap never compares them
#: (a strictly increasing sequence number sits before the kind in each entry).
_EVAL = 0
_SCAN_TX = 1
_SCAN_RX = 2


def _insert(lists: Dict[str, List[_Entry]], port: str, entries: List[_Entry]) -> None:
    """Insert a run's consecutive entries into ``port``'s list with one slice.

    No existing entry lies between the run's first and last keys (those keys
    belong to the run's own packet, at the run's own indices), so the whole
    run goes in at its head's bisection point.
    """
    existing = lists.get(port)
    if existing is None:
        lists[port] = list(entries)
    else:
        pos = bisect_left(existing, (entries[0][0],))
        existing[pos:pos] = entries


def _delete(lists: Dict[str, List[_Entry]], port: str, key: _Key) -> None:
    entries = lists[port]
    # (key,) sorts immediately before (key, chunk); keys are unique.
    del entries[bisect_left(entries, (key,))]
    if not entries:
        del lists[port]


class MatchingIndex:
    """Maintains the greedy stable matching of an *eligible* chunk set under deltas.

    The owning :class:`~repro.core.queues.PendingChunkPool` notifies the index
    through :meth:`activate` (a chunk became eligible — freshly added or
    promoted from a future-activation bucket) and :meth:`discard` (an eligible
    chunk left the pool).  Repair work is deferred: events only push tasks,
    and :meth:`current_matching` drains the task heap before reporting, so a
    burst of completions and arrivals between two slots is settled in one
    priority-ordered pass.
    """

    __slots__ = (
        "_tx_chunks",
        "_rx_chunks",
        "_tx_owner",
        "_rx_owner",
        "_matched",
        "_eligible",
        "_tasks",
        "_seq",
        "_tasks_done",
        "_evictions",
    )

    def __init__(self) -> None:
        # Port → its eligible (key, chunk) pairs, kept key-sorted.
        self._tx_chunks: Dict[str, List[_Entry]] = {}
        self._rx_chunks: Dict[str, List[_Entry]] = {}
        # Port → the matched chunk currently owning it (both ports of a
        # matched chunk are owned by it, and only matched chunks own ports).
        self._tx_owner: Dict[str, Chunk] = {}
        self._rx_owner: Dict[str, Chunk] = {}
        self._matched: Set[Chunk] = set()
        self._eligible: Set[Chunk] = set()
        # Pending repair tasks: (priority key, seq, kind, payload).  The seq
        # makes entries unique so kinds/payloads are never compared.
        self._tasks: List[Tuple[_Key, int, int, object]] = []
        self._seq = 0
        # Lifetime repair-work tallies (always on; one int add per event).
        self._tasks_done = 0
        self._evictions = 0

    # ------------------------------------------------------------------ #
    # events (pushed by the pool)
    # ------------------------------------------------------------------ #
    def activate(self, *run: Chunk) -> None:
        """Track a run of chunks that just became eligible.

        A run is consecutive chunks of one packet on one edge (a single chunk
        is a run of one); the pool activates each packet's chunks as one.
        Only the head gets an ``eval`` task: see the module docstring.
        """
        eligible = self._eligible
        for chunk in run:
            if chunk in eligible:
                raise SimulationError(f"chunk {chunk!r} is already tracked by the matching index")
        eligible.update(run)
        head = run[0]
        entries = [(chunk.key, chunk) for chunk in run]
        _insert(self._tx_chunks, head.transmitter, entries)
        _insert(self._rx_chunks, head.receiver, entries)
        self._push(head.key, _EVAL, run)

    def discard(self, chunk: Chunk) -> None:
        """Stop tracking an eligible chunk that left the pool.

        Ignores chunks the index never saw (e.g. a future-bucket chunk being
        removed before its activation time), so the pool can forward every
        removal unconditionally.
        """
        if chunk not in self._eligible:
            return
        self._eligible.remove(chunk)
        key = chunk.key
        tx, rx = chunk.transmitter, chunk.receiver
        _delete(self._tx_chunks, tx, key)
        _delete(self._rx_chunks, rx, key)
        if chunk in self._matched:
            # Removal rule: only lower-priority chunks on the two freed ports
            # can flip status — scan each port from the removed chunk's key.
            self._matched.remove(chunk)
            del self._tx_owner[tx]
            del self._rx_owner[rx]
            self._push(key, _SCAN_TX, (tx, None))
            self._push(key, _SCAN_RX, (rx, None))

    def clear(self) -> None:
        """Forget every chunk and pending task."""
        self._tx_chunks.clear()
        self._rx_chunks.clear()
        self._tx_owner.clear()
        self._rx_owner.clear()
        self._matched.clear()
        self._eligible.clear()
        self._tasks.clear()
        self._tasks_done = 0
        self._evictions = 0

    def stats(self) -> Dict[str, int]:
        """Lifetime repair-work counters.

        ``tasks`` is the number of heap tasks drained (evals, scans and scan
        deferrals) and ``evictions`` the number of matched chunks displaced
        by higher-priority arrivals — together the size of the repair
        cascades that replaced full recomputes.
        """
        return {"tasks": self._tasks_done, "evictions": self._evictions}

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def current_matching(self) -> List[Chunk]:
        """The greedy stable matching of the tracked eligible set, in priority order.

        Drains the pending repair tasks first; the result is bit-identical to
        ``greedy_stable_matching(eligible)`` recomputed from scratch.
        """
        self._drain()
        return sorted(self._matched, key=chunk_priority_key)

    def __len__(self) -> int:
        return len(self._eligible)

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
            elif kind == _SCAN_TX:
                self._scan(payload[0], key, payload[1], is_tx=True)
            else:
                self._scan(payload[0], key, payload[1], is_tx=False)

    def _eval(self, run: Tuple[Chunk, ...]) -> None:
        """Decide an activated run at its head's priority position.

        Chunks of the run removed before this task ran never held a port
        (ports change hands only inside :meth:`_drain`), and no other task
        key lies between theirs and the first remaining chunk's, so that
        chunk is decided in the head's place.
        """
        eligible = self._eligible
        for chunk in run:
            if chunk in eligible:
                break
        else:
            return
        if chunk in self._matched:
            return
        key = chunk.key
        tx_owner = self._tx_owner.get(chunk.transmitter)
        rx_owner = self._rx_owner.get(chunk.receiver)
        # The priority key is a total order, so an owner's key is never equal
        # to ``key``; a lower key means the owner outranks (blocks) the chunk.
        if tx_owner is not None and tx_owner.key < key:
            return
        if rx_owner is not None and rx_owner.key < key:
            return
        self._match(chunk, tx_owner, rx_owner)

    def _match(
        self, chunk: Chunk, tx_owner: Optional[Chunk], rx_owner: Optional[Chunk]
    ) -> None:
        """Match ``chunk``, evicting the (strictly lower-priority) port owners."""
        if tx_owner is not None and tx_owner is rx_owner:
            # Same-edge owner: both its ports pass straight to ``chunk``.
            self._matched.remove(tx_owner)
            self._evictions += 1
        else:
            if tx_owner is not None:
                # Evicted from the shared transmitter; its receiver is freed
                # and only chunks below the evictee can use it.
                self._matched.remove(tx_owner)
                self._evictions += 1
                del self._rx_owner[tx_owner.receiver]
                self._push(tx_owner.key, _SCAN_RX, (tx_owner.receiver, None))
            if rx_owner is not None:
                self._matched.remove(rx_owner)
                self._evictions += 1
                del self._tx_owner[rx_owner.transmitter]
                self._push(rx_owner.key, _SCAN_TX, (rx_owner.transmitter, None))
        self._tx_owner[chunk.transmitter] = chunk
        self._rx_owner[chunk.receiver] = chunk
        self._matched.add(chunk)

    def _scan(
        self,
        port: str,
        from_key: _Key,
        state: Optional[Tuple[int, Set[str]]],
        *,
        is_tx: bool,
    ) -> None:
        """Find a new owner for a freed ``port`` among chunks at or below ``from_key``.

        Decisions made while this task was queued all had keys <= ``from_key``
        (the deferral rule below guarantees it), so if the port has an owner
        again it outranks every candidate and the scan is over.

        The scan walks the port's key-sorted list from ``from_key``, skipping
        chunks whose peer port is in the local ``blocked`` set.  ``state`` is
        ``None`` for a fresh scan (one bisect finds the start) or the saved
        ``(index, blocked)`` of a deferred scan — port lists only mutate
        outside :meth:`_drain`, and a deferred scan is always re-popped within
        the same drain, so the saved index stays valid.
        """
        owners = self._tx_owner if is_tx else self._rx_owner
        if port in owners:
            return
        entries = (self._tx_chunks if is_tx else self._rx_chunks).get(port)
        if entries is None:
            return
        if state is None:
            start = bisect_left(entries, (from_key,))
            blocked: Set[str] = set()
        else:
            start, blocked = state
        other_owners = self._rx_owner if is_tx else self._tx_owner
        tasks = self._tasks
        for index in range(start, len(entries)):
            candidate_key, candidate = entries[index]
            peer = candidate.receiver if is_tx else candidate.transmitter
            if peer in blocked:
                continue
            if tasks and tasks[0][0] < candidate_key:
                # A strictly higher-priority task is pending; defer so every
                # decision is made in global priority order.
                self._push(
                    candidate_key, _SCAN_TX if is_tx else _SCAN_RX, (port, (index, blocked))
                )
                return
            # ``candidate`` is unmatched: matched chunks own both their
            # ports, and this port has no owner.
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
