"""Pending-chunk bookkeeping shared by dispatchers, schedulers and the engine.

The :class:`PendingChunkPool` indexes all dispatched-but-undelivered chunks

* by reconfigurable edge (the per-edge transmission queue),
* by transmitter and by receiver (the adjacency sets the dispatcher's
  ``A_p(e)`` computation and the stable-matching blocking relation need),

and offers priority-ordered iteration using the single chunk order defined in
:mod:`repro.utils.ordering` (decreasing weight, ties by earlier arrival).

Every index is a list kept sorted by :func:`~repro.utils.ordering.chunk_priority_key`
via binary-search insertion.  The key is immutable for a chunk's lifetime
(weight, arrival, packet id, chunk index — the engine only mutates
``remaining_work``), so queries like :meth:`chunks_on_edge`,
:meth:`eligible_chunks` and :meth:`adjacent_chunks` return already-ordered
data instead of re-sorting the pool on every call — the per-slot hot path of
the simulation engine.

Eligibility partition
---------------------
Pending chunks are split into two sets: *eligible* chunks
(``eligible_time <= watermark``) live in priority-sorted iteration lists,
while *future* chunks (head-of-line delay not yet elapsed) wait in
time-bucketed activation queues keyed by their ``eligible_time``.  A
monotone watermark (:attr:`eligible_through`) advances with the queries, and
:meth:`advance_eligibility` promotes whole buckets as their activation time
is reached.  This turns :meth:`eligible_chunks` from a full-pool filter into
a straight read of the eligible list, and lets the engine's slot-skipping
fast path jump directly to :meth:`next_activation_time` when nothing is
currently eligible.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from heapq import heappop, heappush
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.core.impact_index import ImpactIndex
from repro.core.matching_index import MatchingIndex
from repro.core.packet import Chunk
from repro.exceptions import SimulationError
from repro.utils.ordering import chunk_fifo_key, chunk_priority_key

__all__ = ["PendingChunkPool"]


def _sorted_remove(chunks: List[Chunk], chunk: Chunk) -> None:
    """Remove ``chunk`` from a priority-sorted list (O(log n) search, O(n) tail shift)."""
    # The priority key is a total order (it ends in packet id / chunk
    # index), so the chunk sits exactly at its key's bisection point.
    del chunks[bisect_left(chunks, chunk_priority_key(chunk), key=chunk_priority_key)]


class PendingChunkPool:
    """Container of pending (dispatched, not fully transmitted) chunks.

    With ``impact_index=True`` the pool additionally maintains an
    :class:`~repro.core.impact_index.ImpactIndex` over its chunks, which the
    impact dispatcher uses to answer per-candidate adjacency statistics in
    O(log n) instead of scanning ``adjacent_chunks`` — the ``engine="indexed"``
    hot path.  The index mirrors pool membership exactly; it can also be
    switched on later with :meth:`enable_impact_index` (backfilling the
    current chunks), which dispatcher-level tests use.

    With ``matching_index=True`` the pool also maintains a
    :class:`~repro.core.matching_index.MatchingIndex` over its *eligible*
    chunks: every activation and removal is forwarded as a repair event, so
    the stable-matching scheduler can read the current greedy stable matching
    incrementally instead of recomputing it from scratch each slot.  Like the
    impact index it can be enabled later with :meth:`enable_matching_index`.
    """

    def __init__(self, *, impact_index: bool = False, matching_index: bool = False) -> None:
        self._by_edge: Dict[Tuple[str, str], List[Chunk]] = {}
        self._by_transmitter: Dict[str, List[Chunk]] = {}
        self._by_receiver: Dict[str, List[Chunk]] = {}
        self._all: Set[Chunk] = set()
        # Eligibility partition: chunks whose eligible_time has been reached
        # (relative to the monotone watermark) form the eligible set; later
        # chunks wait in per-activation-time buckets fronted by a min-heap of
        # activation times.  The priority- and FIFO-ordered views of the
        # eligible set are each built lazily on first use and maintained
        # incrementally afterwards, so only schedulers that actually iterate
        # in that order pay for the sorted insertions (the incremental
        # matching scheduler needs neither view).
        self._eligible_set: Set[Chunk] = set()
        self._eligible: Optional[List[Chunk]] = None
        self._eligible_fifo: Optional[List[Chunk]] = None
        self._future: Dict[int, List[Chunk]] = {}
        self._future_times: List[int] = []
        self._eligible_through = 0
        # Incrementally maintained O(1) counters: the number of pending
        # chunks and the total remaining chunk-units of work.  The engine
        # reports transmitted work through :meth:`debit_work`.
        self._size = 0
        self._pending_work = 0.0
        self._impact_index: Optional[ImpactIndex] = ImpactIndex() if impact_index else None
        self._matching_index: Optional[MatchingIndex] = (
            MatchingIndex() if matching_index else None
        )
        # Commutative multiset hash over (transmitter, receiver, weight) —
        # the only chunk attributes the impact rule reads — maintained on
        # every add/remove.  Two pools with equal fingerprints hold (up to
        # hash collision) impact-equivalent content, which is what lets
        # ``run_multi`` share dispatch decisions across policy lanes.
        self._impact_fingerprint = 0

    # ------------------------------------------------------------------ #
    # mutation
    # ------------------------------------------------------------------ #
    def add(self, chunk: Chunk) -> None:
        """Add a pending chunk to the pool."""
        if chunk in self._all:
            raise SimulationError(f"chunk {chunk!r} is already in the pool")
        if not chunk.pending:
            raise SimulationError(f"cannot add non-pending chunk {chunk!r}")
        self._all.add(chunk)
        self._size += 1
        self._pending_work += chunk.remaining_work
        self._impact_fingerprint += hash((chunk.transmitter, chunk.receiver, chunk.weight))
        if self._impact_index is not None:
            self._impact_index.add(chunk)
        if chunk.eligible_time <= self._eligible_through:
            self._activate(chunk)
        else:
            bucket = self._future.get(chunk.eligible_time)
            if bucket is None:
                self._future[chunk.eligible_time] = [chunk]
                heappush(self._future_times, chunk.eligible_time)
            else:
                bucket.append(chunk)
        insort(self._by_edge.setdefault(chunk.edge, []), chunk, key=chunk_priority_key)
        insort(
            self._by_transmitter.setdefault(chunk.transmitter, []),
            chunk,
            key=chunk_priority_key,
        )
        insort(
            self._by_receiver.setdefault(chunk.receiver, []), chunk, key=chunk_priority_key
        )

    def add_all(self, chunks: Iterable[Chunk]) -> None:
        """Add every chunk in ``chunks`` to the pool."""
        for chunk in chunks:
            self.add(chunk)

    def remove(self, chunk: Chunk) -> None:
        """Remove a chunk (typically because it finished transmission)."""
        if chunk not in self._all:
            raise SimulationError(f"chunk {chunk!r} is not in the pool")
        self._all.discard(chunk)
        self._size -= 1
        self._pending_work -= chunk.remaining_work
        if self._size == 0:
            self._pending_work = 0.0  # keep float drift from accumulating across bursts
        self._impact_fingerprint -= hash((chunk.transmitter, chunk.receiver, chunk.weight))
        if self._impact_index is not None:
            self._impact_index.discard(chunk)
        if chunk.eligible_time <= self._eligible_through:
            self._eligible_set.discard(chunk)
            if self._eligible is not None:
                _sorted_remove(self._eligible, chunk)
            if self._eligible_fifo is not None:
                fifo = self._eligible_fifo
                del fifo[bisect_left(fifo, chunk_fifo_key(chunk), key=chunk_fifo_key)]
            if self._matching_index is not None:
                self._matching_index.discard(chunk)
        else:
            bucket = self._future[chunk.eligible_time]
            bucket.remove(chunk)
            if not bucket:
                # The activation time stays in the heap; stale entries are
                # skipped lazily when the heap front is inspected.
                del self._future[chunk.eligible_time]
        edge_list = self._by_edge[chunk.edge]
        _sorted_remove(edge_list, chunk)
        if not edge_list:
            del self._by_edge[chunk.edge]
        tx_list = self._by_transmitter[chunk.transmitter]
        _sorted_remove(tx_list, chunk)
        if not tx_list:
            del self._by_transmitter[chunk.transmitter]
        rx_list = self._by_receiver[chunk.receiver]
        _sorted_remove(rx_list, chunk)
        if not rx_list:
            del self._by_receiver[chunk.receiver]

    def clear(self) -> None:
        """Remove every chunk from the pool."""
        self._by_edge.clear()
        self._by_transmitter.clear()
        self._by_receiver.clear()
        self._all.clear()
        self._eligible_set.clear()
        if self._eligible is not None:
            self._eligible.clear()
        if self._eligible_fifo is not None:
            self._eligible_fifo.clear()
        self._future.clear()
        self._future_times.clear()
        self._eligible_through = 0
        self._size = 0
        self._pending_work = 0.0
        self._impact_fingerprint = 0
        if self._impact_index is not None:
            self._impact_index.clear()
        if self._matching_index is not None:
            self._matching_index.clear()

    def debit_work(self, amount: float) -> None:
        """Record that ``amount`` chunk-units of pending work were transmitted.

        Chunk ``remaining_work`` is mutated by the engine, outside the pool's
        view; this hook keeps :meth:`total_pending_work` an O(1) counter
        instead of a scan over every index.
        """
        self._pending_work -= amount

    def enable_impact_index(self) -> ImpactIndex:
        """Switch the incremental impact index on, backfilling current chunks."""
        if self._impact_index is None:
            index = ImpactIndex()
            for chunk in self._all:
                index.add(chunk)
            self._impact_index = index
        return self._impact_index

    def enable_matching_index(self) -> MatchingIndex:
        """Switch the incremental matching index on, backfilling eligible chunks."""
        if self._matching_index is None:
            index = MatchingIndex()
            for chunk in sorted(self._eligible_set, key=chunk_priority_key):
                index.activate(chunk)
            self._matching_index = index
        return self._matching_index

    # ------------------------------------------------------------------ #
    # eligibility partition
    # ------------------------------------------------------------------ #
    def _activate(self, chunk: Chunk) -> None:
        """Move a chunk into the eligible partition's iteration structures."""
        self._eligible_set.add(chunk)
        if self._eligible is not None:
            insort(self._eligible, chunk, key=chunk_priority_key)
        if self._eligible_fifo is not None:
            insort(self._eligible_fifo, chunk, key=chunk_fifo_key)
        if self._matching_index is not None:
            self._matching_index.activate(chunk)

    def _sorted_eligible(self) -> List[Chunk]:
        """The priority-ordered view of the eligible set, built on first use."""
        if self._eligible is None:
            self._eligible = sorted(self._eligible_set, key=chunk_priority_key)
        return self._eligible

    def advance_eligibility(self, now: int) -> None:
        """Advance the watermark to ``now``, promoting every due activation bucket."""
        if now <= self._eligible_through:
            return
        self._eligible_through = now
        times = self._future_times
        while times and times[0] <= now:
            due = heappop(times)
            bucket = self._future.pop(due, None)
            if bucket:
                for chunk in bucket:
                    self._activate(chunk)

    @property
    def eligible_through(self) -> int:
        """The watermark slot up to which activations have been applied.

        Queries at ``now >= eligible_through`` (the engine's monotone use)
        read the eligible partition directly; earlier ``now`` values fall
        back to filtering it, preserving exact semantics for out-of-order
        queries in tests.
        """
        return self._eligible_through

    def next_activation_time(self) -> Optional[int]:
        """The earliest ``eligible_time`` of any future (not yet eligible) chunk."""
        times = self._future_times
        while times and times[0] not in self._future:
            heappop(times)  # stale entry: its bucket emptied before activating
        return times[0] if times else None

    def has_eligible(self, now: int) -> bool:
        """Whether any pending chunk is eligible at ``now`` (advances the watermark)."""
        self.advance_eligibility(now)
        if now >= self._eligible_through:
            return bool(self._eligible_set)
        return any(c.eligible_time <= now for c in self._eligible_set)

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    @property
    def impact_index(self) -> Optional[ImpactIndex]:
        """The maintained impact index, or ``None`` when running reference-style."""
        return self._impact_index

    @property
    def matching_index(self) -> Optional[MatchingIndex]:
        """The maintained matching index, or ``None`` when running reference-style."""
        return self._matching_index

    @property
    def impact_fingerprint(self) -> int:
        """Commutative hash of the pool's ``(transmitter, receiver, weight)`` multiset.

        Equal multisets always produce equal fingerprints; distinct multisets
        collide only with hash-collision probability.  ``run_multi`` keys its
        shared-dispatch memo on this value (a debug flag re-verifies hits).
        """
        return self._impact_fingerprint

    def __len__(self) -> int:
        return self._size

    def total_pending_work(self) -> float:
        """Total remaining chunk-units of work across all pending chunks.

        Maintained incrementally (O(1)); equals
        ``sum(c.remaining_work for c in pool)`` up to float rounding, and is
        reset exactly to zero whenever the pool empties.
        """
        return max(self._pending_work, 0.0)

    def occupancy(self) -> Dict[str, float]:
        """JSON-ready occupancy gauges: chunk counts and pending work.

        Reads maintained state only (the future count walks the activation
        buckets, O(distinct activation times)), so the snapshot is safe to
        take from instrumentation at any point of a run.
        """
        return {
            "pending_chunks": self._size,
            "eligible_chunks": len(self._eligible_set),
            "future_chunks": sum(len(bucket) for bucket in self._future.values()),
            "pending_work": self.total_pending_work(),
        }

    def __contains__(self, chunk: Chunk) -> bool:
        return chunk in self._all

    def __iter__(self) -> Iterator[Chunk]:
        return iter(self._all)

    def is_empty(self) -> bool:
        """Whether the pool holds no pending chunks."""
        return not self._all

    def chunks_on_edge(self, transmitter: str, receiver: str) -> List[Chunk]:
        """Pending chunks assigned to the given edge, in priority order."""
        return list(self._by_edge.get((transmitter, receiver), ()))

    def chunks_at_transmitter(self, transmitter: str) -> List[Chunk]:
        """Pending chunks assigned to any edge incident to ``transmitter``."""
        return list(self._by_transmitter.get(transmitter, ()))

    def chunks_at_receiver(self, receiver: str) -> List[Chunk]:
        """Pending chunks assigned to any edge incident to ``receiver``."""
        return list(self._by_receiver.get(receiver, ()))

    def adjacent_chunks(self, transmitter: str, receiver: str) -> List[Chunk]:
        """Pending chunks sharing the transmitter *or* the receiver of an edge.

        This is the paper's set ``A_p(e)`` (restricted to pending chunks, which
        is exactly what the dispatcher needs because it runs before the new
        packet's own chunks are added to the pool).
        """
        # Merge the two sorted incidence lists.  The priority key is a total
        # order (it ends in packet id / chunk index), so equal keys can only
        # mean the *same* chunk — one pending on edge ``(transmitter,
        # receiver)`` itself, present in both lists — and is emitted once.
        tx = self._by_transmitter.get(transmitter, [])
        rx = self._by_receiver.get(receiver, [])
        if not tx:
            return list(rx)
        if not rx:
            return list(tx)
        merged: List[Chunk] = []
        i = j = 0
        while i < len(tx) and j < len(rx):
            key_t, key_r = chunk_priority_key(tx[i]), chunk_priority_key(rx[j])
            if key_t < key_r:
                merged.append(tx[i])
                i += 1
            elif key_r < key_t:
                merged.append(rx[j])
                j += 1
            else:
                merged.append(tx[i])
                i += 1
                j += 1
        merged.extend(tx[i:])
        merged.extend(rx[j:])
        return merged

    def eligible_chunks(self, now: int) -> List[Chunk]:
        """All pending chunks whose ``eligible_time <= now``, in priority order."""
        if now >= self._eligible_through:
            self.advance_eligibility(now)
            return list(self._sorted_eligible())
        return [c for c in self._sorted_eligible() if c.eligible_time <= now]

    def iter_eligible(self, now: int) -> Iterator[Chunk]:
        """Iterate eligible chunks in priority order without materialising a list.

        The pool must not be mutated while the iterator is live (the per-slot
        schedulers read it to completion before transmitting anything).
        """
        if now >= self._eligible_through:
            self.advance_eligibility(now)
            return iter(self._sorted_eligible())
        return (c for c in self._sorted_eligible() if c.eligible_time <= now)

    def iter_eligible_fifo(self, now: int) -> Iterator[Chunk]:
        """Iterate eligible chunks in FIFO (arrival) order without re-sorting.

        The FIFO-ordered list is built on first use and maintained
        incrementally afterwards, so only pools actually serving a
        FIFO-ordered scheduler pay for the extra index.  The same
        no-mutation-while-iterating rule as :meth:`iter_eligible` applies.
        """
        if self._eligible_fifo is None:
            self._eligible_fifo = sorted(self._eligible_set, key=chunk_fifo_key)
        if now >= self._eligible_through:
            self.advance_eligibility(now)
            return iter(self._eligible_fifo)
        return (c for c in self._eligible_fifo if c.eligible_time <= now)

    def busy_transmitters(self) -> Set[str]:
        """Transmitters with at least one pending chunk."""
        return set(self._by_transmitter)

    def busy_receivers(self) -> Set[str]:
        """Receivers with at least one pending chunk."""
        return set(self._by_receiver)

    def total_weight(self) -> float:
        """Sum of weights of all pending chunks."""
        return sum(c.weight for c in self._all)

    def weight_at_transmitter(self, transmitter: str) -> float:
        """Total pending chunk weight at ``transmitter`` (the β_{t,τ} quantity restricted to pending chunks)."""
        return sum(c.weight for c in self._by_transmitter.get(transmitter, ()))

    def weight_at_receiver(self, receiver: str) -> float:
        """Total pending chunk weight at ``receiver``."""
        return sum(c.weight for c in self._by_receiver.get(receiver, ()))
