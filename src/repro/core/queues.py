"""Pending-chunk bookkeeping shared by dispatchers, schedulers and the engine.

The :class:`PendingChunkPool` stores every dispatched-but-undelivered chunk
once, in its reconfigurable edge's transmission queue, kept sorted by the
single chunk order of :mod:`repro.utils.ordering` (decreasing weight, ties
by earlier arrival).  Each chunk carries its priority key from creation
(:attr:`Chunk.key <repro.core.packet.Chunk>`), and the key never changes for
the chunk's lifetime (a fault redispatch moves the chunk between edges by
removing and re-adding it).

Run entries
-----------
A packet dispatched to edge ``e`` becomes ``d(e)`` chunks with the same edge,
weight and eligibility time, whose keys differ only in the chunk index.  No
other key falls between them, so every sorted structure (the edge queue, the
eligible set and views, the future buckets and the matching index's port
lists) holds such a *run* as one :class:`~repro.core.packet.ChunkRun` entry,
sorted by its head's key.  :meth:`PendingChunkPool.add_all` admits each run
with one bisect per structure (:meth:`~PendingChunkPool.add` is a run of
one).  :meth:`~PendingChunkPool.remove` takes one chunk: unless it is its
run's last, the entry stays in place and its head moves to the run's next
chunk, so nothing is bisected or deleted.  A chunk taken from behind its
run's head splits the chunks after it off as a new entry.  Checks and
counters stay per chunk, in the same order, so every float is unchanged.

Two peer sets per port (the receivers a transmitter has pending chunks
towards, and the transmitters feeding a receiver) record which edge queues
are non-empty.  The per-port views — :meth:`chunks_at_transmitter`,
:meth:`chunks_at_receiver`, :meth:`adjacent_chunks` (the dispatcher's
``A_p(e)``), the ``busy_*`` sets and the ``weight_at_*`` sums — are derived
from them on demand by merging the port's edge queues (a sort of their run
entries, which Timsort merges in C).  The merge keeps priority order, so
fault eviction removes chunks in the same order as a port-sorted list
would, and weight sums add the same floats in the same order.  ALG on
the indexed engine reads none of these views per slot (the impact index
answers its dispatcher and the matching index its scheduler); their readers
are fault eviction, the reference engine's adjacency scan and the
least-loaded baseline, so the pool keeps no sorted per-port lists for them.

Eligibility partition
---------------------
Pending runs are split into two sets: *eligible* runs
(``eligible_time <= watermark``) live in priority-sorted iteration lists,
while *future* runs (head-of-line delay not yet elapsed) wait in
time-bucketed activation queues keyed by their ``eligible_time``.  A
monotone watermark (:attr:`eligible_through`) advances with the queries, and
:meth:`advance_eligibility` promotes whole buckets as their activation time
is reached.  This makes :meth:`eligible_chunks` a straight read, and lets the
engine's slot-skipping fast path jump to :meth:`next_activation_time` when
nothing is currently eligible.
"""

from __future__ import annotations

from bisect import bisect_left
from heapq import heappop, heappush
from itertools import chain
from operator import attrgetter
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.core.impact_index import ImpactIndex
from repro.core.matching_index import MatchingIndex
from repro.core.packet import Chunk, ChunkRun
from repro.exceptions import SimulationError
from repro.utils.ordering import chunk_fifo_key

__all__ = ["PendingChunkPool"]

#: The chunk priority key as a C-level getter, for this module's bisects and
#: sorts (same order as :func:`~repro.utils.ordering.chunk_priority_key`).
_key = attrgetter("key")
_chunks = attrgetter("chunks")


def _fifo_key(run: ChunkRun) -> Tuple[float, int, int]:
    """A run entry's place in FIFO order: its head's (a run is consecutive there too)."""
    return chunk_fifo_key(run.chunks[0])


def _runs(chunks: Iterable[Chunk]) -> Iterator[List[Chunk]]:
    """Split ``chunks`` into runs: maximal stretches of one packet's chunks
    with consecutive indices, on one edge, with one weight and one
    ``eligible_time``."""
    run: List[Chunk] = []
    for chunk in chunks:
        if run:
            last = run[-1]
            if (
                chunk.packet is last.packet
                and chunk.index == last.index + 1
                and chunk.transmitter == last.transmitter
                and chunk.receiver == last.receiver
                and chunk.weight == last.weight
                and chunk.eligible_time == last.eligible_time
            ):
                run.append(chunk)
                continue
            yield run
        run = [chunk]
    if run:
        yield run


def _insert(runs: List[ChunkRun], run: ChunkRun, key=_key) -> None:
    """Insert a run entry into a list sorted by ``key``."""
    runs.insert(bisect_left(runs, key(run), key=key), run)


def _unlink(runs: List[ChunkRun], run: ChunkRun, key=_key) -> None:
    """Delete a run entry from a list sorted by ``key`` (keys are a total order)."""
    del runs[bisect_left(runs, key(run), key=key)]


def _expand(runs: Iterable[ChunkRun]) -> Iterator[Chunk]:
    """The chunks of priority-ordered run entries, in priority order."""
    return chain.from_iterable(map(_chunks, runs))


def _merged(queues: List[List[ChunkRun]]) -> List[ChunkRun]:
    """Merge a port's priority-sorted edge queues into one sorted entry list.

    Runs never interleave, so ordering the entries orders the chunks.
    Timsort finds each queue as a presorted run and merges them in C.  Most
    ports have at most one non-empty queue, which is returned as is.
    """
    if len(queues) > 1:
        return sorted(chain.from_iterable(queues), key=_key)
    return queues[0] if queues else []


def _priority_weight(queues: List[List[ChunkRun]]) -> float:
    """Total chunk weight of one port's non-empty queues, added chunk by chunk
    in the port's priority order, so the float sum is that of its merged view."""
    return sum(chunk.weight for run in _merged(queues) for chunk in run.chunks)


def _drop_peer(peers_by_port: Dict[str, Set[str]], port: str, peer: str) -> None:
    """Forget ``peer`` as a neighbour of ``port`` once their edge queue empties."""
    peers = peers_by_port[port]
    peers.remove(peer)
    if not peers:
        del peers_by_port[port]


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
        # Edge → its run entries, in priority order.
        self._by_edge: Dict[Tuple[str, str], List[ChunkRun]] = {}
        # Port → the peer ports of its non-empty edge queues.
        self._tx_peers: Dict[str, Set[str]] = {}
        self._rx_peers: Dict[str, Set[str]] = {}
        # Pending chunk → its run entry.
        self._run_of: Dict[Chunk, ChunkRun] = {}
        # Eligibility partition: runs whose eligible_time has been reached
        # (relative to the monotone watermark) form the eligible set; later
        # runs wait in per-activation-time buckets fronted by a min-heap of
        # activation times.  The priority- and FIFO-ordered views of the
        # eligible set are each built lazily on first use and maintained
        # incrementally afterwards, so only schedulers that actually iterate
        # in that order pay for the sorted insertions (the incremental
        # matching scheduler needs neither view).
        self._eligible_set: Set[ChunkRun] = set()
        self._eligible: Optional[List[ChunkRun]] = None
        self._eligible_fifo: Optional[List[ChunkRun]] = None
        self._future: Dict[int, List[ChunkRun]] = {}
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
        self._add_run([chunk])

    def add_all(self, chunks: Iterable[Chunk]) -> None:
        """Add every chunk in ``chunks`` to the pool, one run at a time."""
        for run in _runs(chunks):
            self._add_run(run)

    def _add_run(self, chunks: List[Chunk]) -> None:
        """Admit one run (see :func:`_runs`): every chunk is validated, then
        the run's entry goes into each sorted structure."""
        run_of = self._run_of
        for chunk in chunks:
            if chunk in run_of:
                raise SimulationError(f"chunk {chunk!r} is already in the pool")
            if not chunk.pending:
                raise SimulationError(f"cannot add non-pending chunk {chunk!r}")
        run = ChunkRun(chunks)
        self._size += len(chunks)
        for chunk in chunks:  # chunk by chunk, so the float sum is unchanged
            run_of[chunk] = run
            self._pending_work += chunk.remaining_work
        head = chunks[0]
        run.impact_hash = hash((run.transmitter, run.receiver, head.weight))
        self._impact_fingerprint += len(chunks) * run.impact_hash
        if self._impact_index is not None:
            self._impact_index.add(head, len(chunks))
        self._place(run, head.eligible_time)
        if self._matching_index is not None and head.eligible_time <= self._eligible_through:
            self._matching_index.activate(*chunks)

    def _place(self, run: ChunkRun, eligible_time: int) -> None:
        """Put a new run entry into its edge queue and its eligibility partition."""
        if eligible_time <= self._eligible_through:
            self._activate(run)
        else:
            bucket = self._future.get(eligible_time)
            if bucket is None:
                self._future[eligible_time] = [run]
                heappush(self._future_times, eligible_time)
            else:
                bucket.append(run)
        tx, rx = run.transmitter, run.receiver
        edge_queue = self._by_edge.get((tx, rx))
        if edge_queue is None:
            self._by_edge[(tx, rx)] = [run]
            self._tx_peers.setdefault(tx, set()).add(rx)
            self._rx_peers.setdefault(rx, set()).add(tx)
        else:
            _insert(edge_queue, run)

    def remove(self, chunk: Chunk) -> None:
        """Remove a chunk (typically because it finished transmission)."""
        run = self._run_of.pop(chunk, None)
        if run is None:
            raise SimulationError(f"chunk {chunk!r} is not in the pool")
        self._size -= 1
        self._pending_work -= chunk.remaining_work
        if self._size == 0:
            self._pending_work = 0.0  # keep float drift from accumulating across bursts
        self._impact_fingerprint -= run.impact_hash
        if self._impact_index is not None:
            self._impact_index.discard(chunk)
        eligible = chunk.eligible_time <= self._eligible_through
        if eligible and self._matching_index is not None:
            self._matching_index.discard(chunk)
        chunks = run.chunks
        if len(chunks) > 1:
            # Not the run's last chunk: the entry stays where it is.
            if chunks[0] is chunk:
                del chunks[0]
                run.key = chunks[0].key
                return
            rest = run.cut(chunk)
            if rest:
                tail = ChunkRun(rest)
                tail.impact_hash = run.impact_hash
                self._run_of.update(dict.fromkeys(rest, tail))
                self._place(tail, chunk.eligible_time)
            return
        # The run's last chunk: its entry leaves every structure.
        if eligible:
            self._eligible_set.remove(run)
            if self._eligible is not None:
                _unlink(self._eligible, run)
            if self._eligible_fifo is not None:
                _unlink(self._eligible_fifo, run, _fifo_key)
        else:
            bucket = self._future[chunk.eligible_time]
            bucket.remove(run)
            if not bucket:
                # The activation time stays in the heap; stale entries are
                # skipped lazily when the heap front is inspected.
                del self._future[chunk.eligible_time]
        tx, rx = run.transmitter, run.receiver
        edge_queue = self._by_edge[(tx, rx)]
        _unlink(edge_queue, run)
        if not edge_queue:
            del self._by_edge[(tx, rx)]
            _drop_peer(self._tx_peers, tx, rx)
            _drop_peer(self._rx_peers, rx, tx)

    def clear(self) -> None:
        """Remove every chunk from the pool."""
        self._by_edge.clear()
        self._tx_peers.clear()
        self._rx_peers.clear()
        self._run_of.clear()
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
            for chunk in self._run_of:
                index.add(chunk)
            self._impact_index = index
        return self._impact_index

    def enable_matching_index(self) -> MatchingIndex:
        """Switch the incremental matching index on, backfilling eligible chunks."""
        if self._matching_index is None:
            index = MatchingIndex()
            for run in sorted(self._eligible_set, key=_key):
                index.activate(*run.chunks)
            self._matching_index = index
        return self._matching_index

    # ------------------------------------------------------------------ #
    # eligibility partition
    # ------------------------------------------------------------------ #
    def _activate(self, run: ChunkRun) -> None:
        """Move a run entry into the eligible partition's iteration structures."""
        self._eligible_set.add(run)
        if self._eligible is not None:
            _insert(self._eligible, run)
        if self._eligible_fifo is not None:
            _insert(self._eligible_fifo, run, _fifo_key)

    def _sorted_eligible(self) -> List[ChunkRun]:
        """The priority-ordered view of the eligible set, built on first use."""
        if self._eligible is None:
            self._eligible = sorted(self._eligible_set, key=_key)
        return self._eligible

    def advance_eligibility(self, now: int) -> None:
        """Advance the watermark to ``now``, promoting every due activation bucket."""
        if now <= self._eligible_through:
            return
        self._eligible_through = now
        times = self._future_times
        index = self._matching_index
        while times and times[0] <= now:
            due = heappop(times)
            for run in self._future.pop(due, ()):
                self._activate(run)
                if index is not None:
                    index.activate(*run.chunks)

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
        return any(run.chunks[0].eligible_time <= now for run in self._eligible_set)

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

        Reads maintained state only (the counts walk the run entries), so the
        snapshot is safe to take at any point of a run.
        """
        future = chain.from_iterable(self._future.values())
        return {
            "pending_chunks": self._size,
            "eligible_chunks": sum(len(run.chunks) for run in self._eligible_set),
            "future_chunks": sum(len(run.chunks) for run in future),
            "pending_work": self.total_pending_work(),
        }

    def __contains__(self, chunk: Chunk) -> bool:
        return chunk in self._run_of

    def __iter__(self) -> Iterator[Chunk]:
        return iter(self._run_of)

    def is_empty(self) -> bool:
        """Whether the pool holds no pending chunks."""
        return not self._run_of

    def chunks_on_edge(self, transmitter: str, receiver: str) -> List[Chunk]:
        """Pending chunks assigned to the given edge, in priority order."""
        return list(_expand(self._by_edge.get((transmitter, receiver), ())))

    def chunks_at_transmitter(self, transmitter: str) -> List[Chunk]:
        """Pending chunks assigned to any edge incident to ``transmitter``, in priority order."""
        by_edge = self._by_edge
        queues = [by_edge[(transmitter, rx)] for rx in self._tx_peers.get(transmitter, ())]
        return list(_expand(_merged(queues)))

    def chunks_at_receiver(self, receiver: str) -> List[Chunk]:
        """Pending chunks assigned to any edge incident to ``receiver``, in priority order."""
        by_edge = self._by_edge
        queues = [by_edge[(tx, receiver)] for tx in self._rx_peers.get(receiver, ())]
        return list(_expand(_merged(queues)))

    def adjacent_chunks(self, transmitter: str, receiver: str) -> List[Chunk]:
        """Pending chunks sharing the transmitter *or* the receiver of an edge.

        This is the paper's set ``A_p(e)`` (restricted to pending chunks, which
        is exactly what the dispatcher needs because it runs before the new
        packet's own chunks are added to the pool), in priority order.
        """
        # Chunks on edge ``(transmitter, receiver)`` itself reach the merge
        # through the transmitter side only.
        by_edge = self._by_edge
        queues = [by_edge[(transmitter, rx)] for rx in self._tx_peers.get(transmitter, ())]
        queues.extend(
            by_edge[(tx, receiver)]
            for tx in self._rx_peers.get(receiver, ())
            if tx != transmitter
        )
        return list(_expand(_merged(queues)))

    def eligible_chunks(self, now: int) -> List[Chunk]:
        """All pending chunks whose ``eligible_time <= now``, in priority order."""
        return list(self.iter_eligible(now))

    def iter_eligible(self, now: int) -> Iterator[Chunk]:
        """Iterate eligible chunks in priority order without materialising a list.

        The pool must not be mutated while the iterator is live (the per-slot
        schedulers read it to completion before transmitting anything).
        """
        return self._read_eligible(self._sorted_eligible(), now)

    def iter_eligible_fifo(self, now: int) -> Iterator[Chunk]:
        """Iterate eligible chunks in FIFO (arrival) order without re-sorting.

        The FIFO-ordered list is built on first use and maintained
        incrementally afterwards, so only pools actually serving a
        FIFO-ordered scheduler pay for the extra index.  The same
        no-mutation-while-iterating rule as :meth:`iter_eligible` applies.
        """
        if self._eligible_fifo is None:
            self._eligible_fifo = sorted(self._eligible_set, key=_fifo_key)
        return self._read_eligible(self._eligible_fifo, now)

    def _read_eligible(self, view: List[ChunkRun], now: int) -> Iterator[Chunk]:
        """The chunks of an eligible view, filtered when ``now`` is behind the watermark."""
        if now >= self._eligible_through:
            self.advance_eligibility(now)  # promotions go into ``view`` too
            return _expand(view)
        return (c for c in _expand(view) if c.eligible_time <= now)

    def busy_transmitters(self) -> Set[str]:
        """Transmitters with at least one pending chunk."""
        return set(self._tx_peers)

    def busy_receivers(self) -> Set[str]:
        """Receivers with at least one pending chunk."""
        return set(self._rx_peers)

    def total_weight(self) -> float:
        """Sum of weights of all pending chunks."""
        return sum(c.weight for c in self._run_of)

    def weight_at_transmitter(self, transmitter: str) -> float:
        """Total pending chunk weight at ``transmitter`` (the β_{t,τ} quantity restricted to pending chunks)."""
        peers = self._tx_peers.get(transmitter)
        if peers is None:
            return 0.0
        by_edge = self._by_edge
        return _priority_weight([by_edge[(transmitter, rx)] for rx in peers])

    def weight_at_receiver(self, receiver: str) -> float:
        """Total pending chunk weight at ``receiver``."""
        peers = self._rx_peers.get(receiver)
        if peers is None:
            return 0.0
        by_edge = self._by_edge
        return _priority_weight([by_edge[(tx, receiver)] for tx in peers])
