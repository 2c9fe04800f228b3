"""Incremental impact index: order statistics over pending chunk weights.

The worst-case-impact rule (Section III-B) needs, for every candidate edge
``e = (t, r)`` of an arriving packet, three numbers about the pending chunks
adjacent to ``e`` (sharing ``t`` or ``r``):

* ``|H_p(e)|`` — how many have weight ``>= w_p / d(e)`` (ties count as
  heavier: the pending chunk belongs to an earlier packet),
* ``|L_p(e)|`` — how many are strictly lighter,
* ``w(L_p(e))`` — the total weight of the lighter ones.

The naive evaluation re-scans the merged adjacency lists for every candidate,
making dispatch O(candidates × pending chunks) — the dominant per-packet cost
on dense fabrics.  :class:`ImpactIndex` maintains, per transmitter, per
receiver and per edge, a sorted multiset of pending chunk weights with exact
prefix sums, so each query is answered from three rank lookups by
inclusion–exclusion::

    answer(t, r) = answer_tx(t) + answer_rx(r) − answer_edge((t, r))

(the chunks counted twice are exactly those pending on ``(t, r)`` itself).

**Exactness is what makes the decomposition sound.**  Floating-point addition
is not associative, so a decomposed sum could differ from a scan's running
total in the last ulp — enough to flip an argmin and change a simulation.
The index therefore keeps weights as *exact scaled integers* (every finite
double is ``m · 2^-k``), sums them in integer arithmetic, and converts the
total back with one correctly-rounded division.  The result equals
``math.fsum`` over the same weights — the canonical definition the reference
scan ``repro.core.dispatcher._scan_adjacency_stats`` uses — bit for bit,
regardless of insertion order, deletion history or query interleaving.

One scale serves the whole index: every mantissa is ``weight · 2**scale``
for the index's single ``scale``, so a query adds the three keys' integers
as they are and divides once by ``2**scale``.  The scale is the finest
fractional precision of any weight indexed so far; a finer weight widens it
by left-shifting every stored mantissa and prefix sum (exact, and rare: it
stops once a workload's finest weight has been seen).  The quotient is the
same exact rational a per-key scale would give, so the double is the same.

A packet's ``d(e)`` chunks share their edge and weight, so the pool indexes
them as one run: one exact-integer conversion and one slice insertion per
key instead of ``d(e)``.

Complexity: rank queries are two C-level bisections plus O(1) prefix lookups
per key; inserts and removals are binary-search list updates that lazily
invalidate the prefix-sum tail, which is re-consolidated at C speed
(``itertools.accumulate`` over integers) on the next query that needs it.
Amortised over the dispatcher's access pattern — bursts of many candidate
queries between pool mutations — a query costs O(log n) and a mutation
O(affected-tail) at C speed, replacing the former O(n) Python scan per
candidate.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate, chain
from typing import TYPE_CHECKING, Dict, Tuple

if TYPE_CHECKING:  # pragma: no cover - import only for type checking
    from repro.core.packet import Chunk

__all__ = ["ImpactIndex", "WeightStats"]


class WeightStats:
    """Sorted multiset of one key's pending chunk weights, with exact sums.

    ``ws`` holds the weights ascending (duplicates allowed); ``ints`` holds
    the parallel exact integer mantissas ``ints[i] = ws[i] · 2**scale``, at
    the common ``scale`` of the enclosing :class:`ImpactIndex` (which
    computes each mantissa and rescales every key when the scale widens).
    ``prefix`` caches exact prefix sums of ``ints`` up to the watermark
    ``_valid`` (``len(prefix) == _valid + 1`` always); a mutation at position
    ``p`` truncates the watermark to ``p`` and the next query re-extends it.

    ``counter`` is an optional shared one-element list (owned by the
    enclosing :class:`ImpactIndex`) incremented once per lazy prefix-sum
    re-consolidation — the observability hook sits on the rare repair path,
    never on the bisect-only queries.
    """

    __slots__ = ("ws", "ints", "prefix", "_valid", "_counter")

    def __init__(self, counter: list = None) -> None:
        self.ws: list = []
        self.ints: list = []
        self.prefix: list = [0]
        self._valid = 0
        self._counter = counter

    def _invalidate_from(self, pos: int) -> None:
        if pos < self._valid:
            self._valid = pos
            del self.prefix[pos + 1:]

    def insert(self, weight: float, mantissa: int, count: int) -> None:
        """Add ``count`` copies of ``weight``, whose exact mantissa is ``mantissa``.

        Equal weights have equal mantissas, so the copies go in as one slice
        at the weight's bisection point.
        """
        pos = bisect_left(self.ws, weight)
        self.ws[pos:pos] = [weight] * count
        self.ints[pos:pos] = [mantissa] * count
        self._invalidate_from(pos)

    def remove(self, weight: float) -> None:
        """Remove one occurrence of ``weight`` (which must be present)."""
        pos = bisect_left(self.ws, weight)
        del self.ws[pos]
        del self.ints[pos]
        self._invalidate_from(pos)

    def rescale(self, shift: int) -> None:
        """Multiply every mantissa and cached prefix sum by ``2**shift`` (exact)."""
        self.ints = [value << shift for value in self.ints]
        self.prefix = [value << shift for value in self.prefix]

    def __len__(self) -> int:
        return len(self.ws)

    def query(self, weight: float) -> Tuple[int, int, int]:
        """``(num_heavier, num_lighter, lighter_mantissa)`` for a query weight.

        Ties count as heavier (the pool's chunks belong to earlier packets).
        ``lighter_mantissa`` is the exact integer sum of the strictly lighter
        weights at the index's common scale.
        """
        pos = bisect_left(self.ws, weight)
        if pos > self._valid:
            # Re-consolidate the prefix sums up to the queried rank: one
            # C-level integer accumulate over the invalidated tail.
            tail = accumulate(self.ints[self._valid:pos], initial=self.prefix[-1])
            next(tail)  # skip the already-cached watermark entry
            self.prefix.extend(tail)
            self._valid = pos
            if self._counter is not None:
                self._counter[0] += 1
        return len(self.ws) - pos, pos, self.prefix[pos]


class ImpactIndex:
    """Per-transmitter / per-receiver / per-edge weight statistics.

    Mirrors the membership of a :class:`~repro.core.queues.PendingChunkPool`
    (the pool calls :meth:`add` and :meth:`discard` from its own mutators) and
    answers the dispatcher's adjacency statistics in O(log n) instead of a
    scan.  Only the chunk's ``(transmitter, receiver, weight)`` enters the
    index — the impact rule is oblivious to arrival times, ids and remaining
    work, so work debits need no index maintenance at all.

    Every key keeps its mantissas at one common power-of-two ``scale``, so a
    query adds three integers and divides once.  A weight needing finer bits
    than any seen before widens the scale, left-shifting every key's
    mantissas; the scale only grows, so this stops once a workload's finest
    weight has been indexed.
    """

    __slots__ = ("_tx", "_rx", "_edge", "_consolidations", "_scale", "_denominator")

    def __init__(self) -> None:
        self._tx: Dict[str, WeightStats] = {}
        self._rx: Dict[str, WeightStats] = {}
        self._edge: Dict[Tuple[str, str], WeightStats] = {}
        # Shared consolidation tally, one cell handed to every WeightStats.
        self._consolidations = [0]
        self._scale = 0
        self._denominator = 1  # 2**scale

    @property
    def consolidations(self) -> int:
        """Lifetime count of lazy prefix-sum re-consolidations across all keys."""
        return self._consolidations[0]

    def _mantissa(self, weight: float) -> int:
        """``weight · 2**scale`` as an exact integer, widening the scale on demand.

        Every finite double is ``num / den`` with ``den`` a power of two, so
        one power-of-two scale keeps all mantissas integral.
        """
        num, den = weight.as_integer_ratio()
        dbits = den.bit_length() - 1
        if dbits > self._scale:
            shift = dbits - self._scale
            for stats in chain(self._tx.values(), self._rx.values(), self._edge.values()):
                stats.rescale(shift)
            self._scale = dbits
            self._denominator = 1 << dbits
        return num << (self._scale - dbits)

    def add(self, chunk: "Chunk", count: int = 1) -> None:
        """Index a run of ``count`` chunks that entered the pool.

        Every chunk of the run has ``chunk``'s edge and weight (the pool passes
        a run's head and length), so the weight is converted once per run.
        """
        weight = chunk.weight
        mantissa = self._mantissa(weight)
        transmitter, receiver = chunk.transmitter, chunk.receiver
        consolidations = self._consolidations
        tx = self._tx.get(transmitter)
        if tx is None:
            tx = self._tx[transmitter] = WeightStats(consolidations)
        tx.insert(weight, mantissa, count)
        rx = self._rx.get(receiver)
        if rx is None:
            rx = self._rx[receiver] = WeightStats(consolidations)
        rx.insert(weight, mantissa, count)
        edge = self._edge.get((transmitter, receiver))
        if edge is None:
            edge = self._edge[(transmitter, receiver)] = WeightStats(consolidations)
        edge.insert(weight, mantissa, count)

    def discard(self, chunk: "Chunk") -> None:
        """Drop a chunk that left the pool."""
        weight = chunk.weight
        tx = self._tx[chunk.transmitter]
        tx.remove(weight)
        if not tx.ws:
            del self._tx[chunk.transmitter]
        rx = self._rx[chunk.receiver]
        rx.remove(weight)
        if not rx.ws:
            del self._rx[chunk.receiver]
        edge = self._edge[(chunk.transmitter, chunk.receiver)]
        edge.remove(weight)
        if not edge.ws:
            del self._edge[(chunk.transmitter, chunk.receiver)]

    def clear(self) -> None:
        """Forget every indexed chunk."""
        self._tx.clear()
        self._rx.clear()
        self._edge.clear()
        self._scale = 0
        self._denominator = 1

    def query(self, transmitter: str, receiver: str, weight: float) -> Tuple[int, int, float]:
        """``(num_heavier, num_lighter, lighter_weight)`` for one candidate edge.

        Counts and sums range over the pending chunks adjacent to
        ``(transmitter, receiver)``; ties (weight equal to ``weight``) count
        as heavier.  ``lighter_weight`` is the exact sum of the strictly
        lighter weights, correctly rounded to a double — bit-identical to
        ``math.fsum`` over the same weights in any order.
        """
        tx = self._tx.get(transmitter)
        rx = self._rx.get(receiver)
        if tx is None:
            if rx is None:
                return 0, 0, 0.0
            num_heavier, num_lighter, total = rx.query(weight)
        else:
            num_heavier, num_lighter, total = tx.query(weight)
            if rx is not None:
                heavier, lighter, mantissa = rx.query(weight)
                num_heavier += heavier
                num_lighter += lighter
                total += mantissa
                # Chunks pending on (transmitter, receiver) itself sit in both
                # incidence multisets; subtract them once.
                edge = self._edge.get((transmitter, receiver))
                if edge is not None:
                    heavier, lighter, mantissa = edge.query(weight)
                    num_heavier -= heavier
                    num_lighter -= lighter
                    total -= mantissa
        # Exact-integer total over the union multiset at the common scale;
        # int/int true division is correctly rounded, so this equals fsum of
        # the lighter weights.
        return num_heavier, num_lighter, total / self._denominator if total else 0.0
