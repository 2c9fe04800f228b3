"""Differential tests for the incremental impact index.

The index must reproduce the reference adjacency scan **bit for bit** — the
engine's ``indexed``/``reference`` knob is only sound because both paths
compute identical floats.  The tests here attack that claim directly:

* a property-based random walk of insert/debit/complete operations compares
  ``(num_heavier, num_lighter, lighter_weight)`` against a naive recount at
  every step, across every key the walk has touched;
* dedicated tie-weight cases pin the ``>=`` (ties count as heavier) rule;
* pool integration tests check that :func:`compute_edge_impact` on an
  indexed pool equals it on an unindexed twin (the reference scan), that
  backfilled indexes match incrementally built ones, and that the impact
  fingerprint is a true multiset invariant.
"""

from __future__ import annotations

import math
from typing import List, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dispatcher import compute_edge_impact
from repro.core.impact_index import ImpactIndex
from repro.core.packet import Chunk, Packet
from repro.core.queues import PendingChunkPool
from repro.network.builders import single_tier_crossbar


def make_chunk(
    packet_id: int, weight: float, transmitter: str, receiver: str
) -> Chunk:
    """A standalone pending chunk (the index reads only t, r and weight)."""
    packet = Packet(
        packet_id=packet_id, source="s", destination="d", weight=weight, arrival=1
    )
    return Chunk(
        packet=packet,
        index=1,
        size=1.0,
        weight=weight,
        transmitter=transmitter,
        receiver=receiver,
        eligible_time=1,
        tail_delay=0,
    )


def naive_stats(
    chunks: List[Chunk], transmitter: str, receiver: str, weight: float
) -> Tuple[int, int, float]:
    """The canonical answer: scan + tie rule + correctly rounded exact sum."""
    adjacent = [
        c for c in chunks if c.transmitter == transmitter or c.receiver == receiver
    ]
    heavier = sum(1 for c in adjacent if c.weight >= weight)
    lighter = [c.weight for c in adjacent if c.weight < weight]
    return heavier, len(lighter), math.fsum(lighter)


# ---------------------------------------------------------------------- #
# WeightStats: the per-key multiset, at the index's common scale
# ---------------------------------------------------------------------- #
def _index_with(*weights: float, transmitter: str = "t0", receiver: str = "r0") -> ImpactIndex:
    index = ImpactIndex()
    for pid, w in enumerate(weights):
        index.add(make_chunk(pid, w, transmitter, receiver))
    return index


def _key_query(index: ImpactIndex, transmitter: str, weight: float) -> Tuple[int, int, float]:
    """One key's ``WeightStats.query``, with the mantissa converted back to a weight."""
    heavier, lighter, mantissa = index._tx[transmitter].query(weight)
    return heavier, lighter, mantissa / (1 << index._scale)


def test_weight_stats_tie_counts_as_heavier() -> None:
    index = _index_with(2.0, 2.0, 1.0, 3.0)
    # Both 2.0s and the 3.0 are "heavier".
    assert _key_query(index, "t0", 2.0) == (3, 1, 1.0)


def test_weight_stats_interleaved_mutations_and_queries() -> None:
    index = ImpactIndex()
    five, one, two = (make_chunk(pid, w, "t0", "r0") for pid, w in enumerate((5.0, 1.0, 2.0)))
    index.add(five)
    index.add(one)
    assert _key_query(index, "t0", 3.0)[:2] == (1, 1)
    index.add(two)  # invalidates the cached prefix below rank 2
    assert _key_query(index, "t0", 3.0)[:2] == (1, 2)
    index.discard(one)
    assert _key_query(index, "t0", 10.0) == (0, 2, 7.0)


def test_weight_stats_scale_widens_for_fine_mantissas() -> None:
    index = _index_with(3.0)     # integral: scale stays 0
    assert index._scale == 0
    stats = index._tx["t0"]
    assert stats.ints == [3]
    tiny = 2.0**-40
    index.add(make_chunk(1, tiny, "t0", "r0"))  # needs 40 fractional bits
    assert index._scale == 40
    # The existing mantissa was rescaled with the index.
    assert stats.ints == [1, 3 << 40]
    assert _key_query(index, "t0", 1.0) == (1, 1, tiny)


def test_keys_meet_at_different_scales() -> None:
    """A key whose prefix sums were consolidated at one scale is rescaled
    exactly when another key brings a finer weight."""
    index = ImpactIndex()
    index.add(make_chunk(0, 3.0, "t0", "r0"))
    index.add(make_chunk(1, 0.75, "t0", "r0"))
    # Consolidate t0's prefix sums at scale 2 (0.75 needs two bits).
    assert index.query("t0", "r9", 10.0) == (0, 2, 3.75)
    assert index._scale == 2
    tiny = 2.0**-40
    index.add(make_chunk(2, tiny, "t1", "r1"))
    assert index._scale == 40
    index.add(make_chunk(3, 1.5, "t0", "r1"))
    chunks_weights = {("t0", "r0"): [3.0, 0.75], ("t1", "r1"): [tiny], ("t0", "r1"): [1.5]}
    for transmitter, receiver in (("t0", "r1"), ("t1", "r0"), ("t0", "r0"), ("t1", "r1")):
        adjacent = [
            w
            for (t, r), ws in chunks_weights.items()
            if t == transmitter or r == receiver
            for w in ws
        ]
        for weight in (1.0, 2.0, 10.0):
            lighter = [w for w in adjacent if w < weight]
            heavier = len(adjacent) - len(lighter)
            assert index.query(transmitter, receiver, weight) == (
                heavier,
                len(lighter),
                math.fsum(lighter),
            ), (transmitter, receiver, weight)


# ---------------------------------------------------------------------- #
# property-based differential walk
# ---------------------------------------------------------------------- #
_NODES = ("t0", "t1", "t2")
_RECEIVERS = ("r0", "r1", "r2")

# Weights drawn from a mix of "nice" values (forcing exact ties) and raw
# positive floats (forcing inexact sums where addition order would matter).
_WEIGHTS = st.one_of(
    st.sampled_from([1.0, 2.0, 2.0, 0.5, 10.0, 1 / 3, 0.1, 7.7]),
    st.floats(
        min_value=1e-6, max_value=1e6, allow_nan=False, allow_infinity=False
    ),
)

_OPS = st.lists(
    st.tuples(
        st.sampled_from(["add", "remove", "query"]),
        st.sampled_from(_NODES),
        st.sampled_from(_RECEIVERS),
        _WEIGHTS,
    ),
    min_size=1,
    max_size=120,
)


@settings(max_examples=120, deadline=None)
@given(ops=_OPS)
def test_index_matches_naive_scan_on_random_walks(ops) -> None:
    """Random mutations + queries: the index equals the recount at every step."""
    index = ImpactIndex()
    live: List[Chunk] = []
    next_id = 0
    for op, transmitter, receiver, weight in ops:
        if op == "add" or (op == "remove" and not live):
            chunk = make_chunk(next_id, weight, transmitter, receiver)
            next_id += 1
            live.append(chunk)
            index.add(chunk)
        elif op == "remove":
            chunk = live.pop(next_id % len(live))
            index.discard(chunk)
        # After every mutation (and for explicit queries), cross-check every
        # (transmitter, receiver) pair against the naive recount.
        for t in _NODES:
            for r in _RECEIVERS:
                expected = naive_stats(live, t, r, weight)
                assert index.query(t, r, weight) == expected, (op, t, r, weight)


@settings(max_examples=60, deadline=None)
@given(
    weights=st.lists(_WEIGHTS, min_size=1, max_size=40),
    query=_WEIGHTS,
)
def test_lighter_sum_is_order_independent_and_exact(weights, query) -> None:
    """Insertion order never changes the exact lighter-weight sum."""
    forward = _index_with(*weights)
    backward = _index_with(*reversed(weights))
    f = _key_query(forward, "t0", query)
    assert f == _key_query(backward, "t0", query)
    assert f[2] == math.fsum(w for w in weights if w < query)


# ---------------------------------------------------------------------- #
# pool integration
# ---------------------------------------------------------------------- #
def _crossbar_pool_fixture() -> Tuple[PendingChunkPool, List[Chunk]]:
    pool = PendingChunkPool(impact_index=True)
    chunks = [
        make_chunk(0, 4.0, "t:in1", "r:out1"),
        make_chunk(1, 4.0, "t:in1", "r:out2"),
        make_chunk(2, 1.5, "t:in2", "r:out1"),
        make_chunk(3, 0.25, "t:in2", "r:out2"),
    ]
    pool.add_all(chunks)
    return pool, chunks


def test_pool_indexed_impact_equals_reference_scan() -> None:
    topo = single_tier_crossbar(3)
    pool = PendingChunkPool(impact_index=True)
    twin = PendingChunkPool()  # no index: compute_edge_impact scans it
    packets = [
        Packet(packet_id=i, source=f"s{i % 3}", destination=f"d{(i + 1) % 3}",
               weight=1.0 + 0.7 * i, arrival=1)
        for i in range(9)
    ]
    from repro.core.dispatcher import ImpactDispatcher

    dispatcher = ImpactDispatcher()
    for packet in packets:
        # Compare every candidate's breakdown before committing the packet.
        for (t, r) in topo.candidate_edges(packet.source, packet.destination):
            assert compute_edge_impact(packet, t, r, topo, pool) == \
                compute_edge_impact(packet, t, r, topo, twin)
        assignment = dispatcher.dispatch(packet, topo, pool, packet.arrival)
        twin_assignment = dispatcher.dispatch(packet, topo, twin, packet.arrival)
        assert (twin_assignment.edge, twin_assignment.impact) == \
            (assignment.edge, assignment.impact)
        if not assignment.uses_fixed_link:
            pool.add_all(assignment.chunks)
            twin.add_all(twin_assignment.chunks)
    assert pool.impact_index is not None and twin.impact_index is None


def test_enable_impact_index_backfills_existing_chunks() -> None:
    pool, chunks = _crossbar_pool_fixture()
    late = PendingChunkPool()
    late.add_all(chunks2 := [make_chunk(10 + i, c.weight, c.transmitter, c.receiver)
                             for i, c in enumerate(chunks)])
    assert late.impact_index is None
    index = late.enable_impact_index()
    assert late.impact_index is index
    assert late.enable_impact_index() is index  # idempotent
    for t in ("t:in1", "t:in2"):
        for r in ("r:out1", "r:out2"):
            for w in (0.2, 1.5, 4.0, 9.0):
                assert index.query(t, r, w) == pool.impact_index.query(t, r, w)
    # Later mutations keep a backfilled index in sync.
    late.remove(chunks2[0])
    extra = make_chunk(99, 2.5, "t:in1", "r:out1")
    late.add(extra)
    reference = [c for c in chunks2[1:]] + [extra]
    for t in ("t:in1", "t:in2"):
        for r in ("r:out1", "r:out2"):
            assert index.query(t, r, 2.0) == naive_stats(reference, t, r, 2.0)


def test_pool_clear_resets_index_and_fingerprint() -> None:
    pool, _ = _crossbar_pool_fixture()
    assert pool.impact_fingerprint != 0
    pool.clear()
    assert pool.impact_fingerprint == 0
    assert pool.impact_index.query("t:in1", "r:out1", 1.0) == (0, 0, 0.0)


def test_impact_fingerprint_is_a_multiset_invariant() -> None:
    a = PendingChunkPool()
    b = PendingChunkPool()
    chunks_a = [make_chunk(i, w, t, r) for i, (w, t, r) in enumerate(
        [(1.0, "t0", "r0"), (2.0, "t1", "r1"), (1.0, "t0", "r1")]
    )]
    # Same (t, r, weight) multiset, different packet ids and insertion order.
    chunks_b = [make_chunk(50 + i, w, t, r) for i, (w, t, r) in enumerate(
        [(1.0, "t0", "r1"), (1.0, "t0", "r0"), (2.0, "t1", "r1")]
    )]
    a.add_all(chunks_a)
    b.add_all(chunks_b)
    assert a.impact_fingerprint == b.impact_fingerprint
    # Removing a chunk changes it; re-adding an equivalent one restores it.
    removed = chunks_a[0]
    a.remove(removed)
    assert a.impact_fingerprint != b.impact_fingerprint
    a.add(make_chunk(77, removed.weight, removed.transmitter, removed.receiver))
    assert a.impact_fingerprint == b.impact_fingerprint


def test_index_discard_drops_empty_keys() -> None:
    index = ImpactIndex()
    chunk = make_chunk(0, 1.0, "t0", "r0")
    index.add(chunk)
    assert index.query("t0", "r0", 2.0) == (0, 1, 1.0)
    index.discard(chunk)
    assert index._tx == {} and index._rx == {} and index._edge == {}
    assert index.query("t0", "r0", 2.0) == (0, 0, 0.0)
