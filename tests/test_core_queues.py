"""Tests for repro.core.queues.PendingChunkPool."""

from __future__ import annotations

import random

import pytest

from repro.core.packet import Packet, split_into_chunks
from repro.core.queues import PendingChunkPool
from repro.core.stable_matching import greedy_stable_matching
from repro.exceptions import SimulationError
from repro.utils.ordering import chunk_priority_key


def make_chunks(pid: int, weight: float, edge=("t1", "r1"), arrival: int = 1, delay: int = 1):
    packet = Packet(pid, "s", "d", weight=weight, arrival=arrival)
    return split_into_chunks(packet, edge[0], edge[1], edge_delay=delay)


class TestMutation:
    def test_add_and_len(self):
        pool = PendingChunkPool()
        pool.add_all(make_chunks(0, 1.0, delay=3))
        assert len(pool) == 3
        assert not pool.is_empty()

    def test_add_duplicate_rejected(self):
        pool = PendingChunkPool()
        chunk = make_chunks(0, 1.0)[0]
        pool.add(chunk)
        with pytest.raises(SimulationError):
            pool.add(chunk)

    def test_add_non_pending_rejected(self):
        pool = PendingChunkPool()
        chunk = make_chunks(0, 1.0)[0]
        chunk.remaining_work = 0.0
        with pytest.raises(SimulationError):
            pool.add(chunk)

    def test_remove(self):
        pool = PendingChunkPool()
        chunk = make_chunks(0, 1.0)[0]
        pool.add(chunk)
        pool.remove(chunk)
        assert pool.is_empty()
        assert chunk not in pool

    def test_remove_absent_rejected(self):
        pool = PendingChunkPool()
        with pytest.raises(SimulationError):
            pool.remove(make_chunks(0, 1.0)[0])

    def test_clear(self):
        pool = PendingChunkPool()
        pool.add_all(make_chunks(0, 1.0, delay=2))
        pool.clear()
        assert pool.is_empty()
        assert pool.busy_transmitters() == set()


class TestQueries:
    def test_chunks_on_edge_sorted_by_priority(self):
        pool = PendingChunkPool()
        light = make_chunks(0, 1.0)[0]
        heavy = make_chunks(1, 5.0)[0]
        pool.add(light)
        pool.add(heavy)
        ordered = pool.chunks_on_edge("t1", "r1")
        assert ordered[0] is heavy and ordered[1] is light

    def test_adjacent_chunks_by_transmitter_and_receiver(self):
        pool = PendingChunkPool()
        a = make_chunks(0, 1.0, edge=("t1", "r1"))[0]
        b = make_chunks(1, 2.0, edge=("t1", "r2"))[0]
        c = make_chunks(2, 3.0, edge=("t2", "r1"))[0]
        d = make_chunks(3, 4.0, edge=("t2", "r2"))[0]
        for chunk in (a, b, c, d):
            pool.add(chunk)
        adjacent = pool.adjacent_chunks("t1", "r1")
        assert set(adjacent) == {a, b, c}

    def test_eligible_chunks_respects_eligible_time(self):
        pool = PendingChunkPool()
        packet = Packet(0, "s", "d", weight=1.0, arrival=1)
        late = split_into_chunks(packet, "t1", "r1", edge_delay=1, head_delay=5)[0]
        early = make_chunks(1, 1.0, edge=("t2", "r2"))[0]
        pool.add(late)
        pool.add(early)
        assert pool.eligible_chunks(now=1) == [early]
        assert set(pool.eligible_chunks(now=6)) == {late, early}

    def test_weight_aggregates(self):
        pool = PendingChunkPool()
        pool.add(make_chunks(0, 2.0, edge=("t1", "r1"))[0])
        pool.add(make_chunks(1, 3.0, edge=("t1", "r2"))[0])
        assert pool.total_weight() == pytest.approx(5.0)
        assert pool.weight_at_transmitter("t1") == pytest.approx(5.0)
        assert pool.weight_at_receiver("r1") == pytest.approx(2.0)
        assert pool.weight_at_receiver("rX") == 0.0

    def test_busy_sets(self):
        pool = PendingChunkPool()
        pool.add(make_chunks(0, 1.0, edge=("t1", "r2"))[0])
        assert pool.busy_transmitters() == {"t1"}
        assert pool.busy_receivers() == {"r2"}

    def test_chunks_at_transmitter_and_receiver(self):
        pool = PendingChunkPool()
        a = make_chunks(0, 1.0, edge=("t1", "r1"))[0]
        b = make_chunks(1, 2.0, edge=("t1", "r2"))[0]
        pool.add(a)
        pool.add(b)
        assert set(pool.chunks_at_transmitter("t1")) == {a, b}
        assert pool.chunks_at_receiver("r2") == [b]

    def test_indices_cleaned_after_removal(self):
        pool = PendingChunkPool()
        chunk = make_chunks(0, 1.0)[0]
        pool.add(chunk)
        pool.remove(chunk)
        assert pool.weight_at_transmitter("t1") == 0.0
        assert pool.chunks_on_edge("t1", "r1") == []
        assert pool.adjacent_chunks("t1", "r1") == []


class TestSortedIndexes:
    """Edge queues stay in priority order via sorted insertion, and every
    per-port view merged from them is in priority order too."""

    def test_adjacent_chunks_in_priority_order_without_duplicates(self):
        pool = PendingChunkPool()
        shared = make_chunks(0, 3.0, edge=("t1", "r1"))[0]  # at both ports
        at_tx = make_chunks(1, 5.0, edge=("t1", "r2"))[0]
        at_rx = make_chunks(2, 1.0, edge=("t2", "r1"))[0]
        for chunk in (shared, at_tx, at_rx):
            pool.add(chunk)
        adjacent = pool.adjacent_chunks("t1", "r1")
        assert adjacent == [at_tx, shared, at_rx]  # decreasing weight, shared once

    def test_interleaved_add_remove_keeps_order(self):
        pool = PendingChunkPool()
        chunks = [make_chunks(pid, weight, edge=("t1", "r1"))[0]
                  for pid, weight in ((0, 2.0), (1, 9.0), (2, 5.0), (3, 7.0))]
        for chunk in chunks:
            pool.add(chunk)
        pool.remove(chunks[1])
        pool.add(make_chunks(4, 8.0, edge=("t1", "r1"))[0])
        weights = [c.weight for c in pool.chunks_on_edge("t1", "r1")]
        assert weights == sorted(weights, reverse=True) == [8.0, 7.0, 5.0, 2.0]

    def test_eligible_chunks_priority_order(self):
        pool = PendingChunkPool()
        for pid, weight in ((0, 1.0), (1, 4.0), (2, 2.0)):
            pool.add(make_chunks(pid, weight, edge=(f"t{pid}", f"r{pid}"))[0])
        weights = [c.weight for c in pool.eligible_chunks(now=10)]
        assert weights == [4.0, 2.0, 1.0]


class TestPortViewsAgainstRecount:
    """Per-port views are merged from the edge queues on demand; they must
    equal a naive recount of the live chunks sorted by priority — same
    objects, same order, and float sums added in that order, bit for bit."""

    PORTS = 5

    @staticmethod
    def _assert_views(pool: PendingChunkPool, live: list) -> None:
        ranked = sorted(live, key=chunk_priority_key)
        assert pool.busy_transmitters() == {c.transmitter for c in live}
        assert pool.busy_receivers() == {c.receiver for c in live}
        for k in range(TestPortViewsAgainstRecount.PORTS):
            tx, rx = f"t{k}", f"r{k}"
            at_tx = [c for c in ranked if c.transmitter == tx]
            at_rx = [c for c in ranked if c.receiver == rx]
            assert pool.chunks_at_transmitter(tx) == at_tx
            assert pool.chunks_at_receiver(rx) == at_rx
            # Equality, not approx: the summation order is part of the contract.
            assert pool.weight_at_transmitter(tx) == sum(c.weight for c in at_tx)
            assert pool.weight_at_receiver(rx) == sum(c.weight for c in at_rx)
            for j in range(TestPortViewsAgainstRecount.PORTS):
                other = f"r{j}"
                adjacent = pool.adjacent_chunks(tx, other)
                assert len(set(adjacent)) == len(adjacent)
                assert adjacent == [
                    c for c in ranked if c.transmitter == tx or c.receiver == other
                ]

    @pytest.mark.parametrize("seed", range(6))
    def test_random_walk(self, seed: int) -> None:
        rng = random.Random(seed)
        pool = PendingChunkPool()
        live: list = []
        now, next_pid = 1, 0
        for _ in range(150):
            op = rng.random()
            if op < 0.5 or not live:
                # Delays 3 and 7 give weights like 2.3/3 whose float sums
                # depend on the order they are added in.
                packet = Packet(next_pid, "s", "d",
                                weight=rng.choice((1.0, 2.3, 2.3, 5.9, 7.1)),
                                arrival=now)
                next_pid += 1
                edge = (f"t{rng.randrange(self.PORTS)}", f"r{rng.randrange(self.PORTS)}")
                chunks = split_into_chunks(packet, *edge, edge_delay=rng.choice((1, 3, 7)),
                                           head_delay=rng.randrange(3))
                pool.add_all(chunks)
                live.extend(chunks)
            elif op < 0.85:
                pool.remove(live.pop(rng.randrange(len(live))))
            else:
                now += rng.randrange(1, 3)
                pool.advance_eligibility(now)
            self._assert_views(pool, live)
        for chunk in list(live):
            pool.remove(chunk)
            live.remove(chunk)
        self._assert_views(pool, live)


def delayed_chunk(pid: int, weight: float, edge=("t1", "r1"), arrival: int = 1, head_delay: int = 0):
    packet = Packet(pid, "s", "d", weight=weight, arrival=arrival)
    return split_into_chunks(packet, edge[0], edge[1], edge_delay=1, head_delay=head_delay)[0]


class TestEligibilityPartition:
    """Future chunks wait in activation buckets; queries stay exact."""

    def test_next_activation_time(self):
        pool = PendingChunkPool()
        assert pool.next_activation_time() is None
        pool.add(delayed_chunk(0, 1.0, head_delay=4))  # eligible at 5
        pool.add(delayed_chunk(1, 1.0, edge=("t2", "r2"), head_delay=8))  # at 9
        assert pool.next_activation_time() == 5
        pool.advance_eligibility(5)
        assert pool.next_activation_time() == 9

    def test_next_activation_skips_emptied_bucket(self):
        pool = PendingChunkPool()
        early = delayed_chunk(0, 1.0, head_delay=2)
        pool.add(early)
        pool.add(delayed_chunk(1, 1.0, edge=("t2", "r2"), head_delay=6))
        pool.remove(early)  # bucket at 3 empties; its heap entry goes stale
        assert pool.next_activation_time() == 7

    def test_has_eligible(self):
        pool = PendingChunkPool()
        assert not pool.has_eligible(1)
        pool.add(delayed_chunk(0, 1.0, head_delay=3))
        assert not pool.has_eligible(2)
        assert pool.has_eligible(4)

    def test_non_monotone_queries_filter_exactly(self):
        pool = PendingChunkPool()
        early = delayed_chunk(0, 1.0)
        late = delayed_chunk(1, 5.0, edge=("t2", "r2"), head_delay=6)
        pool.add(early)
        pool.add(late)
        assert set(pool.eligible_chunks(now=9)) == {early, late}  # watermark now 9
        assert pool.eligible_chunks(now=2) == [early]
        assert list(pool.iter_eligible(now=2)) == [early]
        assert pool.has_eligible(2)
        assert pool.eligible_through == 9

    def test_iter_eligible_fifo_order_across_activations(self):
        pool = PendingChunkPool()
        # A later-arriving chunk activates *earlier* than an older chunk with
        # a long head delay — FIFO order must follow arrival, not activation.
        old_delayed = delayed_chunk(0, 1.0, edge=("t1", "r1"), arrival=1, head_delay=5)
        young_prompt = delayed_chunk(1, 9.0, edge=("t2", "r2"), arrival=3)
        pool.add(old_delayed)
        pool.add(young_prompt)
        assert list(pool.iter_eligible_fifo(3)) == [young_prompt]
        assert list(pool.iter_eligible_fifo(6)) == [old_delayed, young_prompt]
        # The lazily-built FIFO list is maintained by later mutations too.
        newest = delayed_chunk(2, 4.0, edge=("t3", "r3"), arrival=6)
        pool.add(newest)
        pool.remove(young_prompt)
        assert list(pool.iter_eligible_fifo(6)) == [old_delayed, newest]

    def test_non_monotone_query_leaves_watermark_and_heap_consistent(self):
        # An out-of-order (earlier) query must neither regress the watermark
        # nor promote future buckets early; the partition keeps answering
        # exactly before, during and after the non-monotone excursion.
        pool = PendingChunkPool()
        prompt = delayed_chunk(0, 1.0)
        mid = delayed_chunk(1, 2.0, edge=("t2", "r2"), head_delay=4)  # eligible at 5
        late = delayed_chunk(2, 3.0, edge=("t3", "r3"), head_delay=8)  # eligible at 9
        pool.add_all([prompt, mid, late])
        assert set(pool.eligible_chunks(7)) == {prompt, mid}  # watermark -> 7
        # Earlier queries filter; nothing moves.
        assert pool.eligible_chunks(3) == [prompt]
        assert not pool.has_eligible(0)
        assert pool.eligible_through == 7
        assert pool.next_activation_time() == 9
        # Resuming the monotone walk still promotes the last bucket exactly.
        assert set(pool.eligible_chunks(9)) == {prompt, mid, late}
        assert pool.next_activation_time() is None

    def test_non_monotone_query_after_future_removal_skips_stale_heap_entry(self):
        pool = PendingChunkPool()
        doomed = delayed_chunk(0, 1.0, head_delay=2)  # eligible at 3
        keeper = delayed_chunk(1, 1.0, edge=("t2", "r2"), head_delay=6)  # at 7
        pool.add_all([doomed, keeper])
        pool.advance_eligibility(1)
        pool.remove(doomed)  # bucket at 3 empties; heap entry goes stale
        # A non-monotone query right after the removal must not resurrect
        # (or trip over) the stale activation time.
        assert pool.eligible_chunks(0) == []
        assert pool.next_activation_time() == 7
        assert pool.has_eligible(7)
        assert list(pool.iter_eligible(7)) == [keeper]

    def test_late_add_below_watermark_is_immediately_eligible(self):
        pool = PendingChunkPool()
        pool.advance_eligibility(10)
        straggler = delayed_chunk(0, 1.0, arrival=1, head_delay=3)  # eligible at 4
        pool.add(straggler)
        assert pool.eligible_chunks(10) == [straggler]
        # ... but a query before its own eligible_time still excludes it.
        assert pool.eligible_chunks(2) == []
        assert pool.next_activation_time() is None

    def test_clear_resets_partition(self):
        pool = PendingChunkPool()
        pool.add(delayed_chunk(0, 1.0, head_delay=4))
        list(pool.iter_eligible_fifo(1))  # force the FIFO view into existence
        pool.clear()
        assert pool.next_activation_time() is None
        assert pool.eligible_chunks(99) == []
        assert list(pool.iter_eligible_fifo(99)) == []


class TestFaultEvictionCornerCases:
    """Evict/re-admit cycles the fault layer performs on edge failures.

    When a laser, photodetector or edge fails, the engine removes every
    stranded chunk from the pool (possibly mid-transmission) and re-adds the
    survivors when the hardware recovers — at a later slot, so the re-added
    chunk's ``eligible_time`` usually lies *below* the watermark.  These
    tests pin the pool invariants that cycle leans on.
    """

    def test_mid_transmission_eviction_accounts_partial_work(self):
        pool = PendingChunkPool()
        chunk = make_chunks(0, 1.0)[0]
        other = make_chunks(1, 1.0, edge=("t2", "r2"))[0]
        pool.add(chunk)
        pool.add(other)
        # engine transmits 0.6 of the chunk, then the edge fails mid-flight
        chunk.remaining_work = 0.4
        pool.debit_work(0.6)
        assert pool.total_pending_work() == pytest.approx(1.4)
        pool.remove(chunk)  # eviction debits exactly the *remaining* work
        assert pool.total_pending_work() == pytest.approx(1.0)
        assert pool.chunks_on_edge("t1", "r1") == []
        assert pool.busy_transmitters() == {"t2"}

    def test_evicted_partial_chunk_readmits_cleanly(self):
        pool = PendingChunkPool()
        chunk = make_chunks(0, 1.0)[0]
        pool.add(chunk)
        chunk.remaining_work = 0.25
        pool.debit_work(0.75)
        pool.remove(chunk)
        assert pool.is_empty()
        pool.add(chunk)  # recovery re-admits the half-sent chunk
        assert pool.total_pending_work() == pytest.approx(0.25)
        assert pool.chunks_on_edge("t1", "r1") == [chunk]
        assert pool.eligible_chunks(now=5) == [chunk]

    def test_readmission_below_watermark_after_recovery(self):
        # Failure at slot 2, recovery at slot 9: the watermark has moved far
        # past the chunk's eligible_time by the time it is re-added, and it
        # must be eligible again *immediately* — a requeued chunk never waits
        # out its head delay twice.
        pool = PendingChunkPool()
        chunk = delayed_chunk(0, 1.0, head_delay=1)  # eligible at 2
        pool.add(chunk)
        assert pool.eligible_chunks(now=2) == [chunk]
        pool.remove(chunk)  # laser fails at slot 2
        pool.advance_eligibility(9)  # simulation keeps running without it
        pool.add(chunk)  # laser recovers at slot 9
        assert pool.eligible_chunks(now=9) == [chunk]
        # non-monotone queries still filter exactly against eligible_time
        assert pool.eligible_chunks(now=1) == []
        assert pool.next_activation_time() is None

    def test_eviction_from_future_bucket_then_requeue(self):
        # The failure can land while the chunk is still waiting out its head
        # delay (future partition).  Eviction must empty its activation
        # bucket; re-admission later must not trip over the stale heap entry.
        pool = PendingChunkPool()
        waiting = delayed_chunk(0, 2.0, head_delay=6)  # eligible at 7
        bystander = delayed_chunk(1, 1.0, edge=("t2", "r2"), head_delay=9)
        pool.add_all([waiting, bystander])
        pool.advance_eligibility(2)
        pool.remove(waiting)  # fails at slot 2, long before activating
        assert pool.next_activation_time() == 10  # bucket at 7 is gone
        pool.advance_eligibility(8)
        pool.add(waiting)  # recovers at slot 8 — now below the watermark
        assert pool.eligible_chunks(now=8) == [waiting]
        assert list(pool.iter_eligible(7)) == [waiting]
        assert pool.next_activation_time() == 10

    def test_requeue_preserves_fifo_order(self):
        # A chunk that is evicted and re-admitted keeps its place in the
        # FIFO view: arrival order, not re-admission order, drives FIFO
        # scheduling, so a fault cannot reorder equal-priority service.
        pool = PendingChunkPool()
        first = delayed_chunk(0, 1.0, edge=("t1", "r1"), arrival=1)
        second = delayed_chunk(1, 1.0, edge=("t2", "r2"), arrival=2)
        third = delayed_chunk(2, 1.0, edge=("t3", "r3"), arrival=3)
        pool.add_all([first, second, third])
        assert list(pool.iter_eligible_fifo(4)) == [first, second, third]
        pool.remove(first)  # first's edge fails ...
        pool.advance_eligibility(6)
        pool.add(first)  # ... and recovers: still served first
        assert list(pool.iter_eligible_fifo(6)) == [first, second, third]

    def test_eviction_order_is_priority_order(self):
        # The engine evicts stranded chunks in chunks_on_edge order and
        # re-admits in that same order; the pool must present them by
        # decreasing weight regardless of insertion order.
        pool = PendingChunkPool()
        light = make_chunks(0, 1.0)[0]
        heavy = make_chunks(1, 8.0)[0]
        middle = make_chunks(2, 4.0)[0]
        pool.add_all([light, heavy, middle])
        stranded = pool.chunks_on_edge("t1", "r1")
        assert stranded == [heavy, middle, light]
        for chunk in stranded:
            pool.remove(chunk)
        assert pool.is_empty()
        pool.add_all(stranded)  # recovery replays the eviction list
        assert pool.chunks_on_edge("t1", "r1") == [heavy, middle, light]


class TestRunAdmission:
    """``add_all`` admits each packet's chunks as one run; a twin pool fed the
    same chunks one at a time must stay equal to it after every step."""

    PORTS = 4

    def test_idle_port_weight_is_a_float(self):
        pool = PendingChunkPool()
        assert type(pool.weight_at_transmitter("t1")) is float
        assert type(pool.weight_at_receiver("r1")) is float

    def test_add_all_splits_runs(self):
        pool = PendingChunkPool(matching_index=True)
        a = make_chunks(0, 2.0, edge=("t1", "r1"), delay=3)
        b = make_chunks(1, 2.0, edge=("t1", "r2"), delay=2)
        pool.add_all(a + b)  # two runs: different packets
        c = make_chunks(2, 1.0, edge=("t2", "r1"), delay=3)
        pool.add_all([c[0], c[2]])  # an index gap splits the runs
        assert pool.chunks_on_edge("t1", "r1") == a
        assert pool.chunks_on_edge("t1", "r2") == b
        assert pool.chunks_on_edge("t2", "r1") == [c[0], c[2]]
        # Promotion from the future bucket splits it into the same runs.
        pool.advance_eligibility(1)
        assert pool.matching_index.stats()["tasks"] == 0
        # b (weight 1.0) outranks a (2/3) on t1; c (1/3) takes r1.
        assert pool.matching_index.current_matching() == [b[0], c[0]]
        assert pool.matching_index.stats()["tasks"] == 4  # one eval per run

    def test_weight_change_ends_a_run(self):
        # Consecutive chunks of one packet from splits of different sizes
        # are not one run: another packet's key can fall between them.
        pool = PendingChunkPool(impact_index=True)
        packet = Packet(0, "s", "d", weight=6.0, arrival=1)
        halves = split_into_chunks(packet, "t1", "r1", edge_delay=2)
        thirds = split_into_chunks(packet, "t1", "r1", edge_delay=3)
        middle = make_chunks(1, 2.5)[0]
        pool.add(middle)
        pool.add_all([halves[0], thirds[1]])
        ranked = sorted([halves[0], thirds[1], middle], key=chunk_priority_key)
        assert pool.chunks_on_edge("t1", "r1") == ranked == [halves[0], middle, thirds[1]]

    def test_run_validation_is_per_chunk(self):
        pool = PendingChunkPool()
        chunks = make_chunks(0, 1.0, delay=3)
        chunks[2].remaining_work = 0.0
        with pytest.raises(SimulationError):
            pool.add_all(chunks)
        pool = PendingChunkPool()
        chunks = make_chunks(0, 1.0, delay=3)
        pool.add(chunks[1])
        with pytest.raises(SimulationError):
            pool.add_all(chunks)

    @staticmethod
    def _assert_twins(runs: PendingChunkPool, single: PendingChunkPool, now: int,
                      rng: random.Random) -> None:
        ports = range(TestRunAdmission.PORTS)
        for k in ports:
            tx, rx = f"t{k}", f"r{k}"
            assert runs.chunks_at_transmitter(tx) == single.chunks_at_transmitter(tx)
            assert runs.chunks_at_receiver(rx) == single.chunks_at_receiver(rx)
            assert runs.weight_at_transmitter(tx) == single.weight_at_transmitter(tx)
            assert runs.weight_at_receiver(rx) == single.weight_at_receiver(rx)
            for j in ports:
                other = f"r{j}"
                assert runs.chunks_on_edge(tx, other) == single.chunks_on_edge(tx, other)
                weight = rng.choice((0.1, 0.5, 1.0, 2.3 / 3, 7.1 / 4, 9.0))
                assert runs.impact_index.query(tx, other, weight) == (
                    single.impact_index.query(tx, other, weight)
                )
        assert runs.busy_transmitters() == single.busy_transmitters()
        assert runs.busy_receivers() == single.busy_receivers()
        assert runs.matching_index.current_matching() == (
            single.matching_index.current_matching()
        )
        assert runs.eligible_chunks(now) == single.eligible_chunks(now)
        assert list(runs.iter_eligible_fifo(now)) == list(single.iter_eligible_fifo(now))
        assert runs.impact_fingerprint == single.impact_fingerprint
        # Bit-exact: the pending-work counter adds the same floats in order.
        assert runs.total_pending_work() == single.total_pending_work()
        assert runs.occupancy() == single.occupancy()
        assert runs.next_activation_time() == single.next_activation_time()

    @pytest.mark.parametrize("seed", range(4))
    def test_run_admission_equals_chunk_by_chunk(self, seed: int) -> None:
        rng = random.Random(seed)
        runs = PendingChunkPool(impact_index=True, matching_index=True)
        single = PendingChunkPool(impact_index=True, matching_index=True)
        live: list = []
        now, next_pid = 1, 0
        saw_promotion = saw_tie = saw_partial = saw_behind_head = False

        def admit() -> None:
            # Few weights and arrivals: runs of different packets tie on
            # (-w, arrival) and are ordered by packet id alone.
            nonlocal next_pid, saw_tie
            arrival = max(1, now - rng.randrange(2))
            batch = []
            for _ in range(rng.choice((1, 1, 2))):
                packet = Packet(next_pid, "s", "d",
                                weight=rng.choice((2.3, 2.3, 7.1)), arrival=arrival)
                next_pid += 1
                edge = (f"t{rng.randrange(self.PORTS)}", f"r{rng.randrange(self.PORTS)}")
                batch.extend(split_into_chunks(
                    packet, *edge, edge_delay=rng.choice((1, 3, 4)),
                    head_delay=rng.randrange(4),
                ))
            keys = {c.key[:2] for c in live}
            saw_tie |= any(c.key[:2] in keys for c in batch)
            runs.add_all(batch)
            for chunk in batch:
                single.add(chunk)
            live.extend(batch)

        def remove(chunk) -> None:
            live.remove(chunk)
            runs.remove(chunk)
            single.remove(chunk)

        for step in range(240):
            op = rng.random()
            if op < 0.4 or not live:
                admit()
            elif op < 0.55:
                chunk = rng.choice(live)
                saw_behind_head |= runs.chunks_on_edge(*chunk.edge)[0] is not chunk
                remove(chunk)
            elif op < 0.8:
                # Serve the head of a matched edge, as a slot does: partly
                # (a degraded rate) or to completion, sometimes behind a
                # freshly admitted run whose eval is still pending.
                matched = runs.matching_index.current_matching()
                if not matched:
                    continue
                if rng.random() < 0.5:
                    admit()
                head = rng.choice(matched)
                amount = min(head.remaining_work, rng.choice((0.25, 0.5, 1.0)))
                head.remaining_work -= amount
                runs.debit_work(amount)
                single.debit_work(amount)
                if head.remaining_work <= 1e-9:
                    head.remaining_work = 0.0
                    remove(head)
                else:
                    saw_partial = True
            else:
                before = runs.occupancy()["future_chunks"]
                now += rng.randrange(1, 3)
                runs.advance_eligibility(now)
                single.advance_eligibility(now)
                saw_promotion |= runs.occupancy()["future_chunks"] < before
            single.advance_eligibility(now)
            eligible = runs.eligible_chunks(now)
            assert runs.matching_index.current_matching() == greedy_stable_matching(eligible)
            self._assert_twins(runs, single, now, rng)
        assert saw_promotion and saw_tie and saw_partial and saw_behind_head
