"""Property-based tests for the incremental matching repairer.

The contract of :class:`repro.core.matching_index.MatchingIndex` is exact
equivalence with the from-scratch oracle: after *any* sequence of
activations, removals and eligibility advances, ``current_matching()`` must
equal :func:`repro.core.stable_matching.greedy_stable_matching` recomputed
over the currently eligible chunks — same chunks, same (priority) order —
and must be a stable matching of that set.  The random walks here drive the
repairer through its full event space (tie weights, eviction cascades,
removal promotions, future-bucket removals) and check the oracle equivalence
after every single step.

The pool is the index's only producer (it hands over its own run entries
and reports run-level events), so every test drives the index through a
:class:`~repro.core.queues.PendingChunkPool`.  :func:`make_pool` puts the
watermark ahead of the chunks' eligibility, so each ``add`` activates at
once and keys reach the index in whatever order the test adds them.
"""

from __future__ import annotations

import random

import pytest

from repro.core.matching_index import MatchingIndex
from repro.core.packet import Chunk, Packet, split_into_chunks
from repro.core.queues import PendingChunkPool
from repro.core.scheduler import StableMatchingScheduler
from repro.core.stable_matching import greedy_stable_matching, is_stable_matching
from repro.exceptions import SimulationError
from repro.network import figure2_topology


def make_chunk(
    pid: int,
    weight: float,
    edge: tuple[str, str],
    arrival: int = 1,
    head_delay: int = 0,
) -> Chunk:
    packet = Packet(pid, "s", "d", weight=weight, arrival=arrival)
    return split_into_chunks(packet, edge[0], edge[1], edge_delay=1, head_delay=head_delay)[0]


def make_pool(now: int = 10) -> PendingChunkPool:
    """A pool with a matching index and its watermark at ``now``."""
    pool = PendingChunkPool(matching_index=True)
    pool.advance_eligibility(now)
    return pool


def assert_matches_oracle(index: MatchingIndex, eligible: list[Chunk]) -> None:
    """The repaired matching equals the from-scratch greedy pass, in order."""
    matching = index.current_matching()
    assert matching == greedy_stable_matching(eligible)
    assert is_stable_matching(matching, eligible)


class TestBasics:
    def test_empty(self):
        assert make_pool().matching_index.current_matching() == []

    def test_single_chunk_matched(self):
        pool = make_pool()
        index = pool.matching_index
        chunk = make_chunk(0, 2.0, ("t1", "r1"))
        pool.add(chunk)
        assert index.current_matching() == [chunk]
        # Both port lists hold the pool's one entry for the chunk.
        [entry] = index._tx_runs["t1"]
        assert entry.chunks == [chunk]
        assert index._rx_runs["r1"] == [entry]
        assert list(pool._eligible_set) == [entry]

    def test_duplicate_activation_rejected(self):
        pool = make_pool()
        index = pool.matching_index
        chunk = make_chunk(0, 2.0, ("t1", "r1"))
        pool.add(chunk)
        stats = index.stats()
        with pytest.raises(SimulationError, match="already in the pool"):
            pool.add(chunk)
        assert index.stats() == stats
        assert index.current_matching() == [chunk]

    def test_discard_untracked_is_noop(self):
        # A future-bucket chunk was never activated: its removal does not
        # reach the index.
        pool = make_pool()
        index = pool.matching_index
        future = make_chunk(0, 2.0, ("t1", "r1"), head_delay=20)
        pool.add(future)
        pool.remove(future)
        assert index.current_matching() == []
        assert index.stats()["tasks"] == 0

    def test_clear(self):
        pool = make_pool()
        index = pool.matching_index
        pool.add(make_chunk(0, 2.0, ("t1", "r1")))
        pool.clear()
        assert not index._tx_runs and not index._rx_runs
        assert index.current_matching() == []

    def test_removing_unmatched_chunk_changes_nothing(self):
        pool = make_pool()
        index = pool.matching_index
        heavy = make_chunk(0, 5.0, ("t1", "r1"))
        blocked = make_chunk(1, 1.0, ("t1", "r2"))
        pool.add(heavy)
        pool.add(blocked)
        assert index.current_matching() == [heavy]
        pool.remove(blocked)
        assert index.current_matching() == [heavy]


class TestTieWeights:
    def test_equal_weights_resolved_by_arrival(self):
        pool = make_pool()
        index = pool.matching_index
        late = make_chunk(0, 2.0, ("t1", "r1"), arrival=9)
        early = make_chunk(1, 2.0, ("t1", "r2"), arrival=3)
        pool.add(late)  # matched first…
        pool.add(early)  # …then evicted by the earlier arrival
        assert_matches_oracle(index, [late, early])
        assert index.current_matching() == [early]

    def test_equal_weight_and_arrival_resolved_by_packet_id(self):
        pool = make_pool()
        index = pool.matching_index
        chunks = [make_chunk(pid, 4.0, ("t1", f"r{pid}")) for pid in (2, 0, 1)]
        for chunk in chunks:
            pool.add(chunk)
        assert_matches_oracle(index, chunks)
        assert [c.packet.packet_id for c in index.current_matching()] == [0]

    def test_all_tied_on_disjoint_edges_all_matched(self):
        pool = make_pool()
        index = pool.matching_index
        chunks = [make_chunk(pid, 1.0, (f"t{pid}", f"r{pid}")) for pid in range(4)]
        for chunk in chunks:
            pool.add(chunk)
        assert_matches_oracle(index, chunks)
        assert len(index.current_matching()) == 4


class TestEvictionCascade:
    def _chain(self):
        # Matched chain b1 > b2 > b3 on disjoint edges, with c2, c3 blocked
        # in between: adding `a` on b1's transmitter triggers a full-length
        # cascade (a evicts b1, freeing r1 for c2, which evicts b2, …).
        b1 = make_chunk(1, 5.0, ("t1", "r1"))
        b2 = make_chunk(2, 3.0, ("t2", "r2"))
        b3 = make_chunk(3, 1.0, ("t3", "r3"))
        c2 = make_chunk(4, 4.0, ("t2", "r1"))
        c3 = make_chunk(5, 2.0, ("t3", "r2"))
        return [b1, b2, b3, c2, c3]

    def test_addition_triggers_bounded_cascade(self):
        pool = make_pool()
        index = pool.matching_index
        chunks = self._chain()
        for chunk in chunks:
            pool.add(chunk)
        b1, b2, b3, c2, c3 = chunks
        assert index.current_matching() == [b1, b2, b3]

        a = make_chunk(0, 6.0, ("t1", "r0"))
        pool.add(a)
        assert_matches_oracle(index, chunks + [a])
        assert index.current_matching() == [a, c2, c3]

    def test_removal_unwinds_the_cascade(self):
        pool = make_pool()
        index = pool.matching_index
        chunks = self._chain()
        a = make_chunk(0, 6.0, ("t1", "r0"))
        for chunk in chunks + [a]:
            pool.add(chunk)
        assert index.current_matching() == [a, chunks[3], chunks[4]]

        pool.remove(a)  # b1 re-enters, evicting c2; b2 re-enters, evicting c3…
        assert_matches_oracle(index, chunks)
        assert index.current_matching() == chunks[:3]

    def test_same_edge_replacement(self):
        pool = make_pool()
        index = pool.matching_index
        low = make_chunk(0, 1.0, ("t1", "r1"))
        high = make_chunk(1, 7.0, ("t1", "r1"))
        pool.add(low)
        assert index.current_matching() == [low]
        pool.add(high)  # same-edge owner: both ports pass over at once
        assert index.current_matching() == [high]
        pool.remove(high)
        assert index.current_matching() == [low]


class TestLongBlockedRun:
    """A scan walks past a long same-edge run that one strong owner blocks.

    Port ``p0``'s highest-priority edge ``(p0, q0)`` holds ``RUN`` chunks, all
    blocked by ``x`` on ``q0``.  Freeing ``p0`` makes the scan walk the run
    (checking ``x`` once, then skipping the rest through its ``blocked``
    set) while a pending higher-priority task forces it to defer before it
    matches ``y``.  Removing or evicting ``x`` afterwards must re-cover the
    skipped run.  ``flip`` mirrors the scenario onto the receiver side.
    """

    RUN = 60

    @staticmethod
    def _edge(p: str, q: str, flip: bool) -> tuple[str, str]:
        """Edge between scanned-side port ``p`` and other-side port ``q``."""
        return (f"t{q}", f"r{p}") if flip else (f"t{p}", f"r{q}")

    def _build(self, flip: bool):
        x = make_chunk(0, 100.0, self._edge("1", "0", flip))
        run = [make_chunk(10 + k, 50.0, self._edge("0", "0", flip), arrival=1 + k % 3)
               for k in range(self.RUN)]
        y = make_chunk(1, 10.0, self._edge("0", "1", flip))
        z = make_chunk(2, 60.0, self._edge("0", "2", flip))
        return x, run, y, z

    @pytest.mark.parametrize("flip", [False, True])
    @pytest.mark.parametrize("how", ["remove", "evict"])
    def test_blocker_leaves_after_deferred_walk(self, flip: bool, how: str) -> None:
        pool = make_pool()
        index = pool.matching_index
        x, run, y, z = self._build(flip)
        eligible = [x, *run, y, z]
        for chunk in eligible:
            pool.add(chunk)
        assert_matches_oracle(index, eligible)
        assert z in index.current_matching() and x in index.current_matching()

        # Free z's ports: the p0 scan starts at z's key, walks the run and
        # defers at y to w's pending eval (weight between the run's and y's).
        w = make_chunk(3, 20.0, ("t9", "r9"))
        before = index.stats()["tasks"]
        pool.remove(z)
        pool.add(w)
        eligible.remove(z)
        eligible.append(w)
        assert_matches_oracle(index, eligible)
        # More tasks than the three pushed (two scans for z's ports and w's
        # eval): the p0 scan was re-pushed at least once.
        assert index.stats()["tasks"] - before > 3
        assert y in index.current_matching()

        if how == "remove":
            pool.remove(x)
            eligible.remove(x)
        else:
            # A heavier chunk on x's other port evicts x, freeing the run's port.
            v = make_chunk(4, 200.0, self._edge("1", "8", flip))
            pool.add(v)
            eligible.append(v)
        assert_matches_oracle(index, eligible)
        assert run[0] in index.current_matching()

        # Drain the run from the front and the middle; each step re-checks.
        for chunk in run[:3] + run[self.RUN // 2 : self.RUN // 2 + 3]:
            pool.remove(chunk)
            eligible.remove(chunk)
            assert_matches_oracle(index, eligible)

    def test_run_through_pool_with_head_delays(self) -> None:
        """The same shape through the pool, with the run activating in waves."""
        pool = PendingChunkPool(matching_index=True)
        index = pool.matching_index
        x = make_chunk(0, 100.0, ("t1", "r0"))
        z = make_chunk(2, 60.0, ("t0", "r2"))
        y = make_chunk(1, 10.0, ("t0", "r1"))
        run = [make_chunk(10 + k, 50.0, ("t0", "r0"), head_delay=k % 4)
               for k in range(self.RUN)]
        for chunk in (x, z, y, *run):
            pool.add(chunk)
        for now, event in enumerate(["z", "w", "x", "run"], start=1):
            if event == "z":
                pool.remove(z)
            elif event == "w":
                pool.add(make_chunk(3, 20.0, ("t9", "r9"), arrival=now))
            elif event == "x":
                pool.remove(x)
            else:
                for chunk in run[::7]:
                    pool.remove(chunk)
            pool.advance_eligibility(now)
            assert_matches_oracle(index, pool.eligible_chunks(now))


def make_run(pid: int, weight: float, edge: tuple[str, str], delay: int = 4,
             arrival: int = 1, head_delay: int = 0) -> list[Chunk]:
    """One packet's ``delay`` chunks on ``edge``: the run the pool activates at once."""
    packet = Packet(pid, "s", "d", weight=weight, arrival=arrival)
    return split_into_chunks(packet, edge[0], edge[1], edge_delay=delay, head_delay=head_delay)


class TestRunActivation:
    """A packet's chunks activate as one run with a single ``eval`` task."""

    def test_run_adds_one_eval(self):
        pool = make_pool()
        index = pool.matching_index
        other = make_chunk(0, 1.0, ("t2", "r2"))
        pool.add(other)
        index.current_matching()
        before = index.stats()["tasks"]
        run = make_run(1, 8.0, ("t1", "r1"))
        pool.add_all(run)
        assert_matches_oracle(index, [other, *run])
        assert index.stats()["tasks"] == before + 1

    def test_blocked_head_released_by_owner_removal(self):
        pool = make_pool()
        index = pool.matching_index
        owner = make_chunk(0, 9.0, ("t2", "r1"))  # outranks the run on r1
        bystander = make_chunk(1, 0.5, ("t1", "r3"))
        run = make_run(2, 8.0, ("t1", "r1"))
        eligible = [owner, bystander]
        pool.add(owner)
        pool.add(bystander)
        assert_matches_oracle(index, eligible)
        pool.add_all(run)
        eligible += run
        assert_matches_oracle(index, eligible)
        assert run[0] not in index.current_matching()
        pool.remove(owner)  # r1 freed: the scan walks to the run's head
        eligible.remove(owner)
        assert_matches_oracle(index, eligible)
        assert index.current_matching() == [run[0]]
        for chunk in run:  # each removal hands the ports to the next chunk
            pool.remove(chunk)
            eligible.remove(chunk)
            assert_matches_oracle(index, eligible)
        assert index.current_matching() == [bystander]

    def test_head_removed_before_its_eval(self):
        pool = make_pool()
        index = pool.matching_index
        rival = make_chunk(0, 1.0, ("t1", "r2"))
        pool.add(rival)
        index.current_matching()
        run = make_run(1, 8.0, ("t1", "r1"))
        pool.add_all(run)
        pool.remove(run[0])
        pool.remove(run[2])
        assert_matches_oracle(index, [rival, run[1], run[3]])
        assert index.current_matching() == [run[1]]
        for chunk in (run[1], run[3]):
            pool.remove(chunk)
        assert_matches_oracle(index, [rival])

    @pytest.mark.parametrize("seed", range(6))
    def test_run_walk_through_pool(self, seed: int) -> None:
        """Multi-chunk packets through the pool; removals sometimes land
        before the pending evals are drained."""
        rng = random.Random(300 + seed)
        pool = PendingChunkPool(matching_index=True)
        index = pool.matching_index
        now = 1
        live: list[Chunk] = []
        for pid in range(150):
            op = rng.random()
            if op < 0.5 or not live:
                run = make_run(
                    pid,
                    float(rng.choice((2.0, 4.0, 4.0, 6.0))),
                    (f"t{rng.randrange(3)}", f"r{rng.randrange(3)}"),
                    delay=rng.choice((1, 2, 4)),
                    arrival=now,
                    head_delay=rng.randrange(3),
                )
                pool.add_all(run)
                live.extend(run)
            elif op < 0.85:
                pool.remove(live.pop(rng.randrange(len(live))))
            else:
                now += rng.randrange(1, 3)
                pool.advance_eligibility(now)
            if rng.random() < 0.5:
                assert_matches_oracle(index, pool.eligible_chunks(now))
        assert_matches_oracle(index, pool.eligible_chunks(now))


class TestRandomWalks:
    """Add/remove/advance walks checked against the oracle on every step."""

    @pytest.mark.parametrize("seed", range(10))
    def test_walk_through_pool(self, seed: int) -> None:
        rng = random.Random(seed)
        pool = PendingChunkPool(matching_index=True)
        index = pool.matching_index
        now = 1
        live: list[Chunk] = []
        next_pid = 0
        for _ in range(200):
            op = rng.random()
            if op < 0.55 or not live:
                # Small weight alphabet → frequent priority ties; nonzero
                # head delays populate the future-activation buckets.
                chunk = make_chunk(
                    next_pid,
                    float(rng.choice((1.0, 2.0, 2.0, 3.0, 5.0))),
                    (f"t{rng.randrange(4)}", f"r{rng.randrange(4)}"),
                    arrival=now,
                    head_delay=rng.randrange(4),
                )
                next_pid += 1
                pool.add(chunk)
                live.append(chunk)
            elif op < 0.85:
                # Removals hit eligible and future chunks alike.
                pool.remove(live.pop(rng.randrange(len(live))))
            else:
                now += rng.randrange(1, 3)
                pool.advance_eligibility(now)
            assert_matches_oracle(index, pool.eligible_chunks(now))

    @pytest.mark.parametrize("seed", range(5))
    def test_walk_on_bare_index(self, seed: int) -> None:
        """Same walk with no eligibility advances: every add activates at
        once, so keys reach the index in any order (arrivals are shuffled)."""
        rng = random.Random(100 + seed)
        pool = make_pool()
        index = pool.matching_index
        tracked: list[Chunk] = []
        next_pid = 0
        for _ in range(200):
            if rng.random() < 0.6 or not tracked:
                chunk = make_chunk(
                    next_pid,
                    float(rng.choice((1.0, 1.0, 2.0, 4.0))),
                    (f"t{rng.randrange(3)}", f"r{rng.randrange(3)}"),
                    arrival=rng.randrange(1, 5),
                )
                next_pid += 1
                pool.add(chunk)
                tracked.append(chunk)
            else:
                pool.remove(tracked.pop(rng.randrange(len(tracked))))
            assert_matches_oracle(index, tracked)


class TestPoolIntegration:
    def test_enable_matching_index_backfills(self):
        pool = PendingChunkPool()
        chunks = [make_chunk(pid, float(pid + 1), ("t1", f"r{pid}")) for pid in range(3)]
        for chunk in chunks:
            pool.add(chunk)
        pool.advance_eligibility(5)
        index = pool.enable_matching_index()
        assert_matches_oracle(index, pool.eligible_chunks(5))

    def test_future_chunks_invisible_until_activation(self):
        pool = PendingChunkPool(matching_index=True)
        early = make_chunk(0, 1.0, ("t1", "r1"))
        late = make_chunk(1, 9.0, ("t1", "r2"), head_delay=10)
        pool.add(early)
        pool.add(late)
        pool.advance_eligibility(2)
        assert pool.matching_index.current_matching() == [early]
        pool.advance_eligibility(11)  # the heavier chunk activates and wins
        assert pool.matching_index.current_matching() == [late]

    def test_scheduler_reads_index_and_matches_reference(self):
        topology = figure2_topology()
        pool = PendingChunkPool(matching_index=True)
        for pid, (weight, edge) in enumerate(
            [(3.0, ("t1", "r1")), (2.0, ("t1", "r2")), (5.0, ("t2", "r1")), (1.0, ("t3", "r3"))]
        ):
            pool.add(make_chunk(pid, weight, edge))
        incremental = StableMatchingScheduler()
        reference = StableMatchingScheduler(incremental=False)
        assert incremental.uses_matching_index
        assert not reference.uses_matching_index
        matching = incremental.select_matching(pool, topology, 1)
        assert matching == reference.select_matching(pool, topology, 1)
        assert matching == greedy_stable_matching(pool.eligible_chunks(1))

    def test_scheduler_falls_back_on_non_monotone_query(self):
        topology = figure2_topology()
        pool = PendingChunkPool(matching_index=True)
        early = make_chunk(0, 1.0, ("t1", "r1"))
        late = make_chunk(1, 9.0, ("t2", "r2"), head_delay=5)
        pool.add(early)
        pool.add(late)
        scheduler = StableMatchingScheduler()
        assert set(scheduler.select_matching(pool, topology, 6)) == {early, late}
        # A query behind the watermark must not report the later activation.
        assert scheduler.select_matching(pool, topology, 1) == [early]


class TestHandover:
    """A removed matched chunk hands both ports to the next chunk on both."""

    def test_run_successor_takes_over_without_a_task(self):
        pool = make_pool()
        index = pool.matching_index
        run = make_run(0, 5.0, ("t1", "r1"), delay=3)
        other = make_chunk(1, 1.0, ("t2", "r2"))
        pool.add_all(run)
        pool.add(other)
        assert index.current_matching() == [run[0], other]
        stats = index.stats()
        pool.remove(run[0])
        assert_matches_oracle(index, [*run[1:], other])
        assert index.current_matching() == [run[1], other]
        after = index.stats()
        assert after["tasks"] == stats["tasks"]
        assert after["handovers"] == stats["handovers"] + 1

    def test_different_next_entries_fall_back(self):
        # After ``c`` leaves, r1's next entry is ``v`` (t2, r1), not the
        # same-edge ``u``: ``v`` outranks ``u`` and must take r1.
        pool = make_pool()
        index = pool.matching_index
        c = make_chunk(0, 9.0, ("t1", "r1"))
        v = make_chunk(1, 7.0, ("t2", "r1"))
        u = make_chunk(2, 5.0, ("t1", "r1"))
        eligible = [c, v, u]
        for chunk in eligible:
            pool.add(chunk)
        assert index.current_matching() == [c]
        stats = index.stats()
        pool.remove(c)
        eligible.remove(c)
        assert_matches_oracle(index, eligible)
        assert index.current_matching() == [v]
        after = index.stats()
        assert after["handovers"] == stats["handovers"]
        assert after["tasks"] > stats["tasks"]

    def test_pending_heavier_eval_falls_back(self):
        # An undrained eval of a heavier chunk on the same transmitter: the
        # removal pushes its scans, and the heavier chunk wins t1.
        pool = make_pool()
        index = pool.matching_index
        run = make_run(0, 5.0, ("t1", "r1"), delay=2)
        pool.add_all(run)
        assert index.current_matching() == [run[0]]
        heavy = make_chunk(1, 9.0, ("t1", "r2"))
        pool.add(heavy)
        stats = index.stats()
        pool.remove(run[0])
        assert index.stats()["handovers"] == stats["handovers"]
        assert_matches_oracle(index, [run[1], heavy])
        assert index.current_matching() == [heavy]

    @pytest.mark.parametrize("seed", range(8))
    def test_walk_with_runs_and_sparse_drains(self, seed: int) -> None:
        """Multi-chunk runs on a few shared ports; drains only at some steps.

        Between drains, matched chunks complete (as in a slot) and new runs
        arrive, so removals land both with an empty task heap (handover or
        fallback scan) and behind pending evals.
        """
        rng = random.Random(700 + seed)
        pool = make_pool()
        index = pool.matching_index
        tracked: list[Chunk] = []
        handovers = fallbacks = 0
        for pid in range(120):
            if rng.random() < 0.4:
                assert_matches_oracle(index, tracked)
                for chunk in index.current_matching():
                    if rng.random() < 0.8:
                        before = index.stats()["handovers"]
                        pool.remove(chunk)
                        tracked.remove(chunk)
                        if index.stats()["handovers"] > before:
                            handovers += 1
                        else:
                            fallbacks += 1
            if rng.random() < 0.15 and tracked:
                pool.remove(tracked.pop(rng.randrange(len(tracked))))
            run = make_run(
                pid,
                float(rng.choice((1.0, 2.0, 2.0, 3.0))),
                (f"t{rng.randrange(3)}", f"r{rng.randrange(3)}"),
                delay=rng.randrange(2, 5),
                arrival=rng.randrange(1, 4),
            )
            pool.add_all(run)
            tracked.extend(run)
        assert_matches_oracle(index, tracked)
        assert handovers > 0 and fallbacks > 0
