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


def assert_matches_oracle(index: MatchingIndex, eligible: list[Chunk]) -> None:
    """The repaired matching equals the from-scratch greedy pass, in order."""
    matching = index.current_matching()
    assert matching == greedy_stable_matching(eligible)
    assert is_stable_matching(matching, eligible)


class TestBasics:
    def test_empty(self):
        assert MatchingIndex().current_matching() == []

    def test_single_chunk_matched(self):
        index = MatchingIndex()
        chunk = make_chunk(0, 2.0, ("t1", "r1"))
        index.activate(chunk)
        assert index.current_matching() == [chunk]
        assert len(index) == 1

    def test_duplicate_activation_rejected(self):
        index = MatchingIndex()
        chunk = make_chunk(0, 2.0, ("t1", "r1"))
        index.activate(chunk)
        with pytest.raises(SimulationError):
            index.activate(chunk)

    def test_discard_untracked_is_noop(self):
        index = MatchingIndex()
        index.discard(make_chunk(0, 2.0, ("t1", "r1")))
        assert index.current_matching() == []

    def test_clear(self):
        index = MatchingIndex()
        index.activate(make_chunk(0, 2.0, ("t1", "r1")))
        index.clear()
        assert len(index) == 0
        assert index.current_matching() == []

    def test_removing_unmatched_chunk_changes_nothing(self):
        index = MatchingIndex()
        heavy = make_chunk(0, 5.0, ("t1", "r1"))
        blocked = make_chunk(1, 1.0, ("t1", "r2"))
        index.activate(heavy)
        index.activate(blocked)
        assert index.current_matching() == [heavy]
        index.discard(blocked)
        assert index.current_matching() == [heavy]


class TestTieWeights:
    def test_equal_weights_resolved_by_arrival(self):
        index = MatchingIndex()
        late = make_chunk(0, 2.0, ("t1", "r1"), arrival=9)
        early = make_chunk(1, 2.0, ("t1", "r2"), arrival=3)
        index.activate(late)  # matched first…
        index.activate(early)  # …then evicted by the earlier arrival
        assert_matches_oracle(index, [late, early])
        assert index.current_matching() == [early]

    def test_equal_weight_and_arrival_resolved_by_packet_id(self):
        index = MatchingIndex()
        chunks = [make_chunk(pid, 4.0, ("t1", f"r{pid}")) for pid in (2, 0, 1)]
        for chunk in chunks:
            index.activate(chunk)
        assert_matches_oracle(index, chunks)
        assert [c.packet.packet_id for c in index.current_matching()] == [0]

    def test_all_tied_on_disjoint_edges_all_matched(self):
        index = MatchingIndex()
        chunks = [make_chunk(pid, 1.0, (f"t{pid}", f"r{pid}")) for pid in range(4)]
        for chunk in chunks:
            index.activate(chunk)
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
        index = MatchingIndex()
        chunks = self._chain()
        for chunk in chunks:
            index.activate(chunk)
        b1, b2, b3, c2, c3 = chunks
        assert index.current_matching() == [b1, b2, b3]

        a = make_chunk(0, 6.0, ("t1", "r0"))
        index.activate(a)
        assert_matches_oracle(index, chunks + [a])
        assert index.current_matching() == [a, c2, c3]

    def test_removal_unwinds_the_cascade(self):
        index = MatchingIndex()
        chunks = self._chain()
        a = make_chunk(0, 6.0, ("t1", "r0"))
        for chunk in chunks + [a]:
            index.activate(chunk)
        assert index.current_matching() == [a, chunks[3], chunks[4]]

        index.discard(a)  # b1 re-enters, evicting c2; b2 re-enters, evicting c3…
        assert_matches_oracle(index, chunks)
        assert index.current_matching() == chunks[:3]

    def test_same_edge_replacement(self):
        index = MatchingIndex()
        low = make_chunk(0, 1.0, ("t1", "r1"))
        high = make_chunk(1, 7.0, ("t1", "r1"))
        index.activate(low)
        assert index.current_matching() == [low]
        index.activate(high)  # same-edge owner: both ports pass over at once
        assert index.current_matching() == [high]
        index.discard(high)
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
        index = MatchingIndex()
        x, run, y, z = self._build(flip)
        eligible = [x, *run, y, z]
        for chunk in eligible:
            index.activate(chunk)
        assert_matches_oracle(index, eligible)
        assert z in index.current_matching() and x in index.current_matching()

        # Free z's ports: the p0 scan starts at z's key, walks the run and
        # defers at y to w's pending eval (weight between the run's and y's).
        w = make_chunk(3, 20.0, ("t9", "r9"))
        before = index.stats()["tasks"]
        index.discard(z)
        index.activate(w)
        eligible.remove(z)
        eligible.append(w)
        assert_matches_oracle(index, eligible)
        # More tasks than the three pushed (two scans for z's ports and w's
        # eval): the p0 scan was re-pushed at least once.
        assert index.stats()["tasks"] - before > 3
        assert y in index.current_matching()

        if how == "remove":
            index.discard(x)
            eligible.remove(x)
        else:
            # A heavier chunk on x's other port evicts x, freeing the run's port.
            v = make_chunk(4, 200.0, self._edge("1", "8", flip))
            index.activate(v)
            eligible.append(v)
        assert_matches_oracle(index, eligible)
        assert run[0] in index.current_matching()

        # Drain the run from the front and the middle; each step re-checks.
        for chunk in run[:3] + run[self.RUN // 2 : self.RUN // 2 + 3]:
            index.discard(chunk)
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
        index = MatchingIndex()
        other = make_chunk(0, 1.0, ("t2", "r2"))
        index.activate(other)
        index.current_matching()
        before = index.stats()["tasks"]
        run = make_run(1, 8.0, ("t1", "r1"))
        index.activate(*run)
        assert_matches_oracle(index, [other, *run])
        assert index.stats()["tasks"] == before + 1

    def test_blocked_head_released_by_owner_removal(self):
        index = MatchingIndex()
        owner = make_chunk(0, 9.0, ("t2", "r1"))  # outranks the run on r1
        bystander = make_chunk(1, 0.5, ("t1", "r3"))
        run = make_run(2, 8.0, ("t1", "r1"))
        eligible = [owner, bystander]
        index.activate(owner)
        index.activate(bystander)
        assert_matches_oracle(index, eligible)
        index.activate(*run)
        eligible += run
        assert_matches_oracle(index, eligible)
        assert run[0] not in index.current_matching()
        index.discard(owner)  # r1 freed: the scan walks to the run's head
        eligible.remove(owner)
        assert_matches_oracle(index, eligible)
        assert index.current_matching() == [run[0]]
        for chunk in run:  # each removal hands the ports to the next chunk
            index.discard(chunk)
            eligible.remove(chunk)
            assert_matches_oracle(index, eligible)
        assert index.current_matching() == [bystander]

    def test_head_removed_before_its_eval(self):
        index = MatchingIndex()
        rival = make_chunk(0, 1.0, ("t1", "r2"))
        index.activate(rival)
        index.current_matching()
        run = make_run(1, 8.0, ("t1", "r1"))
        index.activate(*run)
        index.discard(run[0])
        index.discard(run[2])
        assert_matches_oracle(index, [rival, run[1], run[3]])
        assert index.current_matching() == [run[1]]
        for chunk in run:
            index.discard(chunk)
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
        """Same walk against the index alone (no pool): activation order is free."""
        rng = random.Random(100 + seed)
        index = MatchingIndex()
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
                index.activate(chunk)
                tracked.append(chunk)
            else:
                index.discard(tracked.pop(rng.randrange(len(tracked))))
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
