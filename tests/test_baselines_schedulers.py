"""Tests for repro.baselines.schedulers and policies."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.baselines.schedulers as schedulers_module
from repro.baselines import (
    FIFOScheduler,
    ISLIPScheduler,
    MaxWeightMatchingScheduler,
    RandomOrderScheduler,
    ablation_policies,
    all_policies,
    standard_baselines,
)
from repro.core import OpportunisticLinkScheduler, Packet
from repro.core.packet import split_into_chunks
from repro.core.queues import PendingChunkPool
from repro.core.stable_matching import is_chunk_matching
from repro.network import figure2_topology, single_tier_crossbar
from repro.baselines.schedulers import _forest_matching
from repro.scenarios import get_scenario
from repro.simulation import simulate, simulate_multi
from repro.workloads import uniform_random_workload


def add_chunk(pool, pid, weight, edge, arrival=1):
    packet = Packet(pid, "s", "d", weight=weight, arrival=arrival)
    chunk = split_into_chunks(packet, edge[0], edge[1], edge_delay=1)[0]
    pool.add(chunk)
    return chunk


def conflict_pool():
    """Two conflicting chunks at one transmitter plus an independent one."""
    pool = PendingChunkPool()
    old_light = add_chunk(pool, 0, 1.0, ("t1", "r1"), arrival=1)
    new_heavy = add_chunk(pool, 1, 9.0, ("t1", "r2"), arrival=5)
    other = add_chunk(pool, 2, 2.0, ("t2", "r3"), arrival=2)
    return pool, old_light, new_heavy, other


class TestFIFOScheduler:
    def test_oldest_first(self):
        pool, old_light, new_heavy, other = conflict_pool()
        matching = FIFOScheduler().select_matching(pool, figure2_topology(), 10)
        assert old_light in matching and new_heavy not in matching and other in matching

    def test_is_matching(self):
        pool, *_ = conflict_pool()
        assert is_chunk_matching(FIFOScheduler().select_matching(pool, figure2_topology(), 10))


class TestRandomOrderScheduler:
    def test_is_matching_and_deterministic_after_reset(self):
        pool, *_ = conflict_pool()
        scheduler = RandomOrderScheduler(seed=7)
        first = scheduler.select_matching(pool, figure2_topology(), 10)
        scheduler.reset()
        second = scheduler.select_matching(pool, figure2_topology(), 10)
        assert is_chunk_matching(first)
        assert first == second

    def test_empty_pool(self):
        assert RandomOrderScheduler(seed=1).select_matching(PendingChunkPool(), figure2_topology(), 1) == []


class TestMaxWeightScheduler:
    def test_prefers_heavier_edge(self):
        pool, old_light, new_heavy, other = conflict_pool()
        matching = MaxWeightMatchingScheduler().select_matching(pool, figure2_topology(), 10)
        assert new_heavy in matching and other in matching

    def test_sum_mode_aggregates(self):
        pool = PendingChunkPool()
        # Edge A holds one chunk of weight 5; edge B holds three chunks of
        # weight 2 each (total 6).  Both edges share the transmitter.
        add_chunk(pool, 0, 5.0, ("t", "ra"))
        for pid in range(1, 4):
            add_chunk(pool, pid, 2.0, ("t", "rb"))
        max_mode = MaxWeightMatchingScheduler(mode="max").select_matching(pool, figure2_topology(), 1)
        sum_mode = MaxWeightMatchingScheduler(mode="sum").select_matching(pool, figure2_topology(), 1)
        assert max_mode[0].edge == ("t", "ra")
        assert sum_mode[0].edge == ("t", "rb")

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            MaxWeightMatchingScheduler(mode="bogus")

    def test_is_matching_on_dense_pool(self):
        pool = PendingChunkPool()
        pid = 0
        for t in range(3):
            for r in range(3):
                add_chunk(pool, pid, float(pid + 1), (f"t{t}", f"r{r}"))
                pid += 1
        matching = MaxWeightMatchingScheduler().select_matching(pool, figure2_topology(), 1)
        assert is_chunk_matching(matching)
        assert len(matching) == 3

    def test_eligibility_respected(self):
        pool = PendingChunkPool()
        packet = Packet(0, "s", "d", weight=1.0, arrival=1)
        late = split_into_chunks(packet, "t", "r", edge_delay=1, head_delay=9)[0]
        pool.add(late)
        assert MaxWeightMatchingScheduler().select_matching(pool, figure2_topology(), 1) == []


def blossom_edges(edge_weight):
    """The test oracle: networkx's maximum-weight matching as ``(t, r)`` edges."""
    graph = nx.Graph()
    for (t, r), weight in edge_weight.items():
        graph.add_edge(("T", t), ("R", r), weight=weight)
    matching = nx.max_weight_matching(graph, maxcardinality=False)
    return {(a[1], b[1]) if a[0] == "T" else (b[1], a[1]) for a, b in matching}


#: float weights, or a few fixed values that force exact ties when drawn twice
weights = st.one_of(
    st.floats(min_value=0.01, max_value=100.0, allow_nan=False, allow_infinity=False),
    st.sampled_from([1.0, 2.0, 2.5, 3.0]),
)


@st.composite
def bipartite_graphs(draw):
    """Small bipartite graphs: 1–25 edges over several disjoint components.

    Transmitter and receiver names come from one namespace (``n<c>.<i>``),
    so the two sides share names; a component may be forced to hold a
    4-cycle.
    """
    edges = {}
    for component in range(draw(st.integers(1, 4))):
        pairs = draw(
            st.lists(
                st.tuples(st.integers(0, 3), st.integers(0, 3)),
                min_size=1, max_size=8, unique=True,
            )
        )
        if draw(st.booleans()) and draw(st.booleans()):
            pairs += [(0, 0), (0, 1), (1, 0), (1, 1)]
        for i, j in pairs:
            edges[(f"n{component}.{i}", f"n{component}.{j}")] = draw(weights)
    return dict(list(edges.items())[:25])


class TestForestShortcut:
    def test_single_edges_and_unique_star(self):
        edge_weight = {("t1", "r1"): 2.0, ("t2", "r2"): 1.0, ("t2", "r3"): 4.0}
        assert set(_forest_matching(edge_weight)) == {("t1", "r1"), ("t2", "r3")}

    def test_path_takes_the_two_outer_edges(self):
        edge_weight = {("t1", "r1"): 3.0, ("t2", "r1"): 5.0, ("t2", "r2"): 3.0}
        assert set(_forest_matching(edge_weight)) == {("t1", "r1"), ("t2", "r2")}

    def test_cycle_defers_to_blossom(self):
        edge_weight = {("t1", "r1"): 1.0, ("t1", "r2"): 2.0, ("t2", "r1"): 3.0, ("t2", "r2"): 4.0}
        assert _forest_matching(edge_weight) is None

    def test_exact_tie_defers_to_blossom(self):
        assert _forest_matching({("t", "r1"): 2.0, ("t", "r2"): 2.0}) is None
        # Matching the middle edge ties leaving it free for the outer pair.
        assert _forest_matching({("t1", "r1"): 1.0, ("t2", "r1"): 2.0, ("t2", "r2"): 1.0}) is None

    def test_shared_names_stay_on_their_side(self):
        edge_weight = {("x", "y"): 1.0, ("y", "x"): 1.0}
        assert set(_forest_matching(edge_weight)) == {("x", "y"), ("y", "x")}

    @settings(max_examples=400, deadline=None)
    @given(bipartite_graphs())
    def test_none_or_exactly_the_blossom_matching(self, edge_weight):
        matching = _forest_matching(edge_weight)
        if matching is None:
            return
        assert len(set(matching)) == len(matching)
        assert set(matching) == blossom_edges(edge_weight)

    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from(["max", "sum"]),
        st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 3), weights),
            min_size=1, max_size=25,
        ),
    )
    def test_scheduler_matches_the_blossom_in_both_modes(self, mode, drawn):
        pool = PendingChunkPool()
        chunks = [
            add_chunk(pool, pid, weight, (f"t{t}", f"r{r}"), arrival=1 + pid % 3)
            for pid, (t, r, weight) in enumerate(drawn)
        ]
        edge_weight = {}
        for chunk in sorted(chunks, key=lambda c: c.key):  # the pool's summing order
            if mode == "sum":
                edge_weight[chunk.edge] = edge_weight.get(chunk.edge, 0.0) + chunk.weight
            else:
                edge_weight[chunk.edge] = max(edge_weight.get(chunk.edge, 0.0), chunk.weight)
        matching = MaxWeightMatchingScheduler(mode).select_matching(pool, figure2_topology(), 10)
        assert is_chunk_matching(matching)
        assert [c.key for c in matching] == sorted(c.key for c in matching)
        for chunk in matching:
            assert chunk.key == min(c.key for c in chunks if c.edge == chunk.edge)
        expected = blossom_edges(edge_weight)
        if _forest_matching(edge_weight) is not None:
            assert {c.edge for c in matching} == expected
        else:
            # Ties may have several optima; any of them is a blossom answer.
            assert sum(edge_weight[c.edge] for c in matching) == pytest.approx(
                sum(edge_weight[e] for e in expected)
            )

    @pytest.mark.parametrize("scenario", ["crossbar-uniform", "laser-hotspot"])
    def test_spy_every_shortcut_answer_equals_the_blossom(self, monkeypatch, scenario):
        calls = {"graphs": 0, "shortcut": 0, "blossom": 0}
        forest = schedulers_module._forest_matching
        blossom = schedulers_module._blossom_matching

        def spy_forest(edge_weight):
            calls["graphs"] += 1
            matching = forest(edge_weight)
            if matching is not None:
                calls["shortcut"] += 1
                assert set(matching) == set(blossom(edge_weight))
            return matching

        def spy_blossom(edge_weight):
            calls["blossom"] += 1
            return blossom(edge_weight)

        monkeypatch.setattr(schedulers_module, "_forest_matching", spy_forest)
        monkeypatch.setattr(schedulers_module, "_blossom_matching", spy_blossom)
        topology, packets, policies = get_scenario(scenario).materialise(3)
        simulate_multi(topology, {"maxweight": policies["maxweight"]}, packets)
        assert calls["graphs"] == calls["shortcut"] + calls["blossom"]
        assert calls["shortcut"] > 0 and calls["blossom"] > 0


_TRACE_SCRIPT = textwrap.dedent(
    """
    import json
    from repro.scenarios import get_scenario
    from repro.simulation.engine import EngineConfig, SimulationEngine

    topology, packets, policies = get_scenario("uniform-projector").materialise(3)
    engine = SimulationEngine(
        topology, config=EngineConfig(record_trace=True, retention="full")
    )
    results = engine.run_multi(packets, policies)
    print(json.dumps({
        name: [slot.to_dict() for slot in result.trace.slots]
        for name, result in results.items()
    }))
    """
)


def test_slot_traces_do_not_depend_on_the_hash_seed():
    """Every race policy's slot trace is identical under two ``PYTHONHASHSEED``s."""
    traces = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.run(
            [sys.executable, "-c", _TRACE_SCRIPT],
            env=env, capture_output=True, text=True, check=True,
        )
        traces.append(json.loads(proc.stdout))
    assert set(traces[0]) == {"alg", "fifo", "maxweight", "islip", "shortest-path"}
    assert all(traces[0][name] for name in traces[0])
    assert traces[0] == traces[1]


class TestISLIPScheduler:
    def test_is_matching(self):
        pool, *_ = conflict_pool()
        matching = ISLIPScheduler().select_matching(pool, figure2_topology(), 10)
        assert is_chunk_matching(matching)
        assert len(matching) == 2

    def test_empty_pool(self):
        assert ISLIPScheduler().select_matching(PendingChunkPool(), figure2_topology(), 1) == []

    def test_full_crossbar_gets_full_matching(self):
        pool = PendingChunkPool()
        pid = 0
        for t in range(4):
            for r in range(4):
                add_chunk(pool, pid, 1.0, (f"t{t}", f"r{r}"))
                pid += 1
        matching = ISLIPScheduler(iterations=4).select_matching(pool, figure2_topology(), 1)
        assert is_chunk_matching(matching)
        assert len(matching) == 4

    def test_pointers_desynchronise_round_robin(self):
        # Two transmitters both want the single receiver; over two consecutive
        # slots each should be served once.
        scheduler = ISLIPScheduler()
        served = []
        pool = PendingChunkPool()
        a = add_chunk(pool, 0, 1.0, ("tA", "r"))
        b = add_chunk(pool, 1, 1.0, ("tB", "r"))
        m1 = scheduler.select_matching(pool, figure2_topology(), 1)
        served.append(m1[0].transmitter)
        pool.remove(m1[0])
        m2 = scheduler.select_matching(pool, figure2_topology(), 2)
        served.append(m2[0].transmitter)
        assert set(served) == {"tA", "tB"}

    def test_invalid_iterations(self):
        with pytest.raises(ValueError):
            ISLIPScheduler(iterations=0)


class TestPolicyFactories:
    def test_standard_baseline_names(self):
        policies = standard_baselines(seed=0)
        assert set(policies) == {"fifo", "random", "maxweight", "islip", "shortest-path"}

    def test_ablation_names(self):
        assert set(ablation_policies()) == {"least-loaded+stable", "impact+fifo"}

    def test_all_policies_includes_alg(self):
        policies = all_policies(seed=0)
        assert "alg" in policies
        assert isinstance(policies["alg"], OpportunisticLinkScheduler)

    def test_every_policy_completes_a_run(self):
        topo = single_tier_crossbar(4)
        packets = uniform_random_workload(topo, 30, arrival_rate=3.0, seed=2)
        for name, policy in all_policies(seed=1).items():
            result = simulate(topo, policy, packets)
            assert result.all_delivered, name
            assert result.total_weighted_latency > 0
