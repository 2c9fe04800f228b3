"""Unit tests for the scenario registry, specs and matrix plumbing."""

from __future__ import annotations

import dataclasses
import json
import re

import pytest

from repro.exceptions import ScenarioError, SimulationError
from repro.network import projector_fabric
from repro.scenarios import (
    GRIDS,
    Scenario,
    ScenarioMatrix,
    TopologySpec,
    WorkloadSpec,
    get_scenario,
    grid_matrix,
    grid_names,
    list_scenarios,
    resolve_policies,
    resolve_weight_sampler,
    scenario_matrix,
    scenario_names,
)
from repro.simulation import ENGINE_MODES, EngineConfig, SimulationEngine, simulate
from repro.utils.rng import as_rng
from repro.workloads import (
    contention_hotspot_workload,
    heavy_tailed_incast_workload,
    iter_contention_hotspot_workload,
    iter_heavy_tailed_incast_workload,
    iter_priority_inversion_workload,
    iter_saturated_pairs_workload,
    priority_inversion_workload,
    saturated_pairs_workload,
    uniform_random_workload,
    write_packet_trace,
    write_packet_trace_jsonl,
)


# ---------------------------------------------------------------------- #
# registry
# ---------------------------------------------------------------------- #
class TestRegistry:
    def test_every_grid_names_registered_scenarios(self):
        names = set(scenario_names())
        for grid, members in GRIDS.items():
            missing = set(members) - names
            assert not missing, f"grid {grid!r} references unknown scenarios {missing}"

    def test_full_grid_contains_every_scenario(self):
        assert {s.name for s in grid_matrix("full").scenarios} == set(scenario_names())

    def test_unknown_scenario_and_grid_raise(self):
        with pytest.raises(ScenarioError, match="unknown scenario"):
            get_scenario("no-such-scenario")
        with pytest.raises(ScenarioError, match="unknown grid"):
            grid_matrix("no-such-grid")

    def test_tag_filter(self):
        adversarial = list_scenarios(tag="adversarial")
        assert adversarial and all("adversarial" in s.tags for s in adversarial)
        assert list_scenarios(tag="no-such-tag") == []

    def test_grid_names_include_implicit_full(self):
        assert "full" in grid_names()
        assert set(GRIDS) < set(grid_names())

    def test_duplicate_scenario_in_matrix_rejected(self):
        fig1 = get_scenario("figure1")
        with pytest.raises(ScenarioError, match="twice"):
            ScenarioMatrix(name="dup", scenarios=(fig1, fig1))


# ---------------------------------------------------------------------- #
# specs
# ---------------------------------------------------------------------- #
class TestSpecs:
    def test_unknown_kinds_rejected(self):
        with pytest.raises(ScenarioError, match="topology kind"):
            TopologySpec("moebius")
        with pytest.raises(ScenarioError, match="workload kind"):
            WorkloadSpec("antigravity")

    def test_weight_sampler_specs(self):
        rng = as_rng(0)
        assert resolve_weight_sampler(None) is None
        sampler = resolve_weight_sampler(("uniform", 1, 10))
        assert 1 <= sampler(rng) <= 10
        with pytest.raises(ScenarioError, match="weight spec"):
            resolve_weight_sampler(("gaussian", 0, 1))

    def test_fixed_link_delay_builds_hybrid(self):
        spec = TopologySpec(
            "projector", {"num_racks": 3, "lasers_per_rack": 1,
                          "photodetectors_per_rack": 1},
            fixed_link_delay=4,
        )
        topo = spec.build(seed=1)
        assert topo.fixed_links, "hybrid spec produced no fixed links"
        assert all(
            s.split(":")[0] != d.split(":")[0] for (s, d) in topo.fixed_links
        ), "fixed links must be cross-rack only"

    def test_topology_build_is_seed_deterministic(self):
        spec = TopologySpec(
            "random-bipartite",
            {"num_sources": 3, "num_destinations": 3, "edge_probability": 0.5},
        )
        assert (
            spec.build(seed=9).reconfigurable_edges
            == spec.build(seed=9).reconfigurable_edges
        )

    def test_resolve_policies_validates_names(self):
        policies = resolve_policies(("alg", "direct-first"), seed=1)
        assert list(policies) == ["alg", "direct-first"]
        with pytest.raises(ScenarioError, match="unknown policies"):
            resolve_policies(("alg", "quantum"), seed=1)

    def test_scenario_validation(self):
        fig1 = get_scenario("figure1")
        with pytest.raises(ScenarioError, match="no policies"):
            Scenario(name="x", description="", topology=fig1.topology,
                     workload=fig1.workload, policies=())
        with pytest.raises(ScenarioError, match="no seeds"):
            Scenario(name="x", description="", topology=fig1.topology,
                     workload=fig1.workload, seeds=())


# ---------------------------------------------------------------------- #
# matrix semantics
# ---------------------------------------------------------------------- #
class TestMatrix:
    def test_counts(self):
        matrix = grid_matrix("smoke")
        assert matrix.num_cells == len(matrix.cells())
        assert matrix.num_runs == sum(
            len(s.policies) * len(s.seeds) for s in matrix.scenarios
        )

    def test_invalid_mode_rejected(self):
        with pytest.raises(ScenarioError, match="mode"):
            grid_matrix("smoke").to_experiment_spec(mode="telepathic")

    def test_per_policy_mode_was_removed(self):
        with pytest.raises(ScenarioError, match="per-policy mode was removed"):
            grid_matrix("smoke").to_experiment_spec(mode="per-policy")

    def test_rows_are_grid_composition_invariant(self):
        """A scenario's rows do not depend on which matrix runs it."""
        alone = scenario_matrix(["tiny-random"], name="solo").run()
        with_others = grid_matrix("smoke").run()
        subset = [row for row in with_others if row["scenario"] == "tiny-random"]
        assert alone == subset

    def test_rows_serialise_to_json(self, tmp_path):
        path = tmp_path / "rows.json"
        rows = scenario_matrix(["figure1"], name="io").run(output_path=str(path))
        document = json.loads(path.read_text())
        assert document["rows"] == rows

    def test_rows_are_engine_invariant(self):
        """The indexed/reference dispatch backends produce identical rows.

        Exercises the whole override chain: ``run(engine=…)`` →
        ``to_experiment_spec`` grid params → the cell task's
        ``task.params.get("engine") or scenario.engine`` fallback.
        """
        matrix = scenario_matrix(["tiny-random"], name="engines")
        default = matrix.run()  # scenario default ("indexed")
        indexed = matrix.run(engine="indexed")
        reference = matrix.run(engine="reference")
        per_policy_reference = []
        for scenario, seed in matrix.cells():
            for name in scenario.policies:
                topology, packets, policies = scenario.materialise(seed)
                result = simulate(
                    topology, policies[name], packets, speed=scenario.speed,
                    max_slots=scenario.max_slots, engine="reference",
                )
                per_policy_reference.append({
                    "scenario": scenario.name, "seed": seed, "policy": name,
                    "speed": scenario.speed, **result.summary(),
                })
        assert default == indexed == reference == per_policy_reference

    def test_invalid_engine_rejected(self):
        # The retired numpy engine name fails like any unknown mode, and the
        # error names the modes that are left.
        valid = f"engine must be one of {re.escape(repr(ENGINE_MODES))}"
        for engine in ("vectorised", "vectorized"):
            with pytest.raises(ScenarioError, match=valid):
                grid_matrix("smoke").to_experiment_spec(engine=engine)
            with pytest.raises(ScenarioError, match=valid):
                dataclasses.replace(get_scenario("figure1"), engine=engine)


# ---------------------------------------------------------------------- #
# run_multi guard rails
# ---------------------------------------------------------------------- #
class TestRunMultiGuards:
    def test_empty_policy_mapping_rejected(self):
        topo = projector_fabric(num_racks=2, seed=0)
        engine = SimulationEngine(topo)
        with pytest.raises(SimulationError, match="at least one policy"):
            engine.run_multi([], {})

    def test_policyless_engine_cannot_run_single(self):
        topo = projector_fabric(num_racks=2, seed=0)
        with pytest.raises(SimulationError, match="without a policy"):
            SimulationEngine(topo).run([])

    def test_trace_path_restricted_to_single_policy(self, tmp_path):
        topo = projector_fabric(num_racks=2, seed=0)
        engine = SimulationEngine(
            topo, config=EngineConfig(trace_path=str(tmp_path / "t.jsonl"))
        )
        policies = resolve_policies(("alg", "fifo"), seed=0)
        with pytest.raises(SimulationError, match="single-policy"):
            engine.run_multi([], policies)
        # One policy is fine.
        only_alg = resolve_policies(("alg",), seed=0)
        results = engine.run_multi([], only_alg)
        assert list(results) == ["alg"]

    def test_same_policy_object_under_two_names_rejected(self):
        topo = projector_fabric(num_racks=2, seed=0)
        policy = resolve_policies(("islip",), seed=0)["islip"]
        with pytest.raises(SimulationError, match="distinct policy object"):
            SimulationEngine(topo).run_multi([], {"a": policy, "b": policy})

    def test_shared_scheduler_component_rejected(self):
        from repro.baselines.schedulers import ISLIPScheduler
        from repro.core.dispatcher import ImpactDispatcher
        from repro.core.interfaces import Policy

        topo = projector_fabric(num_racks=2, seed=0)
        shared = ISLIPScheduler()  # stateful round-robin pointers
        policies = {
            "a": Policy("a", ImpactDispatcher(), shared),
            "b": Policy("b", ImpactDispatcher(), shared),
        }
        with pytest.raises(SimulationError, match="shared object"):
            SimulationEngine(topo).run_multi([], policies)

    def test_invalid_input_does_not_truncate_existing_trace(self, tmp_path):
        from repro.core.packet import Packet

        trace = tmp_path / "slots.jsonl"
        trace.write_text('{"slot": 1}\n')
        topo = projector_fabric(num_racks=2, seed=0)
        policy = resolve_policies(("alg",), seed=0)["alg"]
        engine = SimulationEngine(
            topo, policy, config=EngineConfig(trace_path=str(trace))
        )
        duplicate = Packet(packet_id=0, source="rack0:src",
                           destination="rack1:dst", weight=1.0, arrival=1)
        with pytest.raises(SimulationError, match="duplicate"):
            engine.run([duplicate, duplicate])
        assert trace.read_text() == '{"slot": 1}\n', (
            "invalid input must not clobber a pre-existing trace file"
        )
        # An empty stream writes no trace file at all (historical behaviour).
        empty_trace = tmp_path / "empty.jsonl"
        empty_engine = SimulationEngine(
            topo, policy, config=EngineConfig(trace_path=str(empty_trace))
        )
        empty_engine.run([])
        assert not empty_trace.exists()


# ---------------------------------------------------------------------- #
# adversarial generators
# ---------------------------------------------------------------------- #
class TestAdversarialGenerators:
    @pytest.fixture
    def fabric(self):
        return projector_fabric(
            num_racks=4, lasers_per_rack=2, photodetectors_per_rack=2, seed=3
        )

    def test_iter_and_list_forms_agree(self, fabric):
        for iter_fn, list_fn, args in (
            (iter_priority_inversion_workload, priority_inversion_workload, (4,)),
            (iter_contention_hotspot_workload, contention_hotspot_workload, (30,)),
            (iter_heavy_tailed_incast_workload, heavy_tailed_incast_workload, (3,)),
        ):
            lazy = list(iter_fn(fabric, *args, seed=11))
            eager = list_fn(fabric, *args, seed=11)
            assert lazy == eager

    def test_priority_inversion_shape(self, fabric):
        packets = priority_inversion_workload(
            fabric, 3, light_per_burst=4, heavy_per_burst=2,
            light_weight=(1.0, 1.0), heavy_weight=(100.0, 100.0),
            burst_gap=10, seed=5,
        )
        assert len(packets) == 3 * 6
        for burst in range(3):
            chunk = packets[burst * 6:(burst + 1) * 6]
            light, heavy = chunk[:4], chunk[4:]
            assert {p.destination for p in chunk} == {light[0].destination}
            assert all(p.weight == 1.0 for p in light)
            assert all(p.weight == 100.0 for p in heavy)
            # heavy wave lands exactly one slot after the light wave
            assert {p.arrival for p in heavy} == {light[0].arrival + 1}

    @pytest.mark.parametrize("side,attr", [("transmitter", "source"),
                                           ("receiver", "destination")])
    def test_contention_hotspot_concentrates_traffic(self, fabric, side, attr):
        packets = contention_hotspot_workload(
            fabric, 80, side=side, hot_fraction=0.9, seed=7
        )
        counts: dict = {}
        for p in packets:
            counts[getattr(p, attr)] = counts.get(getattr(p, attr), 0) + 1
        assert max(counts.values()) >= 0.7 * len(packets), (
            f"hotspot on {side} side did not concentrate traffic: {counts}"
        )

    def test_saturated_pairs_concentrates_on_disjoint_pairs(self, fabric):
        packets = saturated_pairs_workload(
            fabric, 80, num_pairs=2, hot_fraction=0.9, seed=7
        )
        lazy = list(
            iter_saturated_pairs_workload(
                fabric, 80, num_pairs=2, hot_fraction=0.9, seed=7
            )
        )
        assert lazy == packets
        counts: dict = {}
        for p in packets:
            pair = (p.source, p.destination)
            counts[pair] = counts.get(pair, 0) + 1
        hot = sorted(counts, key=lambda pair: counts[pair], reverse=True)[:2]
        assert sum(counts[pair] for pair in hot) >= 0.7 * len(packets), (
            f"saturated pairs did not concentrate traffic: {counts}"
        )
        # The hot pairs share no endpoint, so one matching serves them all.
        assert len({node for pair in hot for node in pair}) == 4

    def test_heavy_tailed_incast_targets_one_destination(self, fabric):
        packets = heavy_tailed_incast_workload(
            fabric, 4, senders_per_wave=3, packets_per_sender=2, seed=9
        )
        assert len({p.destination for p in packets}) == 1
        arrivals = sorted({p.arrival for p in packets})
        assert arrivals == [1, 7, 13, 19]  # wave_gap=6 default

    def test_parameter_validation(self, fabric):
        with pytest.raises(Exception, match="burst_gap"):
            priority_inversion_workload(fabric, 2, burst_gap=1)
        with pytest.raises(Exception, match="side"):
            contention_hotspot_workload(fabric, 10, side="diagonal")
        with pytest.raises(Exception, match="hot_fraction"):
            contention_hotspot_workload(fabric, 10, hot_fraction=0.0)
        with pytest.raises(Exception, match="pareto_exponent"):
            heavy_tailed_incast_workload(fabric, 2, pareto_exponent=1.0)
        with pytest.raises(Exception, match="node-disjoint"):
            saturated_pairs_workload(fabric, 10, num_pairs=64)
        with pytest.raises(Exception, match="hot_fraction"):
            saturated_pairs_workload(fabric, 10, num_pairs=2, hot_fraction=0.0)


# ---------------------------------------------------------------------- #
# trace-replay workload kind
# ---------------------------------------------------------------------- #
class TestTraceWorkloadSpec:
    @pytest.fixture
    def fabric(self):
        return projector_fabric(
            num_racks=3, lasers_per_rack=2, photodetectors_per_rack=2, seed=4
        )

    @pytest.fixture
    def recorded(self, fabric, tmp_path):
        packets = uniform_random_workload(
            fabric, num_packets=20, arrival_rate=2.0, seed=11
        )
        path = tmp_path / "trace.jsonl"
        write_packet_trace_jsonl(packets, path)
        return fabric, packets, path

    def test_replays_recorded_packets_exactly(self, recorded):
        fabric, packets, path = recorded
        spec = WorkloadSpec("trace", {"path": str(path)})
        assert spec.build(fabric) == packets
        # The lazy form agrees and ignores the derivation seed (a replay is
        # already a fixed packet sequence).
        assert list(spec.build_iter(fabric, seed=123)) == packets

    def test_csv_traces_replay_too(self, fabric, tmp_path):
        packets = uniform_random_workload(
            fabric, num_packets=10, arrival_rate=1.5, seed=3
        )
        path = tmp_path / "trace.csv"
        write_packet_trace(packets, path)
        assert WorkloadSpec("trace", {"path": str(path)}).build(fabric) == packets

    def test_trace_scenario_runs_end_to_end(self, recorded, tmp_path):
        """A trace-backed scenario is a first-class registry citizen."""
        from repro.baselines import all_policies
        from repro.simulation import simulate

        fabric, packets, path = recorded
        scenario = Scenario(
            name="replayed",
            description="recorded uniform workload, replayed",
            topology=TopologySpec("projector",
                                  {"num_racks": 3, "lasers_per_rack": 2,
                                   "photodetectors_per_rack": 2}),
            workload=WorkloadSpec("trace", {"path": str(path)}),
            policies=("alg", "fifo"),
        )
        rows = ScenarioMatrix(name="replay", scenarios=(scenario,)).run()
        assert [row["policy"] for row in rows] == ["alg", "fifo"]
        # The replayed cell's topology comes from the scenario's own seed
        # derivation, so cross-check against a direct simulation on it.
        topology, replayed, policies = scenario.materialise(0)
        direct = simulate(topology, policies["alg"], list(replayed))
        alg_row = rows[0]
        assert alg_row["total_weighted_latency"] == direct.total_weighted_latency

    def test_trace_spec_validation(self):
        with pytest.raises(ScenarioError, match="requires params"):
            WorkloadSpec("trace")
        with pytest.raises(ScenarioError, match="unknown params"):
            WorkloadSpec("trace", {"path": "x.jsonl", "chunk": 2})
        with pytest.raises(ScenarioError, match="no weight sampler"):
            WorkloadSpec("trace", {"path": "x.jsonl"}, weights=("uniform", 1, 2))

    def test_missing_trace_file_raises_workload_error(self, fabric, tmp_path):
        from repro.exceptions import WorkloadError

        spec = WorkloadSpec("trace", {"path": str(tmp_path / "absent.jsonl")})
        with pytest.raises((WorkloadError, FileNotFoundError)):
            list(spec.build_iter(fabric))

    def test_mismatched_topology_fails_with_clear_diagnostic(self, recorded):
        """Replaying a trace on a topology it wasn't recorded on must raise a
        ScenarioError up front, not an obscure failure inside the engine."""
        _fabric, _packets, path = recorded  # recorded on a 3-rack fabric
        small = projector_fabric(num_racks=2, lasers_per_rack=1,
                                 photodetectors_per_rack=1, seed=0)
        spec = WorkloadSpec("trace", {"path": str(path)})
        with pytest.raises(ScenarioError, match="not routable"):
            list(spec.build_iter(small))


# ---------------------------------------------------------------------- #
# speed-augmentation grid
# ---------------------------------------------------------------------- #
class TestSpeedGrid:
    def test_grid_registered(self):
        names = [s.name for s in grid_matrix("speed").scenarios]
        assert "tiny-random" in names and "tiny-random@s1.5" in names
        assert all(
            get_scenario(n).tags and "speed" in get_scenario(n).tags
            for n in names if "@" in n
        )

    def test_variants_share_cells_via_seed_key(self):
        base = get_scenario("priority-inversion-burst")
        variant = get_scenario("priority-inversion-burst@s2.5")
        assert variant.seed_key == base.name
        base_topo, base_packets, _ = base.materialise(0)
        var_topo, var_packets, _ = variant.materialise(0)
        assert list(base_packets) == list(var_packets)
        assert base_topo.reconfigurable_edges == var_topo.reconfigurable_edges

    def test_alg_cost_weakly_improves_with_speed(self):
        rows = scenario_matrix(
            ["priority-inversion-burst", "priority-inversion-burst@s1.5",
             "priority-inversion-burst@s2.5"],
            name="speed-check",
        ).run()
        costs = {
            row["scenario"]: row["total_weighted_latency"]
            for row in rows if row["policy"] == "alg"
        }
        assert (
            costs["priority-inversion-burst"]
            >= costs["priority-inversion-burst@s1.5"]
            >= costs["priority-inversion-burst@s2.5"]
        ), f"speed augmentation should not hurt ALG: {costs}"
