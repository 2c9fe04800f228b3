"""Tests for the adversarial search driver: determinism, checkpoint/resume,
objectives and the registry bridge."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.exceptions import SearchError
from repro.scenarios import get_scenario, list_scenarios
from repro.search import (
    AdversarialSearch,
    BruteForceRatioObjective,
    EmpiricalRatioObjective,
    SearchConfig,
    adversarial_space,
    hall_of_fame_to_scenarios,
    objective_from_json,
    objective_to_json,
    read_checkpoint,
    resume_search,
    tiny_space,
)

#: One small, fully deterministic budget reused across the tests below.
SMALL = SearchConfig(population_size=5, generations=3, replicate_seeds=(0, 1), seed=3)


@pytest.fixture(scope="module")
def small_run():
    """One serial reference run of the small budget (shared, read-only)."""
    search = AdversarialSearch(adversarial_space(), EmpiricalRatioObjective(), SMALL)
    return search.run()


# ---------------------------------------------------------------------- #
# configuration guards
# ---------------------------------------------------------------------- #
class TestConfigGuards:
    def test_invalid_configs_rejected(self):
        with pytest.raises(SearchError, match="population_size"):
            SearchConfig(population_size=1)
        with pytest.raises(SearchError, match="generations"):
            SearchConfig(generations=0)
        with pytest.raises(SearchError, match="elite"):
            SearchConfig(population_size=4, elite=4)
        with pytest.raises(SearchError, match="tournament"):
            SearchConfig(tournament=0)
        with pytest.raises(SearchError, match="replicate_seeds"):
            SearchConfig(replicate_seeds=())

    def test_objective_json_round_trip(self):
        for objective in (
            EmpiricalRatioObjective(baselines=("fifo", "islip"), retention="full"),
            BruteForceRatioObjective(max_total_chunks=10),
        ):
            assert objective_from_json(objective_to_json(objective)) == objective
        with pytest.raises(SearchError, match="unknown objective"):
            objective_from_json({"kind": "oracle"})


# ---------------------------------------------------------------------- #
# determinism: the satellite seam (spawn-keyed RNG through mutation)
# ---------------------------------------------------------------------- #
class TestDeterminism:
    def test_serial_rerun_is_bit_identical(self, small_run):
        again = AdversarialSearch(
            adversarial_space(), EmpiricalRatioObjective(), SMALL
        ).run()
        assert again.hall_of_fame == small_run.hall_of_fame
        assert again.best_history == small_run.best_history

    def test_jobs_do_not_change_the_archive(self, small_run):
        """--jobs N and --jobs 1 must produce identical hall-of-fame archives."""
        parallel = AdversarialSearch(
            adversarial_space(),
            EmpiricalRatioObjective(),
            dataclasses.replace(SMALL, jobs=4),
        ).run()
        assert parallel.hall_of_fame == small_run.hall_of_fame
        assert parallel.best_history == small_run.best_history

    def test_seed_changes_the_trajectory(self, small_run):
        other = AdversarialSearch(
            adversarial_space(),
            EmpiricalRatioObjective(),
            dataclasses.replace(SMALL, seed=99),
        ).run()
        assert other.hall_of_fame != small_run.hall_of_fame

    def test_archive_ranking_is_total(self, small_run):
        ranks = [(-e.score, -e.mean_ratio, e.key) for e in small_run.hall_of_fame]
        assert ranks == sorted(ranks)
        assert len({e.key for e in small_run.hall_of_fame}) == len(
            small_run.hall_of_fame
        )


# ---------------------------------------------------------------------- #
# checkpoint / resume
# ---------------------------------------------------------------------- #
class TestCheckpointResume:
    def test_round_trip_is_bit_identical(self, small_run, tmp_path):
        """Interrupting after any generation and resuming matches the
        uninterrupted run exactly."""
        checkpoint = tmp_path / "ck.jsonl"
        AdversarialSearch(
            adversarial_space(),
            EmpiricalRatioObjective(),
            dataclasses.replace(SMALL, generations=1),
        ).run(checkpoint_path=checkpoint)
        search, resumed = resume_search(
            checkpoint, generations=SMALL.generations, jobs=2
        )
        assert resumed.hall_of_fame == small_run.hall_of_fame
        assert resumed.best_history == small_run.best_history

    def test_checkpoint_carrying_chunksize_resumes(self, small_run, tmp_path):
        """Checkpoints written while the runner still had a ``chunksize`` knob
        carry it in their meta config; resume drops it and continues
        bit-identically."""
        checkpoint = tmp_path / "ck.jsonl"
        AdversarialSearch(
            adversarial_space(),
            EmpiricalRatioObjective(),
            dataclasses.replace(SMALL, generations=1),
        ).run(checkpoint_path=checkpoint)
        meta, *generations = checkpoint.read_text().splitlines()
        record = json.loads(meta)
        record["config"]["chunksize"] = 4
        checkpoint.write_text(
            "\n".join([json.dumps(record, sort_keys=True), *generations]) + "\n"
        )
        _search, resumed = resume_search(checkpoint, generations=SMALL.generations)
        assert resumed.hall_of_fame == small_run.hall_of_fame
        assert resumed.best_history == small_run.best_history

    def test_resume_does_not_reevaluate_cached_candidates(self, tmp_path):
        checkpoint = tmp_path / "ck.jsonl"
        AdversarialSearch(
            adversarial_space(), EmpiricalRatioObjective(), SMALL
        ).run(checkpoint_path=checkpoint)
        state = read_checkpoint(checkpoint)
        evaluated = sum(len(g["evaluations"]) for g in state["generations"])
        # Resuming with the same budget re-breeds the final generation and
        # scores only candidates never seen before.
        _search, resumed = resume_search(checkpoint)
        assert resumed.evaluations >= evaluated

    def test_checkpoint_is_valid_jsonl_with_meta(self, tmp_path):
        checkpoint = tmp_path / "ck.jsonl"
        AdversarialSearch(
            adversarial_space(),
            EmpiricalRatioObjective(),
            dataclasses.replace(SMALL, generations=2),
        ).run(checkpoint_path=checkpoint)
        lines = [json.loads(line) for line in checkpoint.read_text().splitlines()]
        assert lines[0]["type"] == "meta"
        assert lines[0]["space"] == "adversarial"
        assert [line["generation"] for line in lines[1:]] == [0, 1]

    def test_extended_budget_survives_an_interrupted_resume(self, tmp_path):
        """A resume that extends --generations persists the new target, so a
        later resume continues to it instead of silently stopping short."""
        full = AdversarialSearch(
            adversarial_space(),
            EmpiricalRatioObjective(),
            dataclasses.replace(SMALL, generations=4),
        ).run()

        checkpoint = tmp_path / "ck.jsonl"
        AdversarialSearch(
            adversarial_space(),
            EmpiricalRatioObjective(),
            dataclasses.replace(SMALL, generations=2),
        ).run(checkpoint_path=checkpoint)
        resume_search(checkpoint, generations=4)
        # Simulate the extension being killed right after generation 2 was
        # written: drop the trailing generation-3 record.
        lines = checkpoint.read_text().splitlines()
        assert json.loads(lines[-1])["generation"] == 3
        checkpoint.write_text("\n".join(lines[:-1]) + "\n")
        # A plain resume (no override) must pick up the extended budget from
        # the appended meta record and finish the remaining generation.
        _search, recovered = resume_search(checkpoint)
        assert recovered.generations_run == 4
        assert recovered.hall_of_fame == full.hall_of_fame
        assert recovered.best_history == full.best_history

    def test_failing_objective_leaves_resumable_checkpoint(
        self, small_run, tmp_path, monkeypatch
    ):
        """An objective crashing mid-search must not corrupt the checkpoint.

        The checkpoint handle lives in a context manager, so the crash still
        closes it; every generation written before the failure stays on disk
        as complete JSONL lines, and a plain resume finishes the search
        bit-identically to a run that never crashed.
        """
        checkpoint = tmp_path / "ck.jsonl"
        real_evaluate = AdversarialSearch._evaluate

        def explode(self, generation, population, scores, names):
            if generation >= 1:
                raise RuntimeError("objective crashed mid-search")
            return real_evaluate(self, generation, population, scores, names)

        monkeypatch.setattr(AdversarialSearch, "_evaluate", explode)
        with pytest.raises(RuntimeError, match="objective crashed"):
            AdversarialSearch(
                adversarial_space(), EmpiricalRatioObjective(), SMALL
            ).run(checkpoint_path=checkpoint)
        monkeypatch.undo()

        state = read_checkpoint(checkpoint)
        assert [g["generation"] for g in state["generations"]] == [0]
        _search, recovered = resume_search(checkpoint)
        assert recovered.generations_run == SMALL.generations
        assert recovered.hall_of_fame == small_run.hall_of_fame
        assert recovered.best_history == small_run.best_history

    def test_invalid_jobs_rejected_at_config_time(self):
        with pytest.raises(SearchError, match="jobs"):
            SearchConfig(jobs=0)

    def test_corrupt_and_missing_checkpoints_raise(self, tmp_path):
        with pytest.raises(SearchError, match="does not exist"):
            read_checkpoint(tmp_path / "absent.jsonl")
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        with pytest.raises(SearchError, match="not valid JSON"):
            read_checkpoint(bad)
        meta_only = tmp_path / "meta.jsonl"
        meta_only.write_text(json.dumps({"type": "meta", "space": "adversarial",
                                         "objective": {"kind": "empirical"},
                                         "config": {}}) + "\n")
        with pytest.raises(SearchError, match="no finished generation"):
            AdversarialSearch(
                adversarial_space(), EmpiricalRatioObjective(), SMALL
            ).resume(meta_only)


# ---------------------------------------------------------------------- #
# objectives
# ---------------------------------------------------------------------- #
class TestObjectives:
    def test_empirical_objective_min_filters_replicates(self):
        objective = EmpiricalRatioObjective()
        scenario = dataclasses.replace(
            get_scenario("laser-hotspot"),
            seeds=(0, 1),
            policies=objective.scenario_policies(),
        )
        result = objective.evaluate(scenario)
        assert len(result.ratios) == 2
        assert result.score == min(result.ratios)
        assert result.mean_ratio == pytest.approx(sum(result.ratios) / 2)

    def test_brute_force_objective_scores_tiny_cells(self):
        space = tiny_space()
        objective = BruteForceRatioObjective()
        from repro.utils.rng import as_rng

        scenario = space.build_scenario(
            space.sample(as_rng(5)), seeds=(0,), policies=objective.scenario_policies()
        )
        result = objective.evaluate(scenario)
        # ALG can never beat the offline optimum.
        assert result.score >= 1.0 or result.score == 0.0

    def test_brute_force_objective_filters_oversized_cells(self):
        objective = BruteForceRatioObjective(max_total_chunks=1)
        space = tiny_space()
        from repro.utils.rng import as_rng

        scenario = space.build_scenario(
            space.sample(as_rng(6)), seeds=(0,), policies=("alg",)
        )
        result = objective.evaluate(scenario)
        assert result.score == 0.0  # filtered, not raised

    def test_stagnation_early_stop(self):
        # With a tiny space and an aggressive stagnation limit the search
        # stops before exhausting its generation budget.
        config = SearchConfig(
            population_size=4, generations=12, replicate_seeds=(0,),
            stagnation_limit=2, seed=1,
        )
        result = AdversarialSearch(
            tiny_space(), BruteForceRatioObjective(), config
        ).run()
        assert result.stopped_early
        assert result.generations_run < config.generations


# ---------------------------------------------------------------------- #
# the registry bridge
# ---------------------------------------------------------------------- #
class TestBridge:
    def test_promoted_scenarios_rebuild_the_scored_cells(self, small_run):
        space = adversarial_space()
        scenarios = hall_of_fame_to_scenarios(
            small_run.hall_of_fame, space, seeds=(0, 1, 2), limit=2
        )
        assert len(scenarios) == 2
        assert scenarios[0].name == small_run.hall_of_fame[0].scenario_name
        assert scenarios[0].seeds == (0, 1, 2)
        # Promotion widens seeds/policies but replays the same instances: the
        # content-addressed name pins the topology/workload derivation.
        topology, packets, _ = scenarios[0].materialise(0)
        assert list(packets)

    def test_register_round_trip(self, small_run):
        space = adversarial_space()
        try:
            promoted = hall_of_fame_to_scenarios(
                small_run.hall_of_fame, space, register=True, replace=True, limit=1
            )
            name = promoted[0].name
            assert get_scenario(name) == promoted[0]
            assert any(s.name == name for s in list_scenarios(tag="searched"))
        finally:
            # Keep the global registry clean for other tests.
            from repro.scenarios.library import _REGISTRY

            _REGISTRY.pop(promoted[0].name, None)
