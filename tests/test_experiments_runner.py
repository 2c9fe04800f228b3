"""Tests for the parallel experiment runner (repro.experiments.runner)."""

from __future__ import annotations

import json

import pytest

from repro.exceptions import ExperimentError
from repro.experiments import (
    ExperimentRunner,
    ExperimentSpec,
    ExperimentTask,
    RunnerConfig,
    competitive_ratio_sweep,
    compare_policies_on_suite,
    read_json,
    rows_to_json,
    run_experiment,
    small_lp_instances,
    speedup_sweep,
    write_json,
)


# Module-level task functions so they can be pickled to worker processes.
def _echo_task(task: ExperimentTask) -> dict:
    return {"index": task.index, "x": task.params["x"], "seed": task.seed}


def _multi_row_task(task: ExperimentTask) -> list:
    return [{"index": task.index, "copy": i} for i in range(task.params["copies"])]


def _failing_task(task: ExperimentTask) -> dict:
    raise RuntimeError("boom")


def _rejecting_task(task: ExperimentTask) -> dict:
    raise ValueError(f"instance of {len(task.params['instance'])} packets rejected")


def _make_spec(n: int = 4, seed: int = 11) -> ExperimentSpec:
    return ExperimentSpec(
        name="echo", task_fn=_echo_task, grid=[{"x": i * 10} for i in range(n)], seed=seed
    )


class TestSpec:
    def test_tasks_are_indexed_in_grid_order(self):
        tasks = _make_spec(3).tasks()
        assert [t.index for t in tasks] == [0, 1, 2]
        assert [t.params["x"] for t in tasks] == [0, 10, 20]

    def test_task_seeds_deterministic_and_distinct(self):
        first, second = _make_spec().tasks(), _make_spec().tasks()
        assert [t.seed for t in first] == [t.seed for t in second]
        assert len({t.seed for t in first}) == len(first)

    def test_task_seeds_namespaced_by_spec_name(self):
        a = ExperimentSpec(name="a", task_fn=_echo_task, grid=[{"x": 0}], seed=1)
        b = ExperimentSpec(name="b", task_fn=_echo_task, grid=[{"x": 0}], seed=1)
        assert a.tasks()[0].seed != b.tasks()[0].seed


class TestRunner:
    def test_serial_rows_in_grid_order(self):
        rows = run_experiment(_make_spec(5))
        assert [row["index"] for row in rows] == list(range(5))

    def test_parallel_rows_identical_to_serial(self):
        spec = _make_spec(6)
        assert run_experiment(spec, jobs=1) == run_experiment(spec, jobs=3)

    def test_list_outputs_are_flattened_in_order(self):
        spec = ExperimentSpec(
            name="multi", task_fn=_multi_row_task, grid=[{"copies": 2}, {"copies": 3}]
        )
        rows = run_experiment(spec)
        assert [(r["index"], r["copy"]) for r in rows] == [
            (0, 0), (0, 1), (1, 0), (1, 1), (1, 2),
        ]

    def test_task_failure_reports_grid_context(self):
        spec = ExperimentSpec(name="bad", task_fn=_failing_task, grid=[{"x": 42}])
        with pytest.raises(ExperimentError, match=r"experiment 'bad'.*'x': 42"):
            run_experiment(spec)

    def test_failure_message_bounds_large_params(self):
        instance = [{"packet": pid, "weight": 1.5, "path": "s0->d1"} for pid in range(5000)]
        spec = ExperimentSpec(
            name="big", task_fn=_rejecting_task, grid=[{"instance": instance, "label": "cell-7"}]
        )
        with pytest.raises(ExperimentError) as info:
            run_experiment(spec)
        message = str(info.value)
        assert len(message) < 400, len(message)
        assert message.startswith("task 0 of experiment 'big' failed")
        assert "'label': 'cell-7'" in message
        assert message.endswith("ValueError: instance of 5000 packets rejected")
        assert isinstance(info.value.__cause__, ValueError)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            RunnerConfig(jobs=0)

    def test_runner_writes_json(self, tmp_path):
        spec = _make_spec(2)
        path = tmp_path / "rows.json"
        rows = ExperimentRunner(RunnerConfig(jobs=2)).run(spec, output_path=path)
        document = json.loads(path.read_text())
        assert document["experiment"] == "echo"
        assert document["grid_size"] == 2
        assert document["rows"] == rows


class TestJson:
    def test_round_trip(self, tmp_path):
        rows = [{"a": 1, "b": 2.5}, {"a": 3, "b": 4.5}]
        path = write_json(rows, tmp_path / "out.json")
        assert read_json(path) == rows

    def test_rejects_non_row_objects(self):
        with pytest.raises(ExperimentError):
            rows_to_json([object()])

    def test_rejects_non_runner_files(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ExperimentError):
            read_json(path)


class TestSweepDeterminism:
    """Serial and parallel sweep executions must produce identical rows."""

    @pytest.fixture(scope="class")
    def lp_instances(self):
        return small_lp_instances(num_instances=2, num_packets=8, seed=4)

    def test_competitive_ratio_sweep_jobs_invariant(self, lp_instances):
        serial = competitive_ratio_sweep(lp_instances, epsilons=(1.0, 2.0), use_lp=False)
        parallel = competitive_ratio_sweep(
            lp_instances, epsilons=(1.0, 2.0), use_lp=False, jobs=2
        )
        assert serial == parallel

    def test_speedup_sweep_jobs_invariant(self, lp_instances):
        instance = next(iter(lp_instances.values()))
        serial = speedup_sweep(instance, speeds=(1.0, 2.0, 3.0))
        parallel = speedup_sweep(instance, speeds=(1.0, 2.0, 3.0), jobs=2)
        assert serial == parallel

    def test_comparison_suite_jobs_invariant(self, lp_instances):
        from repro.core import OpportunisticLinkScheduler
        from repro.baselines import standard_baselines

        policies = {"alg": OpportunisticLinkScheduler(), **standard_baselines(seed=0)}
        serial = compare_policies_on_suite(lp_instances, policies)
        parallel = compare_policies_on_suite(lp_instances, policies, jobs=2)
        assert serial == parallel
