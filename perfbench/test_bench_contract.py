"""Tests of the benchmark itself: span arithmetic, metric names, seeding.

Run from the repository root with ``PYTHONPATH=src python -m pytest perfbench``.
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
from bench_layers import Tracer, layer_metrics, traced  # noqa: E402
from bench_workloads import WORKLOADS, DenseD4, SaturatedPairs, ScenarioGrid  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


class TinyDense(DenseD4):
    cells_per_pass = 1
    packets_per_cell = 60
    prefix_packets = 20


class TinySaturated(SaturatedPairs):
    cells_per_pass = 1
    packets_per_cell = 80
    prefix_packets = 30


class TinyGrid(ScenarioGrid):
    replicas = 1
    prefix_cells = 2

    def build(self, seed, tracer=None):
        matrix = super().build(seed, tracer)
        return type(matrix)(name=matrix.name, scenarios=matrix.scenarios[:4])


TINY = [TinyDense(), TinySaturated(), TinyGrid()]


def _units(section):
    return {entry["name"]: entry["unit"] for entry in BENCHMARK[section]}


def test_metric_names_and_units_match_benchmark_json():
    assert run.END_TO_END_UNITS == _units("end_to_end")
    assert run.PER_LAYER_UNITS == _units("per_layer")
    assert sorted(WORKLOADS) == sorted(w["name"] for w in BENCHMARK["workloads"])
    assert all(len(w["why"]) <= 200 for w in BENCHMARK["workloads"])


def test_nested_self_times_sum_to_wall():
    tracer = Tracer()
    opened = []

    def begin(name):
        opened.append(tracer.begin(tracer.name_id(name)))

    def finish():
        tracer.finish(opened.pop())

    begin("runner")
    begin("engine")
    begin("scheduler")
    sum(range(1000))
    finish()
    begin("pool.remove")
    sum(range(1000))
    finish()
    finish()
    begin("network.build")
    finish()
    finish()
    own = tracer.self_times()
    assert all(value >= 0 for value in own)
    assert sum(own) == pytest.approx(tracer.root_wall(), abs=1e-9)
    for index in range(len(tracer)):
        children = [
            tracer.end[i] - tracer.start[i]
            for i in range(len(tracer))
            if tracer.parent[i] == index
        ]
        duration = tracer.end[index] - tracer.start[index]
        assert own[index] + sum(children) == pytest.approx(duration, abs=1e-9)


@pytest.mark.parametrize("workload", TINY, ids=lambda w: w.name)
def test_traced_pass_matches_untraced_and_sums_to_wall(workload):
    cells = workload.build(3)
    plain_rows = run.run_pass(workload.spec(cells))[0]
    tracer = Tracer()
    with traced(tracer):
        traced_rows = run.run_pass(workload.spec(workload.build(3, tracer)))[0]
    assert traced_rows == plain_rows
    assert tracer.stack == []
    assert sum(tracer.self_times()) == pytest.approx(tracer.root_wall(), rel=1e-9)
    metrics = layer_metrics(tracer)
    assert metrics["dispatcher.calls"] > 0 and metrics["scheduler.calls"] > 0
    if any("shared_dispatch" in row for row in plain_rows):
        assert (tracer.memo_hits, tracer.memo_misses) == run.memo_counts(plain_rows)
        assert metrics["dispatcher.memo_lookups"] > 0


def test_wrappers_are_removed_after_tracing():
    from repro.core.queues import PendingChunkPool

    before = PendingChunkPool.__dict__["remove"]
    with traced(Tracer()):
        assert PendingChunkPool.__dict__["remove"] is not before
    assert PendingChunkPool.__dict__["remove"] is before


@pytest.mark.parametrize("workload", TINY[:2], ids=lambda w: w.name)
def test_seed_changes_inputs_not_metric_set(workload, monkeypatch):
    packets = [
        [(p.source, p.destination, p.arrival, p.weight) for p in workload.build(seed)[0]["packets"]]
        for seed in (1, 2)
    ]
    assert packets[0] != packets[1]
    # The output checks are pinned to the full-size workloads; skip them here.
    monkeypatch.setattr(run, "check_outputs", lambda *args: None)
    for measure, units in (
        (run.measure_layers, run.PER_LAYER_UNITS),
        (lambda *args: run.measure_end_to_end(*args, probes=0), run.END_TO_END_UNITS),
    ):
        for seed in (1, 2):
            outcome = run.Outcome()
            metrics, _ = measure(workload, seed, 0.01, outcome)
            assert outcome.failures == []
            assert set(metrics) == set(units)


def test_grid_seed_changes_cells():
    grid = TinyGrid()
    seeds = [{s.seeds for s in grid.build(seed).scenarios} for seed in (1, 2)]
    assert seeds[0] != seeds[1]


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_result_matches_benchmark_json(capsys, trace, section):
    assert run.main(["--workload", "scenario-grid", "--seed", "5", "--seconds", "0.01",
                     "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _units(section)
    stamp = json.loads(lines[0])["machine"]
    assert stamp["nproc"] >= 1 and stamp["python"]
