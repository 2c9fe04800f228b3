"""Tests for the benchmark trajectory (repro.bench) and the bench CLI.

The history-file migration/corruption rules are pinned in
tests/test_bench_history.py.  This file drives ``bench run`` against a fake
``perfbench/run.py`` that prints scripted output, so every outcome of a run
(correct, failing, unreadable, crashed) is exercised in milliseconds, and
renders ``bench report`` over new and legacy points.
"""

from __future__ import annotations

import json

import pytest

from repro import bench
from repro.cli import main

MACHINE = {"nproc": 2, "python": "3.11.7", "implementation": "CPython",
           "platform": "Linux-test"}
RUN_ARGS = ["--workload", "dense-d4", "--seed", "16", "--seconds", "0.5"]


def _metrics(**values):
    return {name: {"value": value, "unit": "s"} for name, value in values.items()}


END_TO_END = _metrics(packets_per_s=20000.0, setup_s=0.6)
PER_LAYER = _metrics(**{"scheduler.busy_s": 0.25, "engine.self_s": 0.5,
                        "trace.wall_s": 1.0})


def _output(metrics, correct=True, failures=()):
    """perfbench's stdout: header line, table, FAILED lines, result line."""
    header = {"machine": MACHINE, "workload": "dense-d4", "seed": 16, "samples": {}}
    result = {"correct": correct, "attempted": 6, "failed": len(failures),
              "metrics": metrics}
    lines = [json.dumps(header), "table row ..."]
    lines += [f"FAILED {failure}" for failure in failures]
    lines.append(json.dumps(result))
    return "\n".join(lines) + "\n"


@pytest.fixture
def fake_perfbench(tmp_path, monkeypatch):
    """Point repro.bench at a fake run.py printing ``outputs[trace]``.

    The fake appends its argv to ``calls.jsonl`` so tests can see how (and
    whether) it was invoked.
    """
    log = tmp_path / "calls.jsonl"

    def install(outputs, exit_code=0):
        script = tmp_path / "run.py"
        script.write_text(
            "import json, sys\n"
            f"with open({str(log)!r}, 'a') as handle:\n"
            "    handle.write(json.dumps(sys.argv[1:]) + '\\n')\n"
            f"outputs = {outputs!r}\n"
            "sys.stdout.write(outputs[sys.argv[sys.argv.index('--trace') + 1]])\n"
            "sys.stderr.write('fake stderr\\n')\n"
            f"sys.exit({exit_code})\n",
            encoding="utf-8",
        )
        monkeypatch.setattr(bench, "PERFBENCH", script)
        return log

    return install


def _correct_outputs():
    return {"0": _output(END_TO_END), "1": _output(PER_LAYER)}


class TestHistoryFiles:
    def test_save_load_round_trip(self, tmp_path):
        point = {"recorded_at": "2026-01-01T00:00:00+00:00", "workload": "dense-d4",
                 "end_to_end": END_TO_END, "per_layer": PER_LAYER}
        path = bench.bench_path("dense-d4", tmp_path)
        assert path.name == "BENCH_dense-d4.json"
        bench.save_history(path, [point], "dense-d4")
        assert bench.load_history(path) == [point]
        document = json.loads(path.read_text(encoding="utf-8"))
        assert document["benchmark"] == "dense-d4"

    def test_other_workloads_get_their_own_files(self, tmp_path):
        names = {
            bench.bench_path(w, tmp_path).name
            for w in ("dense-d4", "saturated-pairs", "scenario-grid")
        }
        assert names == {
            "BENCH_dense-d4.json", "BENCH_saturated-pairs.json",
            "BENCH_scenario-grid.json",
        }


class TestBenchCli:
    def test_run_appends_history_points(self, tmp_path, fake_perfbench, capsys):
        log = fake_perfbench(_correct_outputs())
        args = ["bench", "run", *RUN_ARGS, "--dir", str(tmp_path)]
        assert main(args) == 0
        assert main(args) == 0
        history = bench.load_history(bench.bench_path("dense-d4", tmp_path))
        assert len(history) == 2
        point = history[-1]
        assert point["machine"] == MACHINE
        assert (point["workload"], point["seed"], point["seconds"]) == ("dense-d4", 16, 0.5)
        assert point["end_to_end"] == END_TO_END
        assert point["per_layer"] == PER_LAYER
        assert point["correct"] is True and point["failed"] == 0
        assert isinstance(point["recorded_at"], str)
        out = capsys.readouterr().out
        assert "20000.0 packets/s" in out
        assert "2 history points" in out
        calls = [json.loads(line) for line in log.read_text().splitlines()]
        assert [call[-1] for call in calls] == ["0", "1", "0", "1"]
        assert calls[0][:-2] == RUN_ARGS

    def test_incorrect_run_appends_nothing(self, tmp_path, fake_perfbench, capsys):
        fake_perfbench({
            "0": _output(END_TO_END),
            "1": _output(PER_LAYER, correct=False, failures=["pins: digest mismatch"]),
        })
        assert main(["bench", "run", *RUN_ARGS, "--dir", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert "FAILED pins: digest mismatch" in captured.out
        assert "nothing appended" in captured.err
        assert not bench.bench_path("dense-d4", tmp_path).exists()

    def test_unparsable_output_is_an_error(self, tmp_path, fake_perfbench, capsys):
        fake_perfbench({"0": "no json here\n", "1": "nor here\n"})
        assert main(["bench", "run", *RUN_ARGS, "--dir", str(tmp_path)]) == 1
        assert "no machine stamp and result line" in capsys.readouterr().err
        assert not bench.bench_path("dense-d4", tmp_path).exists()

    def test_crashed_perfbench_is_an_error(self, tmp_path, fake_perfbench, capsys):
        fake_perfbench(_correct_outputs(), exit_code=2)
        assert main(["bench", "run", *RUN_ARGS, "--dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "exited 2" in err and "fake stderr" in err
        assert not bench.bench_path("dense-d4", tmp_path).exists()

    def test_unknown_workload_rejected(self, tmp_path, capsys):
        # The real perfbench: it refuses the name before running anything.
        argv = ["bench", "run", "--workload", "warp-drive", "--seed", "1",
                "--seconds", "1", "--dir", str(tmp_path)]
        assert main(argv) == 1
        assert "unknown workload 'warp-drive'" in capsys.readouterr().err
        assert not bench.bench_path("warp-drive", tmp_path).exists()

    def test_missing_perfbench_is_a_usage_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(bench, "PERFBENCH", tmp_path / "absent" / "run.py")
        assert main(["bench", "run", *RUN_ARGS, "--dir", str(tmp_path)]) == 2
        assert "error: no benchmark script" in capsys.readouterr().err

    def test_run_refuses_corrupt_history(self, tmp_path, fake_perfbench, capsys):
        log = fake_perfbench(_correct_outputs())
        path = bench.bench_path("dense-d4", tmp_path)
        path.write_text("not json", encoding="utf-8")
        assert main(["bench", "run", *RUN_ARGS, "--dir", str(tmp_path)]) == 1
        assert "not valid JSON" in capsys.readouterr().err
        assert path.read_text(encoding="utf-8") == "not json"
        assert not log.exists()  # refused before perfbench ran

    def test_report_renders_new_and_legacy_points(self, tmp_path, fake_perfbench, capsys):
        fake_perfbench(_correct_outputs())
        assert main(["bench", "run", *RUN_ARGS, "--dir", str(tmp_path)]) == 0
        legacy = {
            "recorded_at": "2026-01-01T00:00:00+00:00",
            "cell": {"num_racks": 64},
            "single_run": {
                "num_packets": 5000,
                "packets_per_s_indexed": 750.5,
                "speedup": 12.0,
            },
        }
        bench.save_history(
            bench.bench_path("dispatch", tmp_path), [legacy], "dispatch-hot-path"
        )
        capsys.readouterr()
        assert main(["bench", "report", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "dense-d4 (BENCH_dense-d4.json, 1 points)" in out
        assert "20000.0 packets/s" in out
        assert "scheduler.busy_s 25.0%, engine.self_s 50.0%" in out
        assert "dispatch (BENCH_dispatch.json, 1 points)" in out
        assert "750.5 packets/s" in out      # legacy point rendered
        assert "speedup 12.0x" in out
        assert "2026-01-01T00:00:00+00:00" in out

    def test_report_renders_the_committed_legacy_history(self, tmp_path, capsys):
        committed = bench.PERFBENCH.parents[1] / "BENCH_dispatch.json"
        (tmp_path / committed.name).write_bytes(committed.read_bytes())
        assert main(["bench", "report", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "dispatch (BENCH_dispatch.json, 3 points)" in out
        assert out.count("legacy section point: 5000 packets") == 3
        assert "4997.1 packets/s" in out

    def test_report_flags_unreadable_history(self, tmp_path, capsys):
        (tmp_path / "BENCH_dense-d4.json").write_text("[1, 2]", encoding="utf-8")
        assert main(["bench", "report", "--dir", str(tmp_path)]) == 0
        assert "dense-d4: UNREADABLE" in capsys.readouterr().out

    def test_report_of_empty_directory(self, tmp_path, capsys):
        assert main(["bench", "report", "--dir", str(tmp_path)]) == 0
        assert "no BENCH_*.json history" in capsys.readouterr().out
