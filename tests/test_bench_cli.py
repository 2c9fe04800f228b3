"""Tests for the benchmark institution (repro.bench) and the bench CLI.

The history-file migration/corruption rules are pinned in
tests/test_bench_history.py; this file covers the sectioned
runners, the machine/scale comparability logic, the pure regression gate
and the ``bench run|report|check`` subcommands end to end at smoke scale.
"""

from __future__ import annotations

import json

import pytest

from repro import bench
from repro.cli import _BENCH_SECTIONS, main

SMOKE = dict(packets=200, racks=8, seed=15)
SMOKE_ARGS = ["--packets", "200", "--racks", "8", "--seed", "15"]


def _smoke_point(section: str = "dispatch"):
    return bench.run_section(section, **SMOKE)


@pytest.fixture(scope="module")
def dispatch_point():
    return _smoke_point("dispatch")


class TestSections:
    def test_cli_section_literal_matches_bench(self):
        assert _BENCH_SECTIONS == bench.SECTIONS

    @pytest.mark.parametrize("section", bench.SECTIONS)
    def test_every_section_returns_a_valid_point(self, section):
        point = _smoke_point(section)
        assert bench.validate_point(point) == []
        assert point["section"] == section
        assert point["cell"]["num_racks"] == SMOKE["racks"]
        assert point["throughput_pps"] > 0
        assert point["bit_identical"] is True
        json.dumps(point)  # JSON-serialisable as recorded

    def test_unknown_section_rejected(self):
        with pytest.raises(ValueError, match="unknown bench section"):
            bench.run_section("warp-drive")
        with pytest.raises(ValueError):
            bench.bench_path("warp-drive", ".")


class TestComparability:
    def test_machine_key_ignores_python_patch_version(self, dispatch_point):
        other = json.loads(json.dumps(dispatch_point))
        other["machine"]["python"] = "0.0.0"
        assert bench.machine_key(other) == bench.machine_key(dispatch_point)
        other["machine"]["platform"] = "other-box"
        assert bench.machine_key(other) != bench.machine_key(dispatch_point)

    def test_unstamped_point_has_no_key(self):
        assert bench.machine_key({}) is None
        assert bench.machine_key({"machine": {"platform": "x"}}) is None

    def test_scale_and_throughput_of_legacy_dispatch_points(self):
        legacy = {
            "machine": bench.machine_stamp(),
            "cell": {"num_racks": 64},
            "single_run": {"num_packets": 5000, "packets_per_s_indexed": 750.5},
        }
        assert bench.point_scale(legacy) == (64, 5000)
        assert bench.point_throughput(legacy) == 750.5

    def test_validate_point_flags_problems(self, dispatch_point):
        assert bench.validate_point(dispatch_point) == []
        broken = json.loads(json.dumps(dispatch_point))
        broken["schema"] = 99
        broken["throughput_pps"] = -1
        del broken["machine"]
        problems = bench.validate_point(broken)
        assert any("schema" in p for p in problems)
        assert any("machine" in p for p in problems)
        assert any("throughput" in p for p in problems)


class TestCheckHistory:
    def _clone(self, point, **overrides):
        clone = json.loads(json.dumps(point))
        clone.update(overrides)
        return clone

    def test_empty_history_passes(self, dispatch_point):
        ok, message = bench.check_history([], dispatch_point, 0.3)
        assert ok
        assert "no comparable prior" in message

    def test_within_tolerance_passes(self, dispatch_point):
        prior = self._clone(
            dispatch_point, throughput_pps=dispatch_point["throughput_pps"] * 1.2
        )
        ok, message = bench.check_history([prior], dispatch_point, 0.3)
        assert ok
        assert "OK" in message

    def test_regression_fails(self, dispatch_point):
        prior = self._clone(
            dispatch_point, throughput_pps=dispatch_point["throughput_pps"] * 10
        )
        ok, message = bench.check_history([prior], dispatch_point, 0.3)
        assert not ok
        assert "REGRESSION" in message

    def test_other_machine_is_not_comparable(self, dispatch_point):
        prior = self._clone(
            dispatch_point, throughput_pps=dispatch_point["throughput_pps"] * 10
        )
        prior["machine"]["platform"] = "someone-elses-laptop"
        ok, _message = bench.check_history([prior], dispatch_point, 0.3)
        assert ok

    def test_other_scale_is_not_comparable(self, dispatch_point):
        prior = self._clone(
            dispatch_point, throughput_pps=dispatch_point["throughput_pps"] * 10
        )
        prior["cell"]["num_packets"] = 10 * prior["cell"]["num_packets"]
        ok, _message = bench.check_history([prior], dispatch_point, 0.3)
        assert ok

    def test_best_comparable_point_wins(self, dispatch_point):
        slow = self._clone(dispatch_point, throughput_pps=1.0)
        fast = self._clone(
            dispatch_point, throughput_pps=dispatch_point["throughput_pps"] * 10
        )
        ok, _ = bench.check_history([slow], dispatch_point, 0.3)
        assert ok
        ok, _ = bench.check_history([slow, fast], dispatch_point, 0.3)
        assert not ok

    def test_bad_tolerance_rejected(self, dispatch_point):
        with pytest.raises(ValueError, match="tolerance"):
            bench.check_history([], dispatch_point, 1.0)
        with pytest.raises(ValueError):
            bench.check_history([], dispatch_point, -0.1)


class TestHistoryFiles:
    def test_save_load_round_trip(self, tmp_path, dispatch_point):
        path = bench.bench_path("dispatch", tmp_path)
        assert path.name == "BENCH_dispatch.json"
        bench.save_history(path, [dispatch_point], bench.bench_tag("dispatch"))
        assert bench.load_history(path) == [dispatch_point]
        document = json.loads(path.read_text(encoding="utf-8"))
        assert document["benchmark"] == "dispatch-hot-path"

    def test_other_sections_get_their_own_files(self, tmp_path):
        names = {bench.bench_path(s, tmp_path).name for s in bench.SECTIONS}
        assert names == {f"BENCH_{s}.json" for s in bench.SECTIONS}
        assert bench.bench_tag("scheduler") == "scheduler-hot-path"


class TestBenchCli:
    def test_run_appends_history_points(self, tmp_path, capsys):
        args = ["bench", "run", "--section", "dispatch", "--dir", str(tmp_path)]
        assert main(args + SMOKE_ARGS) == 0
        assert main(args + SMOKE_ARGS) == 0
        history = bench.load_history(bench.bench_path("dispatch", tmp_path))
        assert len(history) == 2
        assert all(bench.validate_point(p) == [] for p in history)
        out = capsys.readouterr().out
        assert "2 history points" in out

    def test_run_refuses_corrupt_history(self, tmp_path, capsys):
        path = bench.bench_path("dispatch", tmp_path)
        path.write_text("not json", encoding="utf-8")
        code = main(
            ["bench", "run", "--section", "dispatch", "--dir", str(tmp_path)]
            + SMOKE_ARGS
        )
        assert code == 1
        assert "not valid JSON" in capsys.readouterr().err

    def test_report_renders_new_and_legacy_points(
        self, tmp_path, dispatch_point, capsys
    ):
        legacy = {
            "recorded_at": "2026-01-01T00:00:00+00:00",
            "machine": bench.machine_stamp(),
            "cell": {"num_racks": 64},
            "single_run": {
                "num_packets": 5000,
                "packets_per_s_indexed": 750.5,
                "speedup": 12.0,
            },
        }
        bench.save_history(
            bench.bench_path("dispatch", tmp_path),
            [legacy, dispatch_point],
            bench.bench_tag("dispatch"),
        )
        assert main(["bench", "report", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "dispatch (BENCH_dispatch.json, 2 points)" in out
        assert "750.5 pps" in out       # legacy point rendered
        assert "12.00x" in out
        assert "2026-01-01T00:00:00+00:00" in out
        assert "streaming: no history" in out

    def test_check_passes_on_empty_and_consistent_history(self, tmp_path, capsys):
        args = ["bench", "--dir", str(tmp_path), "--section", "dispatch"]
        assert main(["bench", "check", "--dir", str(tmp_path),
                     "--section", "dispatch"] + SMOKE_ARGS) == 0
        assert "no comparable prior" in capsys.readouterr().out
        # Record a real point, then re-check with a generous tolerance.
        assert main(["bench", "run", "--dir", str(tmp_path),
                     "--section", "dispatch"] + SMOKE_ARGS) == 0
        assert main(["bench", "check", "--dir", str(tmp_path), "--section",
                     "dispatch", "--tolerance", "0.9"] + SMOKE_ARGS) == 0

    def test_check_fails_on_injected_regression(
        self, tmp_path, dispatch_point, capsys
    ):
        # A synthetic prior point from THIS machine at THIS scale claiming
        # impossible throughput: the gate must flag the (real) re-measurement
        # as a regression and exit non-zero.
        impossible = json.loads(json.dumps(dispatch_point))
        impossible["throughput_pps"] = dispatch_point["throughput_pps"] * 1000
        bench.save_history(
            bench.bench_path("dispatch", tmp_path),
            [impossible],
            bench.bench_tag("dispatch"),
        )
        code = main(["bench", "check", "--dir", str(tmp_path),
                     "--section", "dispatch"] + SMOKE_ARGS)
        assert code == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_check_bad_tolerance_rejected(self, tmp_path, capsys):
        code = main(["bench", "check", "--dir", str(tmp_path),
                     "--tolerance", "1.5"])
        assert code == 2
        assert "--tolerance" in capsys.readouterr().err
