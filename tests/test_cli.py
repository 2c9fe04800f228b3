"""Tests for the command-line interface (repro.cli)."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main
from repro.experiments import read_json, read_jsonl
from repro.network import projector_fabric
from repro.workloads import (
    uniform_random_workload,
    write_packet_trace,
    write_packet_trace_jsonl,
)


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_compare_defaults(self):
        args = build_parser().parse_args(["compare"])
        assert args.racks == 6 and args.workload == "zipf"

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compare", "--workload", "nope"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--racks", "0"],
            ["simulate", "--racks", "1"],
            ["simulate", "--packets", "0"],
            ["simulate", "--speed", "0"],
            ["simulate", "--speed", "nan"],
            ["compare", "--packets", "-5"],
            ["compare", "--racks", "x"],
            ["competitive", "--packets", "0"],
            ["competitive", "--instances", "0"],
            ["sweep", "--experiment", "hybrid", "--racks", "0"],
            ["sweep", "--lp-packets", "0"],
            ["bench", "run", "--workload", "dense-d4", "--seed", "1", "--seconds", "0"],
        ],
        ids=" ".join,
    )
    def test_bad_sizes_exit_2_with_an_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error: argument --" in err and "expected" in err


class TestFiguresCommand:
    def test_reproduces_paper_numbers(self, capsys):
        assert main(["figures"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out and "Figure 2" in out
        assert "p4" in out  # Π′ rows present


class TestCompareCommand:
    def test_small_comparison_runs(self, capsys):
        code = main(["compare", "--racks", "4", "--packets", "30", "--workload", "uniform", "--seed", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "alg" in out and "fifo" in out
        assert "ratio_to_alg" in out

    def test_ablations_included_when_requested(self, capsys):
        main(["compare", "--racks", "4", "--packets", "20", "--ablations", "--seed", "3"])
        out = capsys.readouterr().out
        assert "impact+fifo" in out


class TestCompetitiveCommand:
    def test_within_bound_exit_code(self, capsys):
        code = main(
            ["competitive", "--epsilon", "1.0", "--packets", "6", "--instances", "1", "--no-lp"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "ratio" in out and "True" in out

    def test_invalid_epsilon(self, capsys):
        assert main(["competitive", "--epsilon", "0"]) == 2


class TestSimulateCommand:
    def test_missing_input_is_an_error(self, tmp_path, capsys):
        missing = tmp_path / "absent.csv"
        assert main(["simulate", "--input", str(missing)]) == 2
        assert f"error: --input {missing} is not a file" in capsys.readouterr().err

    def test_generated_workload(self, capsys):
        code = main(
            ["simulate", "--racks", "4", "--packets", "20", "--policy", "alg", "--seed", "5"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "all delivered" in out and "True" in out

    def test_trace_flag_prints_slots(self, capsys):
        main(["simulate", "--racks", "4", "--packets", "10", "--trace", "--seed", "5"])
        out = capsys.readouterr().out
        assert "slot 1" in out

    def test_unknown_policy(self):
        assert main(["simulate", "--policy", "bogus"]) == 2

    def test_replay_trace_file(self, tmp_path, capsys):
        topo = projector_fabric(num_racks=4, lasers_per_rack=2, photodetectors_per_rack=2, seed=7)
        packets = uniform_random_workload(topo, 15, seed=8)
        path = write_packet_trace(packets, tmp_path / "trace.csv")
        code = main(["simulate", "--racks", "4", "--seed", "7", "--input", str(path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "15" in out

    def test_baseline_policy_runs(self, capsys):
        code = main(
            ["simulate", "--racks", "4", "--packets", "15", "--policy", "maxweight", "--seed", "5"]
        )
        assert code == 0

    def test_aggregate_retention_matches_full_total(self, capsys):
        argv = ["simulate", "--racks", "4", "--packets", "40", "--seed", "5"]
        assert main(argv) == 0
        full = capsys.readouterr().out
        assert main(argv + ["--retention", "aggregate"]) == 0
        aggregate = capsys.readouterr().out

        def total(out):
            for line in out.splitlines():
                if "total weighted latency" in line:
                    return line.split()[-2]
            raise AssertionError(f"no total in {out!r}")

        assert total(full) == total(aggregate)

    def test_replay_jsonl_trace_streaming(self, tmp_path, capsys):
        topo = projector_fabric(num_racks=4, lasers_per_rack=2, photodetectors_per_rack=2, seed=7)
        packets = uniform_random_workload(topo, 12, seed=8)
        path = write_packet_trace_jsonl(packets, tmp_path / "trace.jsonl")
        code = main(
            ["simulate", "--racks", "4", "--seed", "7", "--input", str(path),
             "--retention", "aggregate"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "12" in out

    def test_trace_jsonl_streams_slots_to_disk(self, tmp_path, capsys):
        path = tmp_path / "slots.jsonl"
        code = main(
            ["simulate", "--racks", "4", "--packets", "10", "--seed", "5",
             "--trace-jsonl", str(path)]
        )
        assert code == 0
        assert path.exists() and path.stat().st_size > 0
        assert "wrote slot trace" in capsys.readouterr().out


class TestSweepCommand:
    def test_single_sweep_runs(self, capsys):
        code = main(
            ["sweep", "--experiment", "tiers", "--racks", "4", "--packets", "30", "--seed", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "sweep: tiers" in out and "lasers_per_rack" in out

    def test_jobs_flag_does_not_change_rows(self, capsys):
        argv = ["sweep", "--experiment", "speedup", "--lp-packets", "6", "--seed", "3"]
        assert main(argv) == 0
        serial = capsys.readouterr().out
        assert main(argv + ["--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        assert serial.replace("jobs=1", "") == parallel.replace("jobs=2", "")

    def test_output_writes_json(self, tmp_path, capsys):
        path = tmp_path / "rows.json"
        code = main(
            [
                "sweep", "--experiment", "hybrid", "--racks", "4", "--packets", "30",
                "--seed", "3", "--jobs", "2", "--output", str(path),
            ]
        )
        assert code == 0
        rows = read_json(path)
        assert rows and all(row["experiment"] == "hybrid" for row in rows)
        assert "wrote" in capsys.readouterr().out

    def test_output_writes_jsonl(self, tmp_path, capsys):
        path = tmp_path / "rows.jsonl"
        code = main(
            [
                "sweep", "--experiment", "tiers", "--racks", "4", "--packets", "30",
                "--seed", "3", "--retention", "aggregate", "--output", str(path),
            ]
        )
        assert code == 0
        rows = read_jsonl(path)
        assert rows and all(row["experiment"] == "tiers" for row in rows)

    def test_retention_does_not_change_rows(self, capsys):
        argv = ["sweep", "--experiment", "tiers", "--racks", "4", "--packets", "30", "--seed", "3"]
        assert main(argv) == 0
        full = capsys.readouterr().out
        assert main(argv + ["--retention", "aggregate"]) == 0
        aggregate = capsys.readouterr().out
        assert full == aggregate

    def test_invalid_jobs(self):
        assert main(["sweep", "--experiment", "tiers", "--jobs", "0"]) == 2

    def test_invalid_chunksize(self):
        assert main(["sweep", "--experiment", "tiers", "--chunksize", "0"]) == 2

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--experiment", "nope"])


class TestScenariosCommand:
    def test_list_shows_registry(self, capsys):
        assert main(["scenarios", "list"]) == 0
        out = capsys.readouterr().out
        assert "figure1" in out and "priority-inversion-burst" in out

    def test_list_tag_filter(self, capsys):
        assert main(["scenarios", "list", "--tag", "adversarial"]) == 0
        out = capsys.readouterr().out
        assert "laser-hotspot" in out and "zipf-projector" not in out

    def test_list_grid_filter(self, capsys):
        assert main(["scenarios", "list", "--grid", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "tiny-random" in out and "heavy-tailed-incast" not in out

    def test_list_unknown_grid(self, capsys):
        assert main(["scenarios", "list", "--grid", "nope"]) == 2

    def test_run_smoke_grid(self, capsys):
        assert main(["scenarios", "run", "--grid", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "scenario grid: smoke" in out and "priority-inversion-burst" in out

    def test_run_modes_and_jobs_agree(self, capsys):
        assert main(["scenarios", "run", "--scenario", "tiny-random"]) == 0
        shared = capsys.readouterr().out.splitlines()[1:]  # drop the title line
        assert main(["scenarios", "run", "--scenario", "tiny-random",
                     "--mode", "per-policy", "--jobs", "2"]) == 0
        per_policy = capsys.readouterr().out.splitlines()[1:]
        assert shared == per_policy

    def test_run_engines_agree(self, capsys):
        """--engine reference and --engine indexed print identical rows."""
        assert main(["scenarios", "run", "--scenario", "tiny-random",
                     "--engine", "reference"]) == 0
        reference = capsys.readouterr().out.splitlines()[1:]
        assert main(["scenarios", "run", "--scenario", "tiny-random",
                     "--engine", "indexed"]) == 0
        indexed = capsys.readouterr().out.splitlines()[1:]
        assert reference == indexed

    def test_run_writes_output(self, tmp_path, capsys):
        path = tmp_path / "rows.jsonl"
        assert main(["scenarios", "run", "--scenario", "figure1",
                     "--output", str(path)]) == 0
        rows = read_jsonl(path)
        assert {row["policy"] for row in rows} == {"alg", "fifo"}

    def test_run_rejects_grid_and_scenario_together(self, capsys):
        assert main(["scenarios", "run", "--grid", "smoke",
                     "--scenario", "figure1"]) == 2

    def test_run_unknown_scenario(self, capsys):
        assert main(["scenarios", "run", "--scenario", "nope"]) == 2

    def test_run_missing_output_dir(self, capsys):
        assert main(["scenarios", "run", "--scenario", "figure1",
                     "--output", "/no/such/dir/rows.json"]) == 2
