"""Command-line interface for the reproduction.

The CLI wraps the most common entry points so results can be regenerated
without writing Python:

``python -m repro.cli figures``
    Reproduce the paper's worked examples (Figure 1 costs, Figure 2 impacts).

``python -m repro.cli compare --racks 6 --packets 150 --workload zipf``
    Run ALG and the baseline policies on one generated workload and print the
    comparison table.

``python -m repro.cli competitive --epsilon 1.0 --packets 10``
    Measure the empirical competitive ratio against the LP lower bound and
    check the Theorem 1 bound.

``python -m repro.cli simulate --racks 4 --packets 60 --policy alg --trace``
    Run a single policy on a generated workload and print metrics (optionally
    the slot-by-slot trace), or replay a CSV/JSONL packet trace with
    ``--input``.  ``--retention aggregate`` streams the workload through the
    engine with O(in-flight) memory — the mode for very large packet counts —
    and ``--trace-jsonl PATH`` streams the slot-by-slot trace to disk instead
    of holding it in RAM.

``python -m repro.cli sweep --experiment speedup --jobs 4 --output rows.json``
    Run one of the paper's parameter sweeps (E5, E6, E8, E9, E10) through the
    parallel experiment runner, fanning grid points out over ``--jobs`` worker
    processes, and optionally persist the rows as JSON (or, with a
    ``.jsonl`` output path, as streamed JSON Lines).  ``--retention
    aggregate`` bounds each simulation's memory.

``python -m repro.cli scenarios list --tag adversarial``
    Show the declarative scenario registry (name, tags, recipe, policies).

``python -m repro.cli scenarios run --grid smoke --jobs 4``
    Expand a named grid (or ``--scenario NAME...``) of the scenario matrix
    and run every (scenario, seed) cell as one task that evaluates all of
    its policies in a single engine pass over a shared arrival stream
    (``SimulationEngine.run_multi``), so a P-policy cell generates its
    workload once instead of P times.  Rows are identical for any
    ``--jobs`` and ``--retention``.

``python -m repro.cli search run --budget smoke --jobs 4``
    Hunt ALG's empirical worst cases: a deterministic evolutionary search
    over a scenario parameter space (``repro.search``), maximising ALG's
    cost ratio against the best baseline (``--objective empirical``) or the
    exact brute-force optimum on tiny cells (``--objective brute-force``).
    Candidates are evaluated in parallel over ``--jobs`` workers; the
    hall-of-fame archive is bit-identical for any ``--jobs`` value and
    across ``--checkpoint``/``resume``.  ``search list`` shows the named
    spaces, objectives and budgets; ``search report`` pretty-prints a
    checkpoint; ``search resume`` continues one (optionally with
    ``--generations`` extended).

``python -m repro.cli bench run --workload dense-d4 --seed 16 --seconds 25``
    Run the repository's benchmark, ``perfbench/run.py``, on one of its
    workloads, untraced and traced, and append the two result lines as one
    machine-stamped point to ``BENCH_<workload>.json``.  Nothing is appended
    (exit 1) unless both runs report ``"correct": true`` and no failures.
    ``bench report`` renders every recorded trajectory: packets/s per point
    and each layer's share of the traced wall time.

Every generating subcommand accepts ``--seed`` and prints deterministic
output for a fixed seed (``scenarios`` takes its seeds from the registry's
declarative cells instead); sweep and scenario output is identical for any
``--jobs`` value.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Sequence

from repro.analysis import compute_charges, evaluate_competitive_ratio
from repro.baselines import ablation_policies, all_policies, brute_force_optimal, standard_baselines
from repro.core import OpportunisticLinkScheduler
from repro.core.interfaces import Policy
from repro.experiments import (
    compare_policies_on_instance,
    competitive_ratio_sweep,
    delay_heterogeneity_sweep,
    format_comparison_table,
    hybrid_fixed_link_sweep,
    rows_to_table,
    small_lp_instances,
    speedup_sweep,
    standard_projector_instances,
    standard_projector_workload,
    two_tier_sweep,
    write_json,
    write_jsonl,
)
from repro.network import projector_fabric
from repro.simulation import (
    ENGINE_MODES,
    completion_time_statistics,
    latency_statistics,
    simulate,
)
from repro.utils.tables import format_table
from repro.workloads import (
    Instance,
    figure1_instance,
    figure1_reported_costs,
    figure2_instances,
    figure2_reported_impacts,
    iter_packet_trace,
    iter_packet_trace_jsonl,
    read_packet_trace,
    read_packet_trace_jsonl,
)

__all__ = ["main", "build_parser"]

_WORKLOADS = ("uniform", "zipf", "elephant-mice", "hotspot", "bursty", "incast")
_SWEEPS = ("competitive", "speedup", "delays", "hybrid", "tiers")
#: Mirrors repro.search.BUDGETS (kept literal so building the parser does not
#: import the search subsystem; a regression test pins the two in sync).
_SEARCH_BUDGETS = ("smoke", "default", "full")
#: Default directory of the BENCH_<workload>.json history files: the repo root.
_BENCH_DIR = Path(__file__).resolve().parents[2]


def _positive(number: Callable[[str], Any], minimum: Any = 0) -> Callable[[str], Any]:
    """An argparse type: a finite ``number`` above zero and at least ``minimum``.

    Bad sizes are refused while parsing (``error: …``, exit 2) instead of
    failing with a traceback deep inside a run.
    """

    def parse(text: str) -> Any:
        try:
            value = number(text)
        except ValueError:
            value = math.nan
        if not (0 < value < math.inf and value >= minimum):
            kind = "an integer" if number is int else "a number"
            bound = f">= {minimum}" if minimum else "> 0"
            raise argparse.ArgumentTypeError(f"expected {kind} {bound}, got {text!r}")
        return value

    return parse


_RACKS = _positive(int, minimum=2)  # projector fabrics need two racks
_COUNT = _positive(int)
_POSITIVE_FLOAT = _positive(float)


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Scheduling Opportunistic Links in Two-Tiered "
        "Reconfigurable Datacenters' (SPAA 2021)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    figures = sub.add_parser("figures", help="reproduce the paper's worked examples")
    figures.set_defaults(func=cmd_figures)

    compare = sub.add_parser("compare", help="compare ALG against the baseline policies")
    compare.add_argument("--racks", type=_RACKS, default=6, help="number of racks")
    compare.add_argument("--packets", type=_COUNT, default=150, help="number of packets")
    compare.add_argument("--workload", choices=_WORKLOADS, default="zipf")
    compare.add_argument("--seed", type=int, default=2021)
    compare.add_argument("--ablations", action="store_true", help="include ablation policies")
    compare.set_defaults(func=cmd_compare)

    competitive = sub.add_parser(
        "competitive", help="measure the empirical competitive ratio (Theorem 1)"
    )
    competitive.add_argument("--epsilon", type=float, default=1.0)
    competitive.add_argument("--packets", type=_COUNT, default=10)
    competitive.add_argument("--instances", type=_COUNT, default=2)
    competitive.add_argument("--seed", type=int, default=19)
    competitive.add_argument(
        "--no-lp", action="store_true", help="use only the dual lower bound (faster)"
    )
    competitive.set_defaults(func=cmd_competitive)

    sim = sub.add_parser("simulate", help="run one policy on one workload")
    sim.add_argument("--racks", type=_RACKS, default=4)
    sim.add_argument("--packets", type=_COUNT, default=60)
    sim.add_argument("--workload", choices=_WORKLOADS, default="zipf")
    sim.add_argument("--policy", default="alg", help="policy name (see repro.baselines.all_policies)")
    sim.add_argument("--speed", type=_POSITIVE_FLOAT, default=1.0)
    sim.add_argument("--seed", type=int, default=7)
    sim.add_argument("--trace", action="store_true", help="print the slot-by-slot trace")
    sim.add_argument(
        "--input", default=None,
        help="replay a packet trace (.csv or .jsonl) instead of generating one",
    )
    sim.add_argument(
        "--retention", choices=("full", "aggregate"), default="full",
        help="'aggregate' streams packets through the engine with O(in-flight) "
        "memory (summary numbers are identical; per-packet stats unavailable)",
    )
    sim.add_argument(
        "--trace-jsonl", default=None, metavar="PATH",
        help="stream the slot-by-slot trace to PATH as JSON Lines (O(1) memory)",
    )
    sim.set_defaults(func=cmd_simulate)

    sweep = sub.add_parser(
        "sweep", help="run a parameter sweep through the parallel experiment runner"
    )
    sweep.add_argument(
        "--experiment",
        choices=_SWEEPS + ("all",),
        default="all",
        help="which sweep to run (E5 competitive, E6 speedup, E8 delays, E9 hybrid, E10 tiers)",
    )
    sweep.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for the grid (1 = serial; rows are identical either way)",
    )
    sweep.add_argument(
        "--racks", type=_RACKS, default=4, help="fabric size for the E9/E10 sweeps"
    )
    sweep.add_argument(
        "--packets", type=_COUNT, default=60, help="packets per instance (E8/E9/E10 sweeps)"
    )
    sweep.add_argument(
        "--lp-packets", type=_COUNT, default=8,
        help="packets per LP-sized instance (E5/E6 sweeps; the exact LP limits size)",
    )
    sweep.add_argument("--seed", type=int, default=2021)
    sweep.add_argument(
        "--output", default=None,
        help="also write the rows to this path (.json document or streamed .jsonl)",
    )
    sweep.add_argument(
        "--retention", choices=("full", "aggregate"), default="full",
        help="simulation retention mode for the E8/E9/E10 sweeps "
        "('aggregate' bounds per-run memory; rows are identical)",
    )
    sweep.set_defaults(func=cmd_sweep)

    scenarios = sub.add_parser(
        "scenarios", help="list or run the declarative scenario matrix"
    )
    scen_sub = scenarios.add_subparsers(dest="scenarios_command", required=True)

    scen_list = scen_sub.add_parser("list", help="show the scenario registry")
    scen_list.add_argument("--tag", default=None, help="only scenarios carrying this tag")
    scen_list.add_argument(
        "--grid", default=None, help="only scenarios of this named grid"
    )
    scen_list.set_defaults(func=cmd_scenarios_list)

    scen_run = scen_sub.add_parser(
        "run", help="run a scenario grid through the experiment runner"
    )
    scen_run.add_argument(
        "--grid", default=None,
        help="named grid to run (smoke, paper, adversarial, full); "
        "default 'smoke' when no --scenario is given",
    )
    scen_run.add_argument(
        "--scenario", nargs="+", default=None, metavar="NAME",
        help="explicit scenario names to run instead of a named grid",
    )
    scen_run.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for the cell grid (rows identical for any value)",
    )
    scen_run.add_argument(
        "--retention", choices=("full", "aggregate"), default="full",
        help="simulation retention mode ('aggregate' bounds per-run memory; "
        "rows are identical)",
    )
    scen_run.add_argument(
        "--engine", choices=ENGINE_MODES, default=None,
        help="hot-path backend for dispatch AND scheduling: 'indexed' uses "
        "the incremental impact index plus the incremental matching "
        "repairer, 'reference' the O(n) adjacency scan with from-scratch "
        "matching; both share one transmission step and rows are "
        "bit-identical (default: each scenario's own setting)",
    )
    scen_run.add_argument(
        "--faults", type=int, default=None, metavar="SEED",
        help="inject a deterministic per-cell hardware-fault schedule "
        "(failing lasers/photodetectors/edges, degraded rates) generated "
        "from this seed; overrides any scenario-level fault configuration",
    )
    scen_run.add_argument(
        "--on-fail", choices=("requeue", "drop", "redispatch"), default=None,
        help="degradation policy for chunks stranded on failed hardware "
        "(default: each scenario's own setting, normally 'requeue')",
    )
    scen_run.add_argument(
        "--output", default=None,
        help="also write the rows to this path (.json document or streamed .jsonl)",
    )
    scen_run.set_defaults(func=cmd_scenarios_run)

    search = sub.add_parser(
        "search", help="adversarial scenario search (hunt ALG's empirical worst cases)"
    )
    search_sub = search.add_subparsers(dest="search_command", required=True)

    search_list = search_sub.add_parser(
        "list", help="show the named search spaces, objectives and budgets"
    )
    search_list.set_defaults(func=cmd_search_list)

    search_run = search_sub.add_parser(
        "run", help="run an adversarial search and print its hall of fame"
    )
    search_run.add_argument(
        "--space", default=None,
        help="parameter space to search (default: 'adversarial' for the "
        "empirical objective, 'tiny' for brute-force)",
    )
    search_run.add_argument(
        "--objective", choices=("empirical", "brute-force"), default="empirical",
        help="'empirical' scores ALG vs the best baseline via shared-stream "
        "run_multi cells; 'brute-force' scores ALG vs the exact offline "
        "optimum on tiny cells",
    )
    search_run.add_argument(
        "--budget", choices=sorted(_SEARCH_BUDGETS), default="smoke",
        help="named (population, generations) preset",
    )
    search_run.add_argument(
        "--generations", type=int, default=None, help="override the budget's generations"
    )
    search_run.add_argument(
        "--population", type=int, default=None, help="override the budget's population size"
    )
    search_run.add_argument("--seed", type=int, default=0, help="search root seed")
    search_run.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for candidate evaluation (archive identical for any value)",
    )
    search_run.add_argument(
        "--checkpoint", default=None, metavar="PATH",
        help="write generational JSONL state to PATH (resumable with 'search resume')",
    )
    search_run.add_argument(
        "--output", default=None,
        help="also write the hall-of-fame rows to this path (.json or .jsonl)",
    )
    search_run.add_argument(
        "--metrics", default=None, metavar="PATH",
        help="write per-generation heartbeat records to this JSONL file",
    )
    search_run.set_defaults(func=cmd_search_run)

    search_resume = search_sub.add_parser(
        "resume", help="continue a checkpointed search (bit-identical to an unbroken run)"
    )
    search_resume.add_argument("--checkpoint", required=True, metavar="PATH")
    search_resume.add_argument(
        "--generations", type=int, default=None,
        help="extend the total generation budget (default: the checkpointed one)",
    )
    search_resume.add_argument(
        "--jobs", type=int, default=None,
        help="override the checkpointed jobs count (never affects results)",
    )
    search_resume.add_argument(
        "--metrics", default=None, metavar="PATH",
        help="append per-generation heartbeat records to this JSONL file",
    )
    search_resume.set_defaults(func=cmd_search_resume)

    search_report = search_sub.add_parser(
        "report", help="pretty-print a search checkpoint (progress + hall of fame)"
    )
    search_report.add_argument("--checkpoint", required=True, metavar="PATH")
    search_report.set_defaults(func=cmd_search_report)

    bench = sub.add_parser(
        "bench", help="record and report the perfbench trajectory"
    )
    bench_sub = bench.add_subparsers(dest="bench_command", required=True)
    dir_help = "directory holding the BENCH_<workload>.json files"

    bench_run = bench_sub.add_parser(
        "run", help="run perfbench untraced and traced, append one history point"
    )
    bench_run.add_argument(
        "--workload", required=True,
        help="perfbench workload (dense-d4, saturated-pairs, scenario-grid)",
    )
    bench_run.add_argument("--seed", type=int, required=True)
    bench_run.add_argument(
        "--seconds", type=_POSITIVE_FLOAT, default=25.0,
        help="length of each of the two perfbench runs (default 25)",
    )
    bench_run.add_argument("--dir", default=str(_BENCH_DIR), metavar="PATH", help=dir_help)
    bench_run.set_defaults(func=cmd_bench_run)

    bench_report = bench_sub.add_parser(
        "report", help="render every recorded trajectory"
    )
    bench_report.add_argument(
        "--dir", default=str(_BENCH_DIR), metavar="PATH", help=dir_help
    )
    bench_report.set_defaults(func=cmd_bench_report)
    return parser


# ---------------------------------------------------------------------- #
# subcommands
# ---------------------------------------------------------------------- #
def cmd_figures(_args: argparse.Namespace) -> int:
    """Reproduce Figure 1 and Figure 2 and print paper-vs-measured tables."""
    instance = figure1_instance()
    alg = simulate(instance.topology, OpportunisticLinkScheduler(), instance.packets)
    optimum = brute_force_optimal(instance)
    expected = figure1_reported_costs()
    print(
        format_table(
            ["quantity", "paper", "measured"],
            [
                ["Figure 1 feasible schedule", expected["feasible_solution"], 9.0],
                ["Figure 1 optimal schedule", expected["optimal_solution"], optimum.cost],
                ["Figure 1 ALG cost", "n/a", alg.total_weighted_latency],
            ],
            title="Figure 1",
        )
    )
    rows = []
    for key, fig2 in figure2_instances().items():
        result = simulate(
            fig2.topology, OpportunisticLinkScheduler(), fig2.packets, record_trace=True
        )
        charges = compute_charges(result)
        for pid, value in figure2_reported_impacts()[key].items():
            rows.append([key, f"p{pid + 1}", value, charges.charge(pid)])
    print()
    print(format_table(["packet set", "packet", "paper", "measured"], rows, title="Figure 2"))
    return 0


def _generated_instance(racks: int, packets: int, workload: str, seed: int) -> Instance:
    suite = standard_projector_instances(
        num_racks=racks, lasers_per_rack=2, num_packets=packets, seed=seed
    )
    return suite[workload]


def cmd_compare(args: argparse.Namespace) -> int:
    """Run ALG and the baselines on one generated workload."""
    instance = _generated_instance(args.racks, args.packets, args.workload, args.seed)
    policies: Dict[str, Policy] = all_policies(seed=args.seed, include_direct_first=False)
    if not args.ablations:
        for name in ablation_policies():
            policies.pop(name, None)
    rows = compare_policies_on_instance(instance, policies)
    print(
        format_comparison_table(
            rows, title=f"{args.workload} workload, {args.racks} racks, {args.packets} packets"
        )
    )
    return 0


def cmd_competitive(args: argparse.Namespace) -> int:
    """Measure the empirical competitive ratio on small random instances."""
    if args.epsilon <= 0:
        print("error: --epsilon must be positive", file=sys.stderr)
        return 2
    instances = small_lp_instances(
        num_instances=args.instances, num_packets=args.packets, seed=args.seed
    )
    rows = []
    all_within = True
    for instance in instances.values():
        report = evaluate_competitive_ratio(instance, args.epsilon, use_lp=not args.no_lp)
        all_within = all_within and report.within_bound
        rows.append(
            [
                instance.name,
                args.epsilon,
                report.algorithm_cost,
                report.best_lower_bound,
                report.empirical_ratio,
                report.theoretical_bound,
                report.within_bound,
            ]
        )
    print(
        format_table(
            ["instance", "epsilon", "ALG cost", "lower bound", "ratio", "bound", "within"],
            rows,
            title="Theorem 1: empirical competitive ratio",
        )
    )
    return 0 if all_within else 1


def cmd_simulate(args: argparse.Namespace) -> int:
    """Run a single policy on a generated workload or a replayed trace."""
    if args.input is not None and not Path(args.input).is_file():
        print(f"error: --input {args.input} is not a file", file=sys.stderr)
        return 2
    policies = all_policies(seed=args.seed, include_direct_first=True)
    if args.policy not in policies:
        print(
            f"error: unknown policy {args.policy!r}; choose from {sorted(policies)}",
            file=sys.stderr,
        )
        return 2
    streaming = args.retention == "aggregate"
    if args.input is not None:
        topology = projector_fabric(
            num_racks=args.racks, lasers_per_rack=2, photodetectors_per_rack=2, seed=args.seed
        )
        if str(args.input).endswith(".jsonl"):
            packets = iter_packet_trace_jsonl(args.input) if streaming else read_packet_trace_jsonl(args.input)
        else:
            packets = iter_packet_trace(args.input) if streaming else read_packet_trace(args.input)
    elif streaming:
        # Build only the requested workload, lazily — the whole point of
        # aggregate mode is not materialising a million-packet suite.
        topology, packets = standard_projector_workload(
            args.workload,
            num_racks=args.racks,
            lasers_per_rack=2,
            num_packets=args.packets,
            seed=args.seed,
        )
    else:
        instance = _generated_instance(args.racks, args.packets, args.workload, args.seed)
        topology, packets = instance.topology, instance.packets

    result = simulate(
        topology,
        policies[args.policy],
        packets,
        speed=args.speed,
        record_trace=args.trace,
        retention=args.retention,
        trace_path=args.trace_jsonl,
    )
    rows = [
        ["policy", result.policy_name],
        ["packets", len(result)],
        ["all delivered", result.all_delivered],
        ["total weighted latency", result.total_weighted_latency],
    ]
    if streaming:
        # Per-packet distributions are not retained in aggregate mode; report
        # the online summary numbers instead.
        summary = result.summary()
        rows += [
            ["mean weighted latency", summary["mean_weighted_latency"]],
            ["mean completion time", result.mean_flow_completion_time],
        ]
    else:
        weighted = latency_statistics(result)
        completion = completion_time_statistics(result)
        rows += [
            ["mean weighted latency", weighted.mean],
            ["p99 weighted latency", weighted.p99],
            ["mean completion time", completion.mean],
        ]
    rows += [
        ["slots simulated", result.num_slots],
        ["fixed-link fraction", result.fixed_link_fraction],
    ]
    print(format_table(["metric", "value"], rows, title="simulation summary"))
    if args.trace and result.trace is not None:
        print()
        print(result.trace.format(max_slots=10))
    if args.trace_jsonl is not None:
        print(f"wrote slot trace to {args.trace_jsonl}")
    return 0


def _run_one_sweep(name: str, args: argparse.Namespace) -> list:
    """Run one named sweep with the CLI's sizing knobs and return its rows."""
    if name == "competitive":
        instances = small_lp_instances(
            num_instances=2, num_packets=args.lp_packets, seed=args.seed
        )
        return competitive_ratio_sweep(
            instances, epsilons=(0.5, 1.0, 2.0), use_lp=False, jobs=args.jobs
        )
    if name == "speedup":
        instances = small_lp_instances(
            num_instances=1, num_packets=args.lp_packets, seed=args.seed
        )
        instance = next(iter(instances.values()))
        return speedup_sweep(instance, speeds=(1.0, 1.5, 2.0, 3.0), jobs=args.jobs)
    if name == "delays":
        policies: Dict[str, Policy] = {
            "alg": OpportunisticLinkScheduler(),
            **standard_baselines(seed=args.seed),
        }
        return delay_heterogeneity_sweep(
            policies, num_packets=args.packets, seed=args.seed, jobs=args.jobs,
            retention=args.retention,
        )
    if name == "hybrid":
        return hybrid_fixed_link_sweep(
            num_racks=args.racks, num_packets=args.packets, seed=args.seed, jobs=args.jobs,
            retention=args.retention,
        )
    if name == "tiers":
        return two_tier_sweep(
            num_racks=args.racks, num_packets=args.packets, seed=args.seed, jobs=args.jobs,
            retention=args.retention,
        )
    raise ValueError(f"unknown sweep {name!r}")  # pragma: no cover - argparse guards


def _validate_runner_args(args: argparse.Namespace) -> int:
    """Shared up-front checks of the runner knobs (--jobs/--output).

    Returns 0 when valid, else the exit code to return — checked before any
    work so a long run is not thrown away on a typo.
    """
    if args.jobs < 1:
        print("error: --jobs must be >= 1", file=sys.stderr)
        return 2
    if args.output is not None and not Path(args.output).parent.is_dir():
        print(
            f"error: --output directory {Path(args.output).parent} does not exist",
            file=sys.stderr,
        )
        return 2
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    """Run one (or every) parameter sweep through the parallel runner."""
    invalid = _validate_runner_args(args)
    if invalid:
        return invalid
    names = list(_SWEEPS) if args.experiment == "all" else [args.experiment]
    tagged_rows = []
    for name in names:
        rows = _run_one_sweep(name, args)
        print(rows_to_table(rows, title=f"sweep: {name} (jobs={args.jobs})"))
        print()
        for row in rows:
            tagged_rows.append({"experiment": name, **dataclasses.asdict(row)})
    if args.output is not None:
        if str(args.output).endswith(".jsonl"):
            path = write_jsonl(tagged_rows, args.output)
        else:
            path = write_json(tagged_rows, args.output)
        print(f"wrote {len(tagged_rows)} rows to {path}")
    return 0


def cmd_scenarios_list(args: argparse.Namespace) -> int:
    """Print the scenario registry (optionally filtered by tag or grid)."""
    from repro.exceptions import ScenarioError
    from repro.scenarios import grid_matrix, grid_names, list_scenarios

    names = None
    if args.grid is not None:
        try:
            names = {s.name for s in grid_matrix(args.grid).scenarios}
        except ScenarioError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    scenarios = [
        s
        for s in list_scenarios(tag=args.tag)
        if names is None or s.name in names
    ]
    rows = [
        [
            s.name,
            ",".join(s.tags),
            s.topology.kind,
            s.workload.kind,
            ",".join(s.policies),
            len(s.seeds),
            s.description,
        ]
        for s in scenarios
    ]
    print(
        format_table(
            ["scenario", "tags", "topology", "workload", "policies", "seeds", "description"],
            rows,
            title=f"{len(rows)} registered scenarios (grids: {', '.join(grid_names())})",
        )
    )
    return 0


def cmd_scenarios_run(args: argparse.Namespace) -> int:
    """Expand and run a scenario grid through the parallel experiment runner."""
    from repro.exceptions import ScenarioError
    from repro.scenarios import grid_matrix, scenario_matrix

    invalid = _validate_runner_args(args)
    if invalid:
        return invalid
    if args.grid is not None and args.scenario is not None:
        print("error: pass either --grid or --scenario, not both", file=sys.stderr)
        return 2
    try:
        if args.scenario is not None:
            matrix = scenario_matrix(args.scenario, name="cli")
        else:
            matrix = grid_matrix(args.grid or "smoke")
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    rows = matrix.run(
        jobs=args.jobs,
        retention=args.retention,
        engine=args.engine,
        output_path=args.output,
        faults_seed=args.faults,
        on_fail=args.on_fail,
    )
    print(
        rows_to_table(
            rows,
            title=(
                f"scenario grid: {matrix.name} — {matrix.num_cells} cells, "
                f"{matrix.num_runs} runs (jobs={args.jobs})"
            ),
        )
    )
    if args.output is not None:
        print(f"wrote {len(rows)} rows to {args.output}")
    return 0


def _hall_of_fame_table(entries, title: str) -> str:
    """Render hall-of-fame entries as a table (best first)."""
    rows = [
        [
            rank + 1,
            f"{entry.score:.6f}",
            f"{entry.mean_ratio:.6f}",
            entry.params.get("kind", "?"),
            entry.params.get("speed", "?"),
            entry.scenario_name,
        ]
        for rank, entry in enumerate(entries)
    ]
    return format_table(
        ["rank", "score (min ratio)", "mean ratio", "kind", "speed", "scenario"],
        rows,
        title=title,
    )


def _print_search_result(result, jobs: int) -> None:
    history = ", ".join(f"{score:.6f}" for score in result.best_history)
    print(
        f"ran {result.generations_run} generations, {result.evaluations} distinct "
        f"candidates evaluated (jobs={jobs})"
        + (" — stopped early on stagnation" if result.stopped_early else "")
    )
    print(f"best score per generation: {history}")
    print()
    print(_hall_of_fame_table(result.hall_of_fame, title="hall of fame"))


def _write_hall_of_fame(entries, output: str) -> None:
    rows = [entry.to_json() for entry in entries]
    if output.endswith(".jsonl"):
        path = write_jsonl(rows, output)
    else:
        path = write_json(rows, output)
    print(f"wrote {len(rows)} hall-of-fame rows to {path}")


def cmd_search_list(_args: argparse.Namespace) -> int:
    """Print the registered search spaces, objectives and budget presets."""
    from repro.search import BUDGETS, get_space, space_names

    space_rows = []
    for name in space_names():
        space = get_space(name)
        space_rows.append(
            [name, space.builder, len(space.knobs),
             ", ".join(k.name for k in space.knobs)]
        )
    print(format_table(["space", "builder", "knobs", "knob names"], space_rows,
                       title="search spaces"))
    print()
    objective_rows = [
        ["empirical", "ALG cost / best baseline cost (shared-stream run_multi)"],
        ["brute-force", "ALG cost / exact offline optimum (tiny cells only)"],
    ]
    print(format_table(["objective", "measures"], objective_rows, title="objectives"))
    print()
    budget_rows = [
        [name, config.population_size, config.generations,
         config.hall_of_fame_size, config.stagnation_limit or "off"]
        for name, config in sorted(BUDGETS.items())
    ]
    print(format_table(
        ["budget", "population", "generations", "hall of fame", "stagnation"],
        budget_rows, title="budgets",
    ))
    return 0


def cmd_search_run(args: argparse.Namespace) -> int:
    """Run an adversarial search and print (optionally persist) its archive."""
    from repro.exceptions import SearchError
    from repro.search import AdversarialSearch, BUDGETS, get_space, objective_from_json

    invalid = _validate_runner_args(args)
    if invalid:
        return invalid
    try:
        objective = objective_from_json({"kind": args.objective})
        space_name = args.space or (
            "tiny" if args.objective == "brute-force" else "adversarial"
        )
        space = get_space(space_name)
        config = BUDGETS[args.budget]
        overrides = {"seed": args.seed, "jobs": args.jobs}
        if args.generations is not None:
            overrides["generations"] = args.generations
        if args.population is not None:
            overrides["population_size"] = args.population
        config = dataclasses.replace(config, **overrides)
        search = AdversarialSearch(space, objective, config)
        result = search.run(
            checkpoint_path=args.checkpoint, metrics_path=args.metrics
        )
    except SearchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(
        f"search space {space_name!r}, objective {args.objective!r}, "
        f"budget {args.budget!r}, seed {args.seed}"
    )
    _print_search_result(result, jobs=args.jobs)
    if args.checkpoint is not None:
        print(f"\nwrote checkpoint to {args.checkpoint}")
    if args.output is not None:
        _write_hall_of_fame(result.hall_of_fame, args.output)
    return 0


def cmd_search_resume(args: argparse.Namespace) -> int:
    """Continue a checkpointed search to its (possibly extended) budget."""
    from repro.exceptions import SearchError
    from repro.search import resume_search

    if args.jobs is not None and args.jobs < 1:
        print("error: --jobs must be >= 1", file=sys.stderr)
        return 2
    if args.generations is not None and args.generations < 1:
        print("error: --generations must be >= 1", file=sys.stderr)
        return 2
    try:
        search, result = resume_search(
            args.checkpoint,
            generations=args.generations,
            jobs=args.jobs,
            metrics_path=args.metrics,
        )
    except SearchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _print_search_result(result, jobs=search.config.jobs)
    return 0


def cmd_search_report(args: argparse.Namespace) -> int:
    """Summarise a checkpoint: meta, per-generation progress, hall of fame."""
    from repro.exceptions import SearchError
    from repro.search import HallOfFameEntry, read_checkpoint

    try:
        state = read_checkpoint(args.checkpoint)
    except SearchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    meta = state["meta"]
    config = meta["config"]
    print(
        f"space {meta['space']!r}, objective {meta['objective']['kind']!r}, "
        f"population {config['population_size']}, seed {config['seed']}"
    )
    generations = state["generations"]
    progress_rows = [
        [record["generation"], len(record["evaluations"]),
         f"{record['best_score']:.6f}"]
        for record in generations
    ]
    print()
    print(format_table(["generation", "new evaluations", "best score"],
                       progress_rows, title="progress"))
    if generations:
        entries = [
            HallOfFameEntry.from_json(data)
            for data in generations[-1]["hall_of_fame"]
        ]
        print()
        print(_hall_of_fame_table(entries, title="hall of fame"))
    return 0


def cmd_bench_run(args: argparse.Namespace) -> int:
    """Run perfbench twice and append the point to the workload's history."""
    from repro import bench

    if not bench.PERFBENCH.is_file():
        print(
            f"error: no benchmark script at {bench.PERFBENCH}; "
            "run from a source checkout",
            file=sys.stderr,
        )
        return 2
    path = bench.bench_path(args.workload, args.dir)
    try:
        history = bench.load_history(path)
    except ValueError as exc:
        print(f"error: refusing to overwrite benchmark history: {exc}", file=sys.stderr)
        return 1
    try:
        point, failures = bench.record_point(args.workload, args.seed, args.seconds)
    except bench.PerfbenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not point["correct"] or point["failed"]:
        for line in failures:
            print(line)
        print(
            f"error: perfbench reported correct={point['correct']}, "
            f"failed={point['failed']}; nothing appended to {path}",
            file=sys.stderr,
        )
        return 1
    history.append(point)
    bench.save_history(path, history, args.workload)
    pps = point["end_to_end"]["packets_per_s"]["value"]  # present when correct
    print(
        f"{args.workload}: {pps:.1f} packets/s, correct -> {path} "
        f"({len(history)} history points)"
    )
    return 0


def cmd_bench_report(args: argparse.Namespace) -> int:
    """Render the recorded trajectory of every BENCH_*.json file."""
    from repro.bench import render_report

    print(render_report(args.dir))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via tests calling main()
    sys.exit(main())
