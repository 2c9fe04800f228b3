"""The generational adversarial search driver.

:class:`AdversarialSearch` runs a deterministic, seedable evolutionary loop
over a :class:`~repro.search.space.ParamSpace`:

1. **Initialise** — generation 0 is sampled uniformly from the space.
2. **Evaluate** — unevaluated candidates become one experiment-runner task
   each (fanned over ``--jobs`` worker processes); already-seen candidates
   reuse their cached score, so re-visiting a region is free.
3. **Archive** — the hall of fame keeps the ``hall_of_fame_size`` best
   distinct candidates ever evaluated (ties broken by candidate key, so the
   archive is a pure function of the evaluated set).
4. **Select & vary** — elites survive verbatim; the rest of the next
   generation is bred by tournament selection, uniform crossover and bounded
   mutation.
5. **Stop** — after ``generations`` rounds, or earlier when the best score
   has not improved for ``stagnation_limit`` consecutive generations.

Determinism is the load-bearing property.  Every random draw comes from a
:class:`~repro.utils.rng.SeedSequenceFactory` child stream keyed by *role*
(``init``/``select``/``mutate``), generation and slot index — never from
evaluation timing — and evaluation rows return in grid order regardless of
worker interleaving, so ``jobs=1`` and ``jobs=N`` produce bit-identical
hall-of-fame archives.  The same keying makes checkpoint/resume exact: the
JSONL checkpoint stores populations, scores and the archive (plain data);
resuming re-derives the RNG streams for the remaining generations from the
same keys and continues as if the run had never stopped.
"""

from __future__ import annotations

import json
import time
from contextlib import ExitStack
from dataclasses import dataclass, replace
from pathlib import Path
from typing import IO, Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.exceptions import SearchError
from repro.experiments.runner import ExperimentRunner, ExperimentSpec, ExperimentTask, RunnerConfig
from repro.obs import MetricsWriter
from repro.search.objective import (
    Objective,
    ObjectiveResult,
    objective_from_json,
    objective_to_json,
)
from repro.search.space import ParamSpace, Params, candidate_key, get_space
from repro.utils.rng import SeedSequenceFactory

__all__ = [
    "SearchConfig",
    "HallOfFameEntry",
    "SearchResult",
    "AdversarialSearch",
    "resume_search",
    "read_checkpoint",
    "BUDGETS",
]


@dataclass(frozen=True)
class SearchConfig:
    """Tuning knobs of one :class:`AdversarialSearch` run.

    Attributes
    ----------
    population_size, generations:
        Candidates per generation and number of generations (generation 0
        included).
    elite:
        Best candidates copied verbatim into the next generation.
    tournament:
        Tournament size of the parent selection.
    crossover_rate, mutation_rate:
        Probability of breeding a child from two parents (vs cloning one),
        and the per-knob perturbation probability of the mutation pass.
    hall_of_fame_size:
        Distinct candidates kept in the archive.
    stagnation_limit:
        Early-stop after this many generations without improvement
        (``0`` disables early stopping).
    replicate_seeds:
        Cell seeds every candidate is replicated over (the objective's
        confidence filter takes the minimum across them).
    seed:
        Root seed of every init/select/mutate stream.
    jobs:
        Experiment-runner fan-out for candidate evaluation (results are
        identical for any value).
    """

    population_size: int = 12
    generations: int = 8
    elite: int = 2
    tournament: int = 3
    crossover_rate: float = 0.6
    mutation_rate: float = 0.4
    hall_of_fame_size: int = 5
    stagnation_limit: int = 0
    replicate_seeds: Tuple[int, ...] = (0, 1)
    seed: int = 0
    jobs: int = 1

    def __post_init__(self) -> None:
        if self.population_size < 2:
            raise SearchError(f"population_size must be >= 2, got {self.population_size}")
        if self.generations < 1:
            raise SearchError(f"generations must be >= 1, got {self.generations}")
        if not 0 <= self.elite < self.population_size:
            raise SearchError(
                f"elite must lie in [0, population_size), got {self.elite}"
            )
        if self.tournament < 1:
            raise SearchError(f"tournament must be >= 1, got {self.tournament}")
        if not self.replicate_seeds:
            raise SearchError("replicate_seeds must be non-empty")
        if self.jobs < 1:
            raise SearchError(f"jobs must be >= 1, got {self.jobs}")


#: Named budgets exposed by ``repro search run --budget``.
BUDGETS: Dict[str, SearchConfig] = {
    "smoke": SearchConfig(population_size=8, generations=6),
    "default": SearchConfig(population_size=16, generations=10),
    "full": SearchConfig(
        population_size=24, generations=20, hall_of_fame_size=10, stagnation_limit=6
    ),
}


@dataclass(frozen=True)
class HallOfFameEntry:
    """One archived candidate: its assignment, identity and measurement."""

    key: str
    params: Params
    score: float
    ratios: Tuple[float, ...]
    mean_ratio: float
    scenario_name: str

    def to_json(self) -> Dict[str, Any]:
        return {
            "key": self.key,
            "params": dict(self.params),
            "score": self.score,
            "ratios": list(self.ratios),
            "mean_ratio": self.mean_ratio,
            "scenario_name": self.scenario_name,
        }

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "HallOfFameEntry":
        return cls(
            key=data["key"],
            params=dict(data["params"]),
            score=float(data["score"]),
            ratios=tuple(float(r) for r in data["ratios"]),
            mean_ratio=float(data["mean_ratio"]),
            scenario_name=data["scenario_name"],
        )


@dataclass(frozen=True)
class SearchResult:
    """Outcome of a finished (or early-stopped) search."""

    hall_of_fame: Tuple[HallOfFameEntry, ...]
    generations_run: int
    best_history: Tuple[float, ...]
    evaluations: int
    stopped_early: bool

    @property
    def best(self) -> HallOfFameEntry:
        """The single best candidate found."""
        if not self.hall_of_fame:
            raise SearchError("search produced an empty hall of fame")
        return self.hall_of_fame[0]


# ---------------------------------------------------------------------- #
# worker-side evaluation
# ---------------------------------------------------------------------- #
def _evaluate_candidate_task(task: ExperimentTask) -> Dict[str, Any]:
    """One runner task: build the candidate's scenario and score it.

    Module-level (hence picklable); everything it needs travels in the task
    params.  The scenario is content-addressed by the candidate assignment,
    so the same candidate scores identically in any process or session.
    """
    space: ParamSpace = task.params["space"]
    objective: Objective = task.params["objective"]
    params: Params = task.params["candidate"]
    seeds: Tuple[int, ...] = task.params["replicate_seeds"]
    scenario = space.build_scenario(
        params, seeds=seeds, policies=objective.scenario_policies()
    )
    result = objective.evaluate(scenario)
    return {
        "key": candidate_key(params),
        "params": dict(params),
        "score": result.score,
        "ratios": list(result.ratios),
        "mean_ratio": result.mean_ratio,
        "scenario_name": scenario.name,
    }


# ---------------------------------------------------------------------- #
# checkpoint IO
# ---------------------------------------------------------------------- #
def _config_to_json(config: SearchConfig) -> Dict[str, Any]:
    return {
        "population_size": config.population_size,
        "generations": config.generations,
        "elite": config.elite,
        "tournament": config.tournament,
        "crossover_rate": config.crossover_rate,
        "mutation_rate": config.mutation_rate,
        "hall_of_fame_size": config.hall_of_fame_size,
        "stagnation_limit": config.stagnation_limit,
        "replicate_seeds": list(config.replicate_seeds),
        "seed": config.seed,
        "jobs": config.jobs,
    }


def _config_from_json(data: Dict[str, Any]) -> SearchConfig:
    payload = dict(data)
    # Checkpoints written before the runner dropped its no-op ``chunksize``
    # knob still carry the key; it never changed a result.
    payload.pop("chunksize", None)
    payload["replicate_seeds"] = tuple(payload["replicate_seeds"])
    return SearchConfig(**payload)


class _CheckpointWriter:
    """Context manager owning a search-checkpoint JSONL handle.

    Every write — including the initial meta record — happens inside the
    managed scope, so an exception anywhere (an objective raising
    mid-generation included) still closes the handle instead of leaking it,
    and every fully written generation line stays parseable for ``resume``.
    Each record is written as one line and flushed immediately: a failing
    run can lose at most the record being written, never truncate earlier
    ones.
    """

    def __init__(self, path: Union[str, Path], mode: str) -> None:
        self._path = Path(path)
        self._mode = mode
        self._handle: Optional[IO[str]] = None

    def __enter__(self) -> "_CheckpointWriter":
        self._handle = self._path.open(self._mode, encoding="utf-8")
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def write_record(self, record: Dict[str, Any]) -> None:
        """Append ``record`` as one flushed JSON line."""
        assert self._handle is not None, "checkpoint writer used outside its scope"
        self._handle.write(json.dumps(record, sort_keys=True) + "\n")
        self._handle.flush()


def read_checkpoint(path: Union[str, Path]) -> Dict[str, Any]:
    """Parse a search checkpoint into ``{"meta": …, "generations": […]}``."""
    path = Path(path)
    if not path.is_file():
        raise SearchError(f"checkpoint {path} does not exist")
    # Several meta records may appear (a resume that extends the budget
    # appends an updated one); the last wins, like the generation records.
    meta: Optional[Dict[str, Any]] = None
    generations: List[Dict[str, Any]] = []
    with path.open("r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise SearchError(
                    f"checkpoint {path}:{line_number} is not valid JSON: {exc}"
                ) from exc
            if record.get("type") == "meta":
                meta = record
            elif record.get("type") == "generation":
                generations.append(record)
            else:
                raise SearchError(
                    f"checkpoint {path}:{line_number} has unknown record type "
                    f"{record.get('type')!r}"
                )
    if meta is None:
        raise SearchError(f"checkpoint {path} has no meta record")
    return {"meta": meta, "generations": generations}


# ---------------------------------------------------------------------- #
# the driver
# ---------------------------------------------------------------------- #
class AdversarialSearch:
    """Deterministic generational search for ALG's empirical worst cases."""

    def __init__(
        self,
        space: ParamSpace,
        objective: Objective,
        config: Optional[SearchConfig] = None,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.space = space
        self.objective = objective
        self.config = config or SearchConfig()
        self._seeds = SeedSequenceFactory(self.config.seed)
        # Injectable wall clock, used only for heartbeat evals/s reporting —
        # never for any search decision (determinism would break otherwise).
        self._clock = clock

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def run(
        self,
        checkpoint_path: Optional[Union[str, Path]] = None,
        metrics_path: Optional[Union[str, Path]] = None,
    ) -> SearchResult:
        """Run the search from scratch (truncating any existing checkpoint).

        ``metrics_path`` streams one ``{"record": "search_heartbeat"}`` JSONL
        line per generation (best score, archive size, evals/s) so long
        searches are observable from outside the process; heartbeats never
        influence the search itself.
        """
        with ExitStack() as stack:
            checkpoint = None
            if checkpoint_path is not None:
                checkpoint = stack.enter_context(
                    _CheckpointWriter(checkpoint_path, "w")
                )
                checkpoint.write_record(self._meta_record())
            metrics = None
            if metrics_path is not None:
                metrics = stack.enter_context(MetricsWriter(metrics_path, mode="w"))
            return self._drive(
                start_generation=0,
                population=None,
                scores={},
                hall_of_fame=[],
                best_history=[],
                checkpoint=checkpoint,
                metrics=metrics,
            )

    def resume(
        self,
        checkpoint_path: Union[str, Path],
        generations: Optional[int] = None,
        metrics_path: Optional[Union[str, Path]] = None,
    ) -> SearchResult:
        """Continue a checkpointed run (optionally extending ``generations``).

        The continuation is bit-identical to a run that never stopped: all
        variation RNG streams are re-derived from (seed, role, generation,
        slot) keys, and the evaluated-score cache is replayed from the
        checkpoint, so no candidate is re-simulated.
        """
        state = read_checkpoint(checkpoint_path)
        if not state["generations"]:
            raise SearchError(
                f"checkpoint {checkpoint_path} holds no finished generation"
            )
        if generations is not None:
            self.config = replace(self.config, generations=generations)
        last = state["generations"][-1]
        scores: Dict[str, ObjectiveResult] = {}
        names: Dict[str, str] = {}
        best_history: List[float] = []
        for record in state["generations"]:
            best_history.append(float(record["best_score"]))
            for key, row in record["evaluations"].items():
                scores[key] = ObjectiveResult(
                    score=float(row["score"]),
                    ratios=tuple(float(r) for r in row["ratios"]),
                    mean_ratio=float(row["mean_ratio"]),
                )
                names[key] = row["scenario_name"]
        hall_of_fame = [
            HallOfFameEntry.from_json(entry) for entry in last["hall_of_fame"]
        ]
        population = [dict(p) for p in last["population"]]
        with ExitStack() as stack:
            checkpoint = stack.enter_context(_CheckpointWriter(checkpoint_path, "a"))
            if generations is not None:
                # Persist the extended budget: a later resume (e.g. after this
                # continuation is interrupted) must see the new target, not the
                # original one, or it would stop short without a word.
                checkpoint.write_record(self._meta_record())
            metrics = None
            if metrics_path is not None:
                # Append: the continuation's heartbeats extend the original
                # run's stream instead of erasing it.
                metrics = stack.enter_context(MetricsWriter(metrics_path, mode="a"))
            return self._drive(
                start_generation=int(last["generation"]) + 1,
                population=population,
                scores=scores,
                hall_of_fame=hall_of_fame,
                best_history=best_history,
                checkpoint=checkpoint,
                scenario_names=names,
                metrics=metrics,
            )

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _meta_record(self) -> Dict[str, Any]:
        return {
            "type": "meta",
            "space": self.space.name,
            "objective": objective_to_json(self.objective),
            "config": _config_to_json(self.config),
        }

    def _initial_population(self) -> List[Params]:
        rng_of = lambda i: self._seeds.generator("init", i)  # noqa: E731
        return [
            self.space.sample(rng_of(i)) for i in range(self.config.population_size)
        ]

    def _evaluate(
        self,
        generation: int,
        population: Sequence[Params],
        scores: Dict[str, ObjectiveResult],
        scenario_names: Dict[str, str],
    ) -> Dict[str, Any]:
        """Score every unseen candidate of ``population`` (cached ones are free)."""
        pending: List[Params] = []
        seen: set = set()
        for params in population:
            key = candidate_key(params)
            if key not in scores and key not in seen:
                pending.append(params)
                seen.add(key)
        new_rows: Dict[str, Any] = {}
        if pending:
            spec = ExperimentSpec(
                name=f"search-{self.space.name}-gen{generation}",
                task_fn=_evaluate_candidate_task,
                grid=[
                    {
                        "space": self.space,
                        "objective": self.objective,
                        "candidate": params,
                        "replicate_seeds": self.config.replicate_seeds,
                    }
                    for params in pending
                ],
                seed=self.config.seed,
            )
            runner = ExperimentRunner(RunnerConfig(jobs=self.config.jobs))
            for row in runner.run(spec):
                scores[row["key"]] = ObjectiveResult(
                    score=float(row["score"]),
                    ratios=tuple(float(r) for r in row["ratios"]),
                    mean_ratio=float(row["mean_ratio"]),
                )
                scenario_names[row["key"]] = row["scenario_name"]
                new_rows[row["key"]] = {
                    "params": dict(row["params"]),
                    "score": float(row["score"]),
                    "ratios": list(row["ratios"]),
                    "mean_ratio": float(row["mean_ratio"]),
                    "scenario_name": row["scenario_name"],
                }
        return new_rows

    def _update_hall_of_fame(
        self,
        hall_of_fame: List[HallOfFameEntry],
        population: Sequence[Params],
        scores: Dict[str, ObjectiveResult],
        scenario_names: Dict[str, str],
    ) -> List[HallOfFameEntry]:
        merged: Dict[str, HallOfFameEntry] = {e.key: e for e in hall_of_fame}
        for params in population:
            key = candidate_key(params)
            result = scores[key]
            if key not in merged:
                merged[key] = HallOfFameEntry(
                    key=key,
                    params=dict(params),
                    score=result.score,
                    ratios=result.ratios,
                    mean_ratio=result.mean_ratio,
                    scenario_name=scenario_names[key],
                )
        # Rank by the filtered score, then mean ratio (so candidates tied at
        # the minimum are separated by their typical badness), then candidate
        # key — a total order, hence a jobs-independent archive.
        ranked = sorted(merged.values(), key=lambda e: (-e.score, -e.mean_ratio, e.key))
        return ranked[: self.config.hall_of_fame_size]

    def _next_generation(
        self,
        generation: int,
        population: Sequence[Params],
        scores: Dict[str, ObjectiveResult],
    ) -> List[Params]:
        """Breed the next generation (elitism + tournament + crossover + mutation)."""
        cfg = self.config

        def fitness(p: Params) -> Tuple[float, float, str]:
            key = candidate_key(p)
            result = scores[key]
            return (result.score, result.mean_ratio, key)

        ranked = sorted(
            population,
            key=lambda p: (-fitness(p)[0], -fitness(p)[1], fitness(p)[2]),
        )
        children: List[Params] = [dict(p) for p in ranked[: cfg.elite]]

        def tournament(rng) -> Params:
            contestants = [
                population[int(rng.integers(len(population)))]
                for _ in range(cfg.tournament)
            ]
            return max(contestants, key=fitness)

        for slot in range(cfg.population_size - len(children)):
            select_rng = self._seeds.generator("select", generation, slot)
            mutate_rng = self._seeds.generator("mutate", generation, slot)
            mother = tournament(select_rng)
            if select_rng.random() < cfg.crossover_rate:
                father = tournament(select_rng)
                child = self.space.crossover(mother, father, select_rng)
            else:
                child = dict(mother)
            children.append(self.space.mutate(child, mutate_rng, cfg.mutation_rate))
        return children

    def _drive(
        self,
        start_generation: int,
        population: Optional[List[Params]],
        scores: Dict[str, ObjectiveResult],
        hall_of_fame: List[HallOfFameEntry],
        best_history: List[float],
        checkpoint,
        scenario_names: Optional[Dict[str, str]] = None,
        metrics: Optional[MetricsWriter] = None,
    ) -> SearchResult:
        cfg = self.config
        names: Dict[str, str] = scenario_names or {}
        stopped_early = False
        generation = start_generation - 1
        started = self._clock()
        evals_this_run = 0
        if start_generation > 0 and population is not None:
            # Resuming: the checkpointed population was already evaluated;
            # breed the next generation from it before continuing the loop.
            population = self._next_generation(
                start_generation - 1, population, scores
            )
        elif population is None:
            population = self._initial_population()

        for generation in range(start_generation, cfg.generations):
            new_rows = self._evaluate(generation, population, scores, names)
            hall_of_fame = self._update_hall_of_fame(
                hall_of_fame, population, scores, names
            )
            best = hall_of_fame[0].score if hall_of_fame else 0.0
            best_history.append(best)
            if checkpoint is not None:
                checkpoint.write_record(
                    {
                        "type": "generation",
                        "generation": generation,
                        "population": [dict(p) for p in population],
                        "evaluations": new_rows,
                        "hall_of_fame": [e.to_json() for e in hall_of_fame],
                        "best_score": best,
                    }
                )
            if metrics is not None:
                evals_this_run += len(new_rows)
                elapsed = self._clock() - started
                metrics.write(
                    {
                        "record": "search_heartbeat",
                        "generation": generation,
                        "best_score": best,
                        "archive_size": len(hall_of_fame),
                        "new_evaluations": len(new_rows),
                        "evaluations_total": len(scores),
                        "evals_per_s": round(evals_this_run / elapsed, 6)
                        if elapsed > 0
                        else 0.0,
                    }
                )
            if (
                cfg.stagnation_limit > 0
                and len(best_history) > cfg.stagnation_limit
                and best <= best_history[-cfg.stagnation_limit - 1] + 1e-12
            ):
                stopped_early = True
                break
            if generation + 1 < cfg.generations:
                population = self._next_generation(generation, population, scores)

        return SearchResult(
            hall_of_fame=tuple(hall_of_fame),
            generations_run=generation + 1,
            best_history=tuple(best_history),
            evaluations=len(scores),
            stopped_early=stopped_early,
        )


def resume_search(
    checkpoint_path: Union[str, Path],
    generations: Optional[int] = None,
    jobs: Optional[int] = None,
    metrics_path: Optional[Union[str, Path]] = None,
) -> Tuple[AdversarialSearch, SearchResult]:
    """Reconstruct a search from its checkpoint metadata and continue it.

    The space, objective and config all come from the checkpoint's meta
    record; ``generations`` and ``jobs`` optionally override the stored
    budget (``jobs`` never affects results, only wall-clock).
    """
    state = read_checkpoint(checkpoint_path)
    meta = state["meta"]
    config = _config_from_json(meta["config"])
    if jobs is not None:
        config = replace(config, jobs=jobs)
    search = AdversarialSearch(
        space=get_space(meta["space"]),
        objective=objective_from_json(meta["objective"]),
        config=config,
    )
    return search, search.resume(
        checkpoint_path, generations=generations, metrics_path=metrics_path
    )
