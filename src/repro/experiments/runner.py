"""Parallel, fault-tolerant experiment runner.

Every sweep and comparison in :mod:`repro.experiments` is a *grid* of
self-contained measurements: each grid point can be evaluated knowing only its
own parameters and a deterministic seed.  This module turns that observation
into a small subsystem:

* :class:`ExperimentSpec` names an experiment and pairs a picklable task
  function with the grid of parameter dictionaries it should be evaluated on;
* :class:`ExperimentTask` is one materialised grid point, carrying its own
  deterministic seed derived from the spec's root seed through
  :class:`~repro.utils.rng.SeedSequenceFactory`;
* :class:`RunnerConfig` selects serial or multi-process execution (``jobs``)
  without changing the produced rows, and configures the fault-tolerance
  envelope: per-task ``timeout``, bounded ``retries`` with deterministic
  re-seeding and exponential backoff, ``on_error`` policy, and a JSONL
  ``checkpoint_path`` for crash-resumable sweeps;
* :class:`ExperimentRunner` executes the grid and returns rows in grid order,
  optionally persisting them as JSON for later analysis.

The contract that makes parallelism safe is the same one the
splitnn-emulator's partitioner uses for its per-partition fan-out: tasks share
*no* mutable state, their inputs are deterministic, and the runner reassembles
outputs in the deterministic grid order, so ``jobs=1`` and ``jobs=N`` produce
identical row lists.

Fault tolerance
---------------
Long sweeps die for boring reasons — a worker segfaults, one grid point hangs,
the host reboots.  The runner degrades gracefully instead of losing the sweep:

* a task that raises is retried up to ``retries`` times, each attempt with a
  fresh deterministic seed (``integer_seed("retry", name, index, attempt)``)
  and exponentially backed-off delay;
* a worker process that dies (``BrokenProcessPool``) or a task that exceeds
  ``timeout`` tears the pool down, re-creates it, and resubmits every
  unfinished task; only the blamed task consumes a retry — crash and timeout
  retries keep the *original* task seed, so a transient crash reproduces the
  exact rows an undisturbed run would have produced;
* with ``on_error="skip"`` a task that exhausts its retries yields zero rows
  (status ``"failed"`` in the heartbeat stream) instead of failing the sweep;
* with ``checkpoint_path`` set, each completed task's rows are appended to a
  JSONL checkpoint (flushed per record, torn final lines tolerated); re-running
  the same spec against the same path replays completed tasks from the
  checkpoint — bit-identical rows — and executes only the missing ones.

Examples
--------
>>> from repro.experiments.runner import ExperimentSpec, ExperimentRunner, RunnerConfig
>>> def square(task):
...     return {"x": task.params["x"], "seed": task.seed, "y": task.params["x"] ** 2}
>>> spec = ExperimentSpec(name="squares", task_fn=square,
...                       grid=[{"x": x} for x in (1, 2, 3)], seed=7)
>>> rows = ExperimentRunner(RunnerConfig(jobs=1)).run(spec)
>>> [row["y"] for row in rows]
[1, 4, 9]
>>> rows == ExperimentRunner(RunnerConfig(jobs=1)).run(spec)   # reproducible
True

(``RunnerConfig(jobs=2)`` produces the same rows; the task function must then
be a module-level — hence picklable — function rather than a local one like
``square`` above.)
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import reprlib
import time
from concurrent.futures import TimeoutError as _FutureTimeout
from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Union

from repro.exceptions import ExperimentError
from repro.utils.atomic import atomic_writer
from repro.utils.jsonl import iter_json_lines
from repro.utils.rng import SeedSequenceFactory

__all__ = [
    "ExperimentTask",
    "ExperimentSpec",
    "RunnerConfig",
    "ExperimentRunner",
    "run_experiment",
    "rows_to_json",
    "write_json",
    "read_json",
    "write_jsonl",
    "iter_jsonl",
    "read_jsonl",
]

#: A task function maps one :class:`ExperimentTask` to a row (dataclass or
#: mapping) or to a list of rows.  It must be picklable (a module-level
#: function) for ``jobs > 1``.
TaskFn = Callable[["ExperimentTask"], Any]

#: Valid ``RunnerConfig.on_error`` policies.
ON_ERROR_MODES = ("raise", "skip")


@dataclass(frozen=True)
class ExperimentTask:
    """One self-contained grid point of an :class:`ExperimentSpec`.

    Attributes
    ----------
    spec_name:
        Name of the owning spec (used in error messages and JSON output).
    index:
        Position of this task in the spec's grid; rows are always returned in
        index order regardless of execution order.
    params:
        The grid point's parameters, passed verbatim to the task function.
    seed:
        Deterministic 63-bit seed derived from the spec's root seed and the
        task index; independent across tasks, reproducible across runs and
        processes.
    """

    spec_name: str
    index: int
    params: Dict[str, Any]
    seed: int


@dataclass(frozen=True)
class ExperimentSpec:
    """A named experiment expressed as a grid of self-contained tasks.

    Attributes
    ----------
    name:
        Experiment name (e.g. ``"speedup"``); also namespaces the per-task
        seed derivation, so two specs with the same root seed but different
        names get independent task seeds.
    task_fn:
        Module-level callable evaluating one :class:`ExperimentTask`.
    grid:
        One parameter dictionary per task, in output order.
    seed:
        Root seed for per-task seed derivation (``None`` still yields a
        deterministic derivation keyed only on the name and index).
    """

    name: str
    task_fn: TaskFn
    grid: Sequence[Dict[str, Any]] = field(default_factory=tuple)
    seed: Optional[int] = None

    def tasks(self) -> List[ExperimentTask]:
        """Materialise the grid into tasks with deterministic per-task seeds."""
        seeds = SeedSequenceFactory(self.seed)
        return [
            ExperimentTask(
                spec_name=self.name,
                index=index,
                params=dict(params),
                seed=seeds.integer_seed("task", self.name, index),
            )
            for index, params in enumerate(self.grid)
        ]

    def retry_seed(self, index: int, attempt: int) -> int:
        """Deterministic seed for retry ``attempt`` (>= 1) of task ``index``.

        Derived through a ``"retry"``-namespaced key so it never collides with
        the first-attempt task seeds, yet is reproducible across processes.
        """
        return SeedSequenceFactory(self.seed).integer_seed(
            "retry", self.name, index, attempt
        )


@dataclass(frozen=True)
class RunnerConfig:
    """Execution configuration of an :class:`ExperimentRunner`.

    Attributes
    ----------
    jobs:
        Number of worker processes; ``1`` (the default) runs tasks serially in
        the calling process, ``N > 1`` fans tasks out over a
        :class:`concurrent.futures.ProcessPoolExecutor`.  The produced rows
        are identical either way.
    start_method:
        Optional :mod:`multiprocessing` start method (``"fork"``, ``"spawn"``,
        ``"forkserver"``); ``None`` uses the platform default.
    metrics_path:
        When set, the runner appends one ``{"record": "runner_heartbeat"}``
        JSONL line per completed task (task index, rows so far, elapsed
        seconds, retry count and completion status) to this file, so long
        sweeps are observable from outside the process.  Heartbeats never
        change the produced rows.
    timeout:
        Per-task wall-clock budget in seconds for ``jobs > 1``; a task whose
        result does not arrive in time consumes a retry (the worker pool is
        recycled so the stuck worker cannot wedge the sweep).  ``None``
        (default) waits forever.  Serial execution cannot interrupt a running
        task, so ``timeout`` is ignored for ``jobs == 1``.
    retries:
        Number of times a failing task is re-attempted before the ``on_error``
        policy applies.  Retries triggered by an in-task exception use a fresh
        deterministic seed; retries triggered by a worker crash or timeout
        keep the original seed (the task itself never observed a failure).
    retry_backoff:
        Base delay in seconds before retry ``k``; the actual sleep is
        ``retry_backoff * 2**(k-1)``.  ``0`` disables backoff.
    on_error:
        ``"raise"`` (default) propagates the failure once retries are
        exhausted; ``"skip"`` records the task as failed (zero rows, heartbeat
        status ``"failed"``) and continues with the rest of the grid.
    checkpoint_path:
        When set, each successfully completed task's rows are appended to this
        JSONL file (one flushed record per task).  Running the same spec again
        with the same path resumes: completed tasks are replayed bit-identically
        from the checkpoint and only missing or previously failed tasks are
        executed.
    """

    jobs: int = 1
    start_method: Optional[str] = None
    metrics_path: Optional[str] = None
    timeout: Optional[float] = None
    retries: int = 0
    retry_backoff: float = 0.05
    on_error: str = "raise"
    checkpoint_path: Optional[str] = None

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        if self.timeout is not None and not self.timeout > 0:
            raise ValueError(f"timeout must be positive, got {self.timeout}")
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.retry_backoff < 0:
            raise ValueError(
                f"retry_backoff must be >= 0, got {self.retry_backoff}"
            )
        if self.on_error not in ON_ERROR_MODES:
            raise ValueError(
                f"on_error must be one of {ON_ERROR_MODES}, got {self.on_error!r}"
            )


#: Shortens task params in failure messages: a comparison task's params hold
#: a whole instance, whose full repr grows with its packet count.
_PARAMS_REPR = reprlib.Repr()
_PARAMS_REPR.maxlevel, _PARAMS_REPR.maxdict, _PARAMS_REPR.maxother = 2, 16, 60


def _execute_task(task_fn: TaskFn, task: ExperimentTask) -> List[Any]:
    """Evaluate one task and normalise its output to a list of rows."""
    try:
        output = task_fn(task)
    except Exception as exc:  # re-raise with grid context, keep the original chained
        raise ExperimentError(
            f"task {task.index} of experiment {task.spec_name!r} failed "
            f"(params={_PARAMS_REPR.repr(task.params)}): {type(exc).__name__}: {exc}"
        ) from exc
    if output is None:
        return []
    if isinstance(output, list):
        return output
    return [output]


def _reseeded(spec: ExperimentSpec, task: ExperimentTask, attempt: int) -> ExperimentTask:
    """Task to submit for ``attempt``: the original at 0, re-seeded afterwards."""
    if attempt == 0:
        return task
    return dataclasses.replace(task, seed=spec.retry_seed(task.index, attempt))


@dataclass
class _TaskOutcome:
    """Result of one grid point: its rows plus how the runner got them.

    ``status`` is ``"ok"`` (executed this run), ``"checkpointed"`` (replayed
    from the checkpoint file) or ``"failed"`` (retries exhausted under
    ``on_error="skip"``); ``retries`` counts extra attempts consumed.
    """

    index: int
    rows: List[Any]
    status: str
    retries: int


def _load_checkpoint(
    path: Path, spec: ExperimentSpec, tasks: Sequence[ExperimentTask]
) -> Dict[int, _TaskOutcome]:
    """Read completed-task records back from a runner checkpoint file.

    A torn *final* line (crash mid-append) is tolerated — that task is simply
    re-run; corruption anywhere else, or a record written by a different
    experiment or root seed, raises :class:`ExperimentError` so a sweep can
    never silently mix rows from two different specs.
    """
    if not path.exists():
        return {}
    done: Dict[int, _TaskOutcome] = {}
    lines = path.read_text(encoding="utf-8").splitlines()
    for number, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped:
            continue
        try:
            record = json.loads(stripped)
        except json.JSONDecodeError as exc:
            if number == len(lines):
                break  # torn final record from a crash mid-write; re-run it
            raise ExperimentError(
                f"{path}:{number}: corrupt checkpoint record: {exc}"
            ) from exc
        if not isinstance(record, dict) or record.get("record") != "task":
            raise ExperimentError(
                f"{path}:{number}: not a runner checkpoint record"
            )
        if record.get("experiment") != spec.name:
            raise ExperimentError(
                f"{path}:{number}: checkpoint belongs to experiment "
                f"{record.get('experiment')!r}, not {spec.name!r}"
            )
        index = record.get("task_index")
        if not isinstance(index, int) or not 0 <= index < len(tasks):
            raise ExperimentError(
                f"{path}:{number}: task_index {index!r} outside the "
                f"{len(tasks)}-point grid"
            )
        if record.get("seed") != tasks[index].seed:
            raise ExperimentError(
                f"{path}:{number}: task {index} seed mismatch — checkpoint "
                f"was written with a different root seed or grid"
            )
        done[index] = _TaskOutcome(
            index=index,
            rows=list(record.get("rows", [])),
            status="checkpointed",
            retries=int(record.get("retries", 0)),
        )
    return done


class ExperimentRunner:
    """Executes an :class:`ExperimentSpec` serially or over a process pool."""

    def __init__(self, config: Optional[RunnerConfig] = None) -> None:
        self.config = config or RunnerConfig()

    def run(
        self,
        spec: ExperimentSpec,
        output_path: Optional[Union[str, Path]] = None,
    ) -> List[Any]:
        """Run every task of ``spec`` and return the rows in grid order.

        When ``output_path`` is given the rows are also persisted: paths
        ending in ``.jsonl`` are written as JSON Lines (streamed row by row
        as tasks finish), anything else as one JSON document (plus the spec
        name, root seed and grid size).  Both formats are finalised
        atomically (temp file + ``os.replace``), so a crash mid-write never
        leaves a truncated artifact behind.
        """
        if output_path is not None and str(output_path).endswith(".jsonl"):
            rows: List[Any] = []

            def tee() -> Iterator[Any]:
                for row in self.iter_rows(spec):
                    rows.append(row)
                    yield row

            write_jsonl(tee(), output_path)
            return rows
        rows = list(self.iter_rows(spec))
        if output_path is not None:
            write_json(rows, output_path, spec=spec)
        return rows

    def iter_rows(self, spec: ExperimentSpec) -> Iterator[Any]:
        """Lazily yield the rows of ``spec`` in grid order.

        The streaming counterpart of :meth:`run`: with ``jobs == 1`` each
        task is evaluated only when its rows are pulled; with ``jobs > 1``
        tasks are fanned out over a process pool and reassembled in grid
        order, so at most completed-but-unyielded task outputs — not the
        whole grid — are buffered in the parent process.
        """
        outcomes = self._iter_outcomes(spec)
        if self.config.metrics_path is None:
            for outcome in outcomes:
                yield from outcome.rows
            return
        # Heartbeats are written by the parent as each task's rows arrive, so
        # the stream is ordered and works identically for jobs == 1 and > 1.
        from repro.obs import MetricsWriter

        started = time.perf_counter()
        rows_emitted = 0
        tasks_total = len(spec.grid)
        with MetricsWriter(self.config.metrics_path, mode="a") as writer:
            for outcome in outcomes:
                rows_emitted += len(outcome.rows)
                writer.write(
                    {
                        "record": "runner_heartbeat",
                        "experiment": spec.name,
                        "task_index": outcome.index,
                        "tasks_total": tasks_total,
                        "rows_emitted": rows_emitted,
                        "elapsed_s": round(time.perf_counter() - started, 6),
                        "retries": outcome.retries,
                        "status": outcome.status,
                    }
                )
                yield from outcome.rows

    # ------------------------------------------------------------------ #
    # outcome production: checkpointing wrapper over execution
    # ------------------------------------------------------------------ #
    def _iter_outcomes(self, spec: ExperimentSpec) -> Iterator[_TaskOutcome]:
        """Yield one :class:`_TaskOutcome` per grid point, in grid order."""
        tasks = spec.tasks()
        if self.config.checkpoint_path is None:
            yield from self._iter_fresh_outcomes(tasks, spec)
            return
        path = Path(self.config.checkpoint_path)
        done = _load_checkpoint(path, spec, tasks)
        to_run = [task for task in tasks if task.index not in done]
        fresh = self._iter_fresh_outcomes(to_run, spec)
        path.parent.mkdir(parents=True, exist_ok=True)
        # Mirrors repro.search's checkpoint writer: append mode, one JSON
        # record per line, flushed immediately so a later crash loses at most
        # the record being written (and _load_checkpoint tolerates that tear).
        with path.open("a", encoding="utf-8") as handle:
            for task in tasks:
                if task.index in done:
                    yield done[task.index]
                    continue
                outcome = next(fresh)
                if outcome.status == "ok":
                    record = {
                        "record": "task",
                        "experiment": spec.name,
                        "task_index": outcome.index,
                        "seed": tasks[outcome.index].seed,
                        "retries": outcome.retries,
                        "rows": [_row_to_jsonable(row) for row in outcome.rows],
                    }
                    handle.write(json.dumps(record, sort_keys=True) + "\n")
                    handle.flush()
                yield outcome

    def _iter_fresh_outcomes(
        self, tasks: Sequence[ExperimentTask], spec: ExperimentSpec
    ) -> Iterator[_TaskOutcome]:
        if not tasks:
            return
        if self.config.jobs == 1 or len(tasks) <= 1:
            for task in tasks:
                yield self._run_task_serial(spec, task)
            return
        yield from self._iter_parallel_outcomes(tasks, spec)

    # ------------------------------------------------------------------ #
    # serial execution with retries
    # ------------------------------------------------------------------ #
    def _run_task_serial(
        self, spec: ExperimentSpec, task: ExperimentTask
    ) -> _TaskOutcome:
        attempt = 0
        while True:
            try:
                rows = _execute_task(spec.task_fn, _reseeded(spec, task, attempt))
            except ExperimentError:
                if attempt >= self.config.retries:
                    if self.config.on_error == "skip":
                        return _TaskOutcome(task.index, [], "failed", attempt)
                    raise
                attempt += 1
                self._backoff(attempt)
            else:
                return _TaskOutcome(task.index, rows, "ok", attempt)

    def _backoff(self, attempt: int) -> None:
        delay = self.config.retry_backoff * (2 ** (attempt - 1))
        if delay > 0:
            time.sleep(delay)

    # ------------------------------------------------------------------ #
    # parallel execution: timeouts, retries, worker-crash recovery
    # ------------------------------------------------------------------ #
    def _iter_parallel_outcomes(
        self, tasks: Sequence[ExperimentTask], spec: ExperimentSpec
    ) -> Iterator[_TaskOutcome]:
        """Fan tasks out over a :class:`ProcessPoolExecutor`, in grid order.

        The pool is treated as expendable: a timeout or a dead worker tears
        it down and re-creates it, resubmitting every unfinished task.  Only
        the task being waited on is blamed (consumes a retry); the rest are
        resubmitted at their current attempt, so an innocent neighbour of a
        crashing task never loses determinism.
        """
        config = self.config
        context = multiprocessing.get_context(config.start_method)
        call = partial(_execute_task, spec.task_fn)
        remaining: Dict[int, ExperimentTask] = {task.index: task for task in tasks}
        attempts: Dict[int, int] = {task.index: 0 for task in tasks}
        # Seed attempts advance only on *in-task* exceptions: a crash or a
        # timeout is the environment's fault, so the retry keeps the original
        # seed and reproduces exactly the rows an undisturbed run would have.
        seed_attempts: Dict[int, int] = {task.index: 0 for task in tasks}
        finished: Dict[int, _TaskOutcome] = {}
        order = [task.index for task in tasks]

        executor: Optional[ProcessPoolExecutor] = None
        futures: Dict[int, Any] = {}

        def start_executor() -> None:
            nonlocal executor, futures
            executor = ProcessPoolExecutor(
                max_workers=min(config.jobs, len(remaining)),
                mp_context=context,
            )
            futures = {
                index: executor.submit(
                    call, _reseeded(spec, task, seed_attempts[index])
                )
                for index, task in sorted(remaining.items())
            }

        def stop_executor() -> None:
            nonlocal executor, futures
            if executor is not None:
                for future in futures.values():
                    future.cancel()
                executor.shutdown(wait=False)
            executor = None
            futures = {}

        def blame(index: int, reason: str) -> None:
            """Charge a pool-level disruption (timeout/crash) to ``index``."""
            if attempts[index] >= config.retries:
                task = remaining.pop(index)
                if config.on_error == "skip":
                    finished[index] = _TaskOutcome(index, [], "failed", attempts[index])
                    return
                raise ExperimentError(
                    f"task {index} of experiment {spec.name!r} {reason} after "
                    f"{attempts[index] + 1} attempt(s) (params={_PARAMS_REPR.repr(task.params)})"
                )
            attempts[index] += 1
            self._backoff(attempts[index])

        start_executor()
        try:
            for index in order:
                while index not in finished:
                    future = futures[index]
                    try:
                        rows = future.result(timeout=config.timeout)
                    except _FutureTimeout:
                        blame(index, "timed out")
                        stop_executor()
                        if remaining:
                            start_executor()
                    except BrokenProcessPool:
                        blame(index, "crashed (worker process died)")
                        stop_executor()
                        if remaining:
                            start_executor()
                    except ExperimentError:
                        # The task itself raised inside the worker: the pool is
                        # healthy, so only this task is re-submitted — with a
                        # fresh deterministic retry seed.
                        if attempts[index] >= config.retries:
                            if config.on_error != "skip":
                                raise
                            remaining.pop(index)
                            finished[index] = _TaskOutcome(
                                index, [], "failed", attempts[index]
                            )
                        else:
                            attempts[index] += 1
                            seed_attempts[index] += 1
                            self._backoff(attempts[index])
                            assert executor is not None
                            futures[index] = executor.submit(
                                call,
                                _reseeded(
                                    spec, remaining[index], seed_attempts[index]
                                ),
                            )
                    else:
                        finished[index] = _TaskOutcome(
                            index, rows, "ok", attempts[index]
                        )
                        remaining.pop(index)
                yield finished.pop(index)
        finally:
            stop_executor()


def run_experiment(
    spec: ExperimentSpec,
    jobs: int = 1,
    output_path: Optional[Union[str, Path]] = None,
) -> List[Any]:
    """One-call convenience wrapper: run ``spec`` with ``jobs`` workers."""
    return ExperimentRunner(RunnerConfig(jobs=jobs)).run(spec, output_path=output_path)


# ---------------------------------------------------------------------- #
# JSON persistence
# ---------------------------------------------------------------------- #
def _row_to_jsonable(row: object) -> Dict[str, Any]:
    if dataclasses.is_dataclass(row) and not isinstance(row, type):
        return dataclasses.asdict(row)
    if isinstance(row, dict):
        return dict(row)
    raise ExperimentError(f"cannot serialise row of type {type(row).__name__} to JSON")


def rows_to_json(rows: Sequence[object], spec: Optional[ExperimentSpec] = None) -> str:
    """Render rows (and optional spec metadata) as a JSON document."""
    document: Dict[str, Any] = {}
    if spec is not None:
        document["experiment"] = spec.name
        document["seed"] = spec.seed
        document["grid_size"] = len(spec.grid)
    document["rows"] = [_row_to_jsonable(row) for row in rows]
    return json.dumps(document, indent=2, sort_keys=True)


def write_json(
    rows: Sequence[object],
    path: Union[str, Path],
    spec: Optional[ExperimentSpec] = None,
) -> Path:
    """Atomically write rows to ``path`` as JSON and return the path."""
    path = Path(path)
    with atomic_writer(path) as handle:
        handle.write(rows_to_json(rows, spec=spec) + "\n")
    return path


def read_json(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """Load the rows previously written by :func:`write_json`."""
    document = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(document, dict) or "rows" not in document:
        raise ExperimentError(f"{path} does not look like runner JSON output")
    return list(document["rows"])


def write_jsonl(rows: Iterable[object], path: Union[str, Path]) -> Path:
    """Atomically write rows to ``path`` as JSON Lines and return the path.

    Accepts any iterable of rows and streams them to a temporary file without
    building the whole document in memory; the temp file replaces ``path``
    only once every row has been written, so readers never observe a
    truncated sweep.
    """
    path = Path(path)
    with atomic_writer(path) as handle:
        for row in rows:
            handle.write(json.dumps(_row_to_jsonable(row), sort_keys=True) + "\n")
    return path


def iter_jsonl(path: Union[str, Path]) -> Iterator[Dict[str, Any]]:
    """Lazily yield the rows of a JSON Lines file written by :func:`write_jsonl`."""
    for _line_number, row in iter_json_lines(path, ExperimentError):
        yield row


def read_jsonl(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """Materialise the rows of a JSON Lines file as a list."""
    return list(iter_jsonl(path))
