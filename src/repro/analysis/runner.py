"""Process-parallel, resumable executor for the sweep and ablation grids.

The paper's headline artifacts are full sweeps over dataset × width ×
format-config.  :func:`run_sweeps` fans the (dataset, width) task grid out
over a ``ProcessPoolExecutor``; each task evaluates all candidate configs
of its width batched through one engine pass per config
(:func:`~repro.analysis.sweep.evaluate_configs_batch`) and persists its
result individually in the content-addressed artifact store.
:func:`run_ablation` runs the Section III-A rounding-mode ablation grid
(:func:`~repro.analysis.ablation.ablation_width` cells) through the same
executor.  Two consequences:

* **Resumability** — an interrupted run leaves every finished task's
  artifact behind; the next invocation loads those and only submits the
  missing tasks.  Parent models are likewise store-backed, so resumed (or
  racing) workers *load* trained parameters instead of retraining.
* **Bit-identity** — workers execute exactly the serial
  :func:`~repro.analysis.sweep.sweep_width` code path on bit-identically
  reloaded models, so ``jobs=N`` output equals the serial output bit for
  bit (property-tested).

With ``REPRO_NO_CACHE=1`` the store is bypassed: workers return results
over the pipe only, and each worker trains its own parent model.

CLI: ``python -m repro run table2|fig9|sweep|ablation --jobs N``.  The
full guide — phases, resume semantics, environment variables — is
``docs/running-experiments.md``.
"""

from __future__ import annotations

import math
import random
import shutil
import tempfile
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

from .. import faults
from .ablation import ABLATION_WIDTHS, ablation_task_key, ablation_width
from .cache import cache_enabled
from .store import artifact_store
from .sweep import (
    EXPERIMENTS,
    _table2_row,
    figure9_series,
    model_key,
    sweep_task_key,
    sweep_width,
    trained_model,
)

__all__ = [
    "SweepTask",
    "TaskFailure",
    "GridQuarantine",
    "DEFAULT_DATASETS",
    "DEFAULT_WIDTHS",
    "DEFAULT_MAX_ATTEMPTS",
    "plan_tasks",
    "run_sweeps",
    "run_table2",
    "run_fig9",
    "run_ablation",
]

#: Attempts (first try included) before a task is quarantined.
DEFAULT_MAX_ATTEMPTS = 3

#: Base of the exponential backoff between retry rounds, in seconds.
DEFAULT_RETRY_BACKOFF_S = 0.5

#: Fires at the start of one grid task inside a pool worker; context is
#: ``task=<dataset>-<width>``.  ``kill`` here exercises the
#: BrokenProcessPool recovery path, ``raise`` the task-retry path.
POINT_TASK = faults.register_point(
    "runner.task", "start of one grid task in a pool worker"
)

DEFAULT_DATASETS: tuple[str, ...] = ("wbc", "iris", "mushroom")
DEFAULT_WIDTHS: tuple[int, ...] = (5, 6, 7, 8)

#: Progress callback: called with one human-readable line per event.
Progress = Callable[[str], None]


@dataclass(frozen=True)
class SweepTask:
    """One unit of the fan-out: a full-width sweep on one dataset."""

    dataset: str
    width: int

    @property
    def label(self) -> str:
        return f"{self.dataset}-{self.width}"


@dataclass(frozen=True)
class TaskFailure:
    """One quarantined task: what failed, how often, and why."""

    task: SweepTask
    attempts: int
    error: str

    def as_dict(self) -> dict:
        return {
            "dataset": self.task.dataset,
            "width": self.task.width,
            "attempts": self.attempts,
            "error": self.error,
        }


class GridQuarantine(RuntimeError):
    """Raised when a grid finishes with poison tasks quarantined.

    Every healthy task's result is still computed (and persisted to the
    store) before this is raised; ``results`` carries them and ``report``
    lists the quarantined tasks with their attempt counts and last
    errors, so a caller can salvage the partial grid.
    """

    def __init__(self, failures: list[TaskFailure],
                 results: dict["SweepTask", dict]):
        self.failures = failures
        self.results = results
        names = ", ".join(f.task.label for f in failures)
        super().__init__(
            f"{len(failures)} task(s) quarantined after repeated "
            f"failures: {names}"
        )

    @property
    def report(self) -> list[dict]:
        return [failure.as_dict() for failure in self.failures]


def plan_tasks(
    datasets: Sequence[str], widths: Sequence[int]
) -> list[SweepTask]:
    """The task grid, in deterministic (dataset-major) order."""
    for name in datasets:
        if name not in EXPERIMENTS:
            raise KeyError(f"unknown dataset '{name}'")
    for n in widths:
        if not 2 <= int(n) <= 32:
            raise ValueError(f"unsupported sweep width {n}")
    return [SweepTask(d, int(n)) for d in datasets for n in widths]


# -- worker entry points (module level: picklable under any start method) --
def _train_worker(dataset: str) -> str:
    """Train (and store) one parent model; returns the dataset name."""
    trained_model(dataset)
    return dataset


def _sweep_worker(task: SweepTask) -> tuple[SweepTask, dict]:
    """Run one sweep task; the result is also persisted to the store."""
    return task, sweep_width(task.dataset, task.width)


def _ablation_worker(task: SweepTask) -> tuple[SweepTask, dict]:
    """Run one ablation task; the result is also persisted to the store."""
    return task, ablation_width(task.dataset, task.width)


def _guarded_worker(
    worker: Callable[[SweepTask], tuple[SweepTask, dict]],
    task: SweepTask,
    journal_dir: str,
) -> tuple[SweepTask, str, object]:
    """Pool entry point that never lets a *task* error break the pool.

    Returns ``(task, "ok", result)`` or ``(task, "error", message)`` —
    exceptions become values, so only a process death (crash, OOM kill,
    injected ``kill``) surfaces as ``BrokenProcessPool`` in the parent.
    A journal marker brackets the attempt: present-without-artifact after
    a pool crash means *this* task is a suspect and its attempt counts.
    """
    marker = Path(journal_dir) / task.label
    try:
        marker.write_text(str(task))
    except OSError:
        marker = None
    try:
        faults.fire(POINT_TASK, task=task.label)
        _, value = worker(task)
        return task, "ok", value
    except Exception as exc:  # noqa: BLE001 — reported, not swallowed
        return task, "error", f"{type(exc).__name__}: {exc}"
    finally:
        if marker is not None:
            marker.unlink(missing_ok=True)


def _noop(_: str) -> None:
    return None


def _backoff_delay(rng: random.Random, base_s: float, attempt: int) -> float:
    """Exponential backoff with jitter: ``base * 2^(attempt-1) * [0.5, 1.5)``."""
    return base_s * (2 ** max(0, attempt - 1)) * (0.5 + rng.random())


def _pretrain_parents(
    pending: list[SweepTask], jobs: int, progress: Progress,
) -> None:
    """Phase 1: train missing parent models in parallel, crash-tolerant.

    A pool crash here is non-fatal — any model still missing is simply
    trained on demand by the phase-2 worker that first needs it (the
    store makes the duplicate-training race benign, just slower).
    """
    store = artifact_store()
    missing = [
        name
        for name in dict.fromkeys(t.dataset for t in pending)
        if not store.has_model(model_key(EXPERIMENTS[name]))
    ]
    if not missing:
        return
    try:
        with ProcessPoolExecutor(
            max_workers=min(jobs, len(missing))
        ) as pool:
            for name in pool.map(_train_worker, missing):
                progress(f"trained parent model: {name}")
    except BrokenProcessPool:
        progress(
            "pre-training pool crashed; remaining parents will be "
            "trained on demand by sweep workers"
        )


def _run_grid(
    tasks: list[SweepTask],
    evaluate: Callable[[str, int], dict],
    task_key: Callable[[str, int], str],
    worker: Callable[[SweepTask], tuple[SweepTask, dict]],
    jobs: int,
    progress: Progress,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    retry_backoff_s: float = DEFAULT_RETRY_BACKOFF_S,
) -> dict[SweepTask, dict]:
    """Shared grid executor: store-resumed, pre-trained, process-parallel,
    and self-healing.

    ``evaluate`` is the serial in-process path, ``task_key`` the store key
    of one task's artifact (resume granularity), ``worker`` the picklable
    process-pool entry point.  Sweeps and ablations differ only in those
    three ingredients.

    Failure policy (both serial and parallel): a task that raises is
    retried with exponential backoff + jitter; after ``max_attempts``
    attempts it is quarantined and the rest of the grid still completes,
    after which :class:`GridQuarantine` reports the casualties.  In the
    parallel path a dead worker process additionally breaks the pool; the
    runner rebuilds the pool, reloads any artifacts that were persisted
    before the crash, and charges an attempt only to the tasks the
    journal implicates — innocent batchmates are resubmitted for free.
    """
    if max_attempts < 1:
        raise ValueError("max_attempts must be >= 1")
    if not (math.isfinite(retry_backoff_s) and retry_backoff_s >= 0):
        raise ValueError("retry_backoff_s must be finite and >= 0")
    total = len(tasks)
    results: dict[SweepTask, dict] = {}
    attempts: dict[SweepTask, int] = {}
    failures: dict[SweepTask, TaskFailure] = {}
    rng = random.Random(20190319)

    def quarantine(task: SweepTask, error: str) -> None:
        failures[task] = TaskFailure(task, attempts[task], error)
        progress(
            f"quarantined {task.label} after {attempts[task]} "
            f"attempt(s): {error}"
        )

    def finish() -> dict[SweepTask, dict]:
        if failures:
            ordered = [failures[t] for t in tasks if t in failures]
            raise GridQuarantine(
                ordered, {t: results[t] for t in tasks if t in results}
            )
        return {task: results[task] for task in tasks}

    if jobs <= 1:
        done = 0
        for task in tasks:
            while True:
                attempts[task] = attempts.get(task, 0) + 1
                try:
                    results[task] = evaluate(task.dataset, task.width)
                except Exception as exc:  # noqa: BLE001 — retried/reported
                    error = f"{type(exc).__name__}: {exc}"
                    if attempts[task] >= max_attempts:
                        quarantine(task, error)
                        break
                    delay = _backoff_delay(
                        rng, retry_backoff_s, attempts[task]
                    )
                    progress(
                        f"retrying {task.label} (attempt "
                        f"{attempts[task] + 1}/{max_attempts}): {error}"
                    )
                    time.sleep(delay)
                else:
                    done += 1
                    progress(
                        f"[{done}/{total}] {task.dataset} "
                        f"n={task.width} done"
                    )
                    break
        return finish()

    pending: list[SweepTask] = []
    store = artifact_store()
    if cache_enabled():
        for task in tasks:
            cached = store.load_result(task_key(task.dataset, task.width))
            if cached is not None:
                results[task] = cached
                progress(
                    f"[{len(results)}/{total}] {task.dataset} "
                    f"n={task.width} cached"
                )
            else:
                pending.append(task)
    else:
        pending = list(tasks)

    if pending and cache_enabled():
        _pretrain_parents(pending, jobs, progress)

    # Phase 2: fan pending tasks out, round by round.  One round = one
    # pool; a crashed pool ends the round early and the survivors' tasks
    # roll into the next round's pending set.
    journal_dir = tempfile.mkdtemp(prefix="repro-grid-journal-")
    try:
        retry_round = 0
        while pending:
            round_tasks = pending
            pending = []
            errored: list[tuple[SweepTask, str]] = []
            crashed: list[SweepTask] = []
            workers = min(jobs, len(round_tasks))
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = {
                    pool.submit(_guarded_worker, worker, task, journal_dir):
                    task
                    for task in round_tasks
                }
                outstanding = set(futures)
                while outstanding:
                    finished, outstanding = wait(
                        outstanding, return_when=FIRST_COMPLETED
                    )
                    for future in finished:
                        task = futures[future]
                        try:
                            _, status, value = future.result()
                        except BrokenProcessPool:
                            crashed.append(task)
                            continue
                        if status == "ok":
                            results[task] = value
                            progress(
                                f"[{len(results)}/{total}] {task.dataset} "
                                f"n={task.width} done"
                            )
                        else:
                            errored.append((task, str(value)))

            # A task that raised (without killing its process) is always
            # charged an attempt.
            for task, error in errored:
                attempts[task] = attempts.get(task, 0) + 1
                if attempts[task] >= max_attempts:
                    quarantine(task, error)
                else:
                    pending.append(task)

            if crashed:
                progress(
                    f"worker pool crashed; rebuilding "
                    f"({len(crashed)} task(s) interrupted)"
                )
                # Salvage results persisted before the crash, then use
                # the journal to tell suspects (attempt started, no
                # artifact) from innocent batchmates (free resubmit).
                suspects = []
                innocents = []
                for task in crashed:
                    if cache_enabled():
                        cached = store.load_result(
                            task_key(task.dataset, task.width)
                        )
                        if cached is not None:
                            results[task] = cached
                            progress(
                                f"[{len(results)}/{total}] {task.dataset} "
                                f"n={task.width} recovered from store"
                            )
                            continue
                    if (Path(journal_dir) / task.label).exists():
                        suspects.append(task)
                    else:
                        innocents.append(task)
                if not suspects:
                    # The journal implicated nobody (e.g. death before
                    # the marker landed): charge everyone so a repeat
                    # killer cannot respawn the pool forever.
                    suspects, innocents = innocents, []
                for task in suspects:
                    attempts[task] = attempts.get(task, 0) + 1
                    if attempts[task] >= max_attempts:
                        quarantine(task, "worker process died")
                    else:
                        pending.append(task)
                pending.extend(innocents)
                for task in crashed:
                    (Path(journal_dir) / task.label).unlink(missing_ok=True)

            if pending and (errored or crashed):
                retry_round += 1
                delay = _backoff_delay(rng, retry_backoff_s, retry_round)
                progress(
                    f"retrying {len(pending)} task(s) in {delay:.2f}s "
                    f"(round {retry_round})"
                )
                time.sleep(delay)
    finally:
        shutil.rmtree(journal_dir, ignore_errors=True)

    return finish()


def run_sweeps(
    datasets: Sequence[str] = DEFAULT_DATASETS,
    widths: Sequence[int] = DEFAULT_WIDTHS,
    jobs: int = 1,
    progress: Progress | None = None,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    retry_backoff_s: float = DEFAULT_RETRY_BACKOFF_S,
) -> dict[SweepTask, dict]:
    """Execute the sweep grid, parallel over tasks, resuming from the store.

    Returns ``{task: sweep_result}`` for every task in the grid, in plan
    order.  ``jobs <= 1`` runs serially in-process (the reference path);
    ``jobs > 1`` fans pending tasks out over worker processes after a
    pre-training phase that guarantees each parent model is trained exactly
    once and then *loaded* by every task that needs it.  Crashed workers
    are retried (``max_attempts`` with exponential backoff); tasks that
    keep failing are quarantined into a :class:`GridQuarantine` report
    after the rest of the grid completes.
    """
    return _run_grid(
        plan_tasks(datasets, widths),
        sweep_width,
        sweep_task_key,
        _sweep_worker,
        jobs,
        progress or _noop,
        max_attempts=max_attempts,
        retry_backoff_s=retry_backoff_s,
    )


def run_ablation(
    datasets: Sequence[str] = DEFAULT_DATASETS,
    widths: Sequence[int] = ABLATION_WIDTHS,
    jobs: int = 1,
    progress: Progress | None = None,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    retry_backoff_s: float = DEFAULT_RETRY_BACKOFF_S,
) -> dict[SweepTask, dict]:
    """Execute the rounding-mode ablation grid through the task runner.

    Same fan-out, store-cached resume, pre-training phase, and
    retry/quarantine policy as :func:`run_sweeps`; each task is one
    :func:`~repro.analysis.ablation.ablation_width` cell (exact vs naive
    vs truncated accuracy for every posit candidate at that width).
    """
    return _run_grid(
        plan_tasks(datasets, widths),
        ablation_width,
        ablation_task_key,
        _ablation_worker,
        jobs,
        progress or _noop,
        max_attempts=max_attempts,
        retry_backoff_s=retry_backoff_s,
    )


def run_table2(
    datasets: Sequence[str] = DEFAULT_DATASETS,
    jobs: int = 1,
    progress: Progress | None = None,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    retry_backoff_s: float = DEFAULT_RETRY_BACKOFF_S,
) -> list[dict]:
    """Table II rows via the parallel runner (bit-identical to serial)."""
    sweeps = run_sweeps(
        datasets, (8,), jobs=jobs, progress=progress,
        max_attempts=max_attempts, retry_backoff_s=retry_backoff_s,
    )
    return [_table2_row(sweeps[SweepTask(name, 8)]) for name in datasets]


def run_fig9(
    widths: Sequence[int] = DEFAULT_WIDTHS,
    datasets: Sequence[str] = DEFAULT_DATASETS,
    jobs: int = 1,
    progress: Progress | None = None,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    retry_backoff_s: float = DEFAULT_RETRY_BACKOFF_S,
) -> dict[str, list[dict]]:
    """Fig. 9 series via the parallel runner (bit-identical to serial)."""
    sweeps = run_sweeps(
        datasets, widths, jobs=jobs, progress=progress,
        max_attempts=max_attempts, retry_backoff_s=retry_backoff_s,
    )
    lookup = {(t.dataset, t.width): v for t, v in sweeps.items()}
    return figure9_series(tuple(widths), tuple(datasets), sweeps=lookup)
