"""Parameter sweeps over n, graph family, and seeds."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from ..analysis import Summary, aggregate_trials
from ..obs import get_logger
from .checkpoint import SweepCheckpoint, run_checkpointed, task_key
from .runner import _measure_task

_log = get_logger("harness.sweep")


@dataclass
class SweepPoint:
    """Aggregated measurements for one (algorithm, family, n[, channel]) cell."""

    algorithm: str
    family: str
    n: int
    seeds: int
    summaries: Dict[str, Summary] = field(default_factory=dict)
    channel: Optional[str] = None
    #: Trials that actually completed (== ``seeds`` unless a checkpointed
    #: sweep recorded permanent failures for some of this cell's tasks).
    completed: int = 0

    def __post_init__(self):
        if not self.completed:
            self.completed = self.seeds

    def mean(self, key: str) -> float:
        return self.summaries[key].mean


def sweep(
    algorithms: Sequence[str],
    sizes: Sequence[int],
    *,
    family: str = "gnp_log_degree",
    seeds: int = 3,
    seed_base: int = 0,
    n_jobs: Optional[int] = None,
    channel: Optional[str] = None,
    faults: Optional[Dict] = None,
    checkpoint: Optional[str] = None,
    resume: bool = False,
    retries: Optional[int] = None,
    task_timeout: Optional[float] = None,
) -> List[SweepPoint]:
    """Run every algorithm on every size with several seeds.

    Graphs are regenerated per seed (both the topology seed and the
    algorithm seed vary), so the summaries capture full run-to-run
    variance. With ``n_jobs`` (or a CLI ``--jobs`` default installed via
    :func:`repro.harness.parallel.set_default_jobs`) the trials run on a
    process pool; results are collected in task order and are identical to
    a serial run.

    ``channel`` accepts fault-wrapper spec strings alongside plain channel
    names; ``faults`` is an optional dict of
    :meth:`repro.faults.FaultPlan.random` keyword arguments applied to
    every trial (the plan is instantiated per-graph inside the worker).

    ``checkpoint`` names a JSONL file recording each finished task;
    ``resume=True`` skips tasks already recorded there, so an interrupted
    sweep picks up exactly where it stopped and produces the identical
    final aggregate. ``retries``/``task_timeout`` configure per-task
    resilience (see :func:`repro.harness.parallel.parallel_map`); a task
    that exhausts its retries under a checkpoint is recorded in the
    partial-results manifest and its cell aggregates the surviving
    trials — unless a whole cell died, which raises.
    """
    if not algorithms or not sizes or seeds < 1:
        raise ValueError("need at least one algorithm, size, and seed")
    tasks = [
        (algorithm, family, n, seed_base + trial, channel, faults)
        if faults is not None
        else (algorithm, family, n, seed_base + trial, channel)
        for algorithm in algorithms
        for n in sizes
        for trial in range(seeds)
    ]
    _log.debug(
        "sweep: %d cells (%s × %s × %d seeds, family=%s)",
        len(tasks), list(algorithms), list(sizes), seeds, family,
    )
    ledger = (
        SweepCheckpoint(checkpoint, resume=resume)
        if checkpoint is not None else None
    )
    outcomes = run_checkpointed(
        _measure_task, tasks, ledger,
        n_jobs=n_jobs, retries=retries, task_timeout=task_timeout,
    )
    points: List[SweepPoint] = []
    cursor = 0
    for algorithm in algorithms:
        for n in sizes:
            cell_tasks = tasks[cursor:cursor + seeds]
            trials = [
                outcome for outcome in outcomes[cursor:cursor + seeds]
                if outcome is not None
            ]
            cursor += seeds
            if not trials:
                manifest = ledger.manifest() if ledger is not None else {}
                errors = [
                    manifest.get(task_key(task), "no outcome recorded")
                    for task in cell_tasks
                ]
                raise RuntimeError(
                    f"sweep cell ({algorithm}, {family}, n={n}) has zero "
                    f"completed trials; failures: {errors}"
                )
            points.append(
                SweepPoint(
                    algorithm=algorithm,
                    family=family,
                    n=n,
                    seeds=seeds,
                    summaries=aggregate_trials(trials),
                    channel=channel,
                    completed=len(trials),
                )
            )
    if ledger is not None and ledger.manifest():
        _log.warning(
            "sweep finished with %d permanently failed tasks; see "
            "manifest in %s", len(ledger.manifest()), ledger.path,
        )
    return points


def series(
    points: Iterable[SweepPoint], algorithm: str, key: str
) -> Dict[int, float]:
    """Extract the mean series of one metric for one algorithm, by n."""
    return {
        point.n: point.mean(key)
        for point in points
        if point.algorithm == algorithm
    }
