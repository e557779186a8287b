"""Process-parallel execution of independent simulation tasks.

Multi-seed sweeps and experiment batteries are embarrassingly parallel:
every (algorithm, graph, seed) cell is an independent, deterministic
simulation. This module provides the one primitive the harness needs —
:func:`parallel_map` — built on :class:`concurrent.futures.ProcessPoolExecutor`
with four guarantees:

* **determinism** — workers receive fully self-describing task tuples
  (family name, size, seed, channel, ...) and regenerate their graphs
  locally; every cell derives all randomness from its own seed (no
  process-shared ``random.Random``/global generator state anywhere in the
  task path), so a parallel run is bit-identical to the serial one —
  locked by ``tests/test_parallel_determinism.py``;
* **ordered collection** — results come back in task order regardless of
  which worker finished first;
* **graceful degradation** — ``n_jobs=1`` (the default) never touches a
  process pool, so nested calls and test runs stay single-process;
* **resilience** — per-task wall-clock timeouts (:class:`TaskTimeoutError`),
  bounded retries with exponential backoff, and worker-crash recovery: a
  worker dying mid-task (segfault, OOM-kill, ``os._exit``) breaks only its
  own chunk (:class:`WorkerCrashError`), which is resubmitted to a rebuilt
  pool instead of hanging the sweep. A ``KeyboardInterrupt`` terminates
  every worker and returns promptly — no orphan processes.

The module-level defaults (:func:`set_default_jobs`,
:func:`set_default_resilience`) let CLI ``--jobs`` / ``--retries`` /
``--task-timeout`` flags configure every sweep an experiment performs
without threading parameters through the whole registry.

Retries are the unit of *chunks* (``chunksize`` tasks, default 1): a
failed or timed-out chunk is recomputed whole, which is sound because
every task is a deterministic pure function of its tuple.
"""

from __future__ import annotations

import heapq
import os
import signal
import threading
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from typing import (
    Any,
    Callable,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

Task = TypeVar("Task")
Result = TypeVar("Result")

_DEFAULT_JOBS = 1

#: Sentinel distinguishing "not given" from an explicit ``None``.
_UNSET = object()


class TaskTimeoutError(RuntimeError):
    """A task exceeded its per-task wall-clock budget (``task_timeout``)."""


class WorkerCrashError(RuntimeError):
    """A worker process died mid-task (segfault, OOM-kill, ``os._exit``)."""


_DEFAULT_RETRIES = 0
_DEFAULT_TASK_TIMEOUT: Optional[float] = None
_DEFAULT_BACKOFF = 0.5


def set_default_resilience(
    *,
    retries: Any = _UNSET,
    task_timeout: Any = _UNSET,
    backoff: Any = _UNSET,
) -> None:
    """Set the retry/timeout defaults used when callers pass ``None``.

    ``retries`` is the number of *additional* attempts after the first
    (0 = fail fast); ``task_timeout`` is the per-task wall-clock budget in
    seconds (``None`` = unlimited); ``backoff`` is the base retry delay —
    attempt ``k`` waits ``backoff * 2**(k-1)`` seconds. Only the keywords
    actually passed are changed.
    """
    global _DEFAULT_RETRIES, _DEFAULT_TASK_TIMEOUT, _DEFAULT_BACKOFF
    if retries is not _UNSET:
        _DEFAULT_RETRIES = _validate_retries(retries)
    if task_timeout is not _UNSET:
        _DEFAULT_TASK_TIMEOUT = _validate_timeout(task_timeout)
    if backoff is not _UNSET:
        _DEFAULT_BACKOFF = _validate_backoff(backoff)


def default_resilience() -> Tuple[int, Optional[float], float]:
    """The ``(retries, task_timeout, backoff)`` defaults currently active."""
    return _DEFAULT_RETRIES, _DEFAULT_TASK_TIMEOUT, _DEFAULT_BACKOFF


@contextmanager
def use_resilience(
    *,
    retries: Any = _UNSET,
    task_timeout: Any = _UNSET,
    backoff: Any = _UNSET,
):
    """Temporarily install resilience defaults (see
    :func:`set_default_resilience`); restores the previous values on exit."""
    previous = default_resilience()
    set_default_resilience(
        retries=retries, task_timeout=task_timeout, backoff=backoff
    )
    try:
        yield
    finally:
        set_default_resilience(
            retries=previous[0], task_timeout=previous[1], backoff=previous[2]
        )


def _validate_retries(retries: int) -> int:
    if not isinstance(retries, int) or retries < 0:
        raise ValueError(f"retries must be a non-negative int, got {retries!r}")
    return retries


def _validate_timeout(timeout: Optional[float]) -> Optional[float]:
    if timeout is None:
        return None
    timeout = float(timeout)
    if timeout <= 0:
        raise ValueError(f"task_timeout must be positive or None, got {timeout}")
    return timeout


def _validate_backoff(backoff: float) -> float:
    backoff = float(backoff)
    if backoff < 0:
        raise ValueError(f"backoff must be non-negative, got {backoff}")
    return backoff


def _observability_worker_init(telemetry_path: Optional[str]) -> None:
    """Worker bootstrap: re-install the parent's telemetry sink.

    Spawn-started workers inherit no module globals, so the sink path must
    be re-installed in each — this is what makes streaming JSONL emission
    work transparently under process pools. Everything a simulation
    depends on travels in the task tuple itself.
    """
    from ..obs.telemetry import set_telemetry_path

    set_telemetry_path(telemetry_path)


def set_default_jobs(n_jobs: Optional[int]) -> None:
    """Set the job count used when callers pass ``n_jobs=None``.

    ``None`` resets to serial execution; ``-1`` means one worker per CPU.
    """
    global _DEFAULT_JOBS
    _DEFAULT_JOBS = 1 if n_jobs is None else resolve_jobs(n_jobs)


def default_jobs() -> int:
    """The process count used when ``n_jobs`` is not given explicitly."""
    return _DEFAULT_JOBS


@contextmanager
def use_jobs(n_jobs: Optional[int]):
    """Temporarily install ``n_jobs`` as the module default.

    ``None`` is a no-op (keep whatever default is active), so callers can
    pass their own ``n_jobs=None`` through unconditionally. This is how
    ``run_all(n_jobs=...)`` parallelizes every sweep inside every
    experiment without changing a single experiment signature.
    """
    global _DEFAULT_JOBS
    if n_jobs is None:
        yield
        return
    previous = _DEFAULT_JOBS
    _DEFAULT_JOBS = resolve_jobs(n_jobs)
    try:
        yield
    finally:
        _DEFAULT_JOBS = previous


def resolve_jobs(n_jobs: Optional[int]) -> int:
    """Normalize an ``n_jobs`` knob to a concrete worker count.

    ``None`` → the module default; ``-1`` → ``os.cpu_count()``; positive
    values pass through. Zero and other negatives are rejected.
    """
    if n_jobs is None:
        return _DEFAULT_JOBS
    if n_jobs == -1:
        return os.cpu_count() or 1
    if n_jobs < 1:
        raise ValueError(f"n_jobs must be positive or -1, got {n_jobs}")
    return n_jobs


def _call_with_timeout(
    fn: Callable[[Task], Result], task: Task, timeout: Optional[float]
) -> Result:
    """Run one task under a ``SIGALRM``-based wall-clock budget.

    Falls back to an unbounded call when the platform has no ``SIGALRM``
    or we are not on the main thread (signal handlers can only be
    installed there) — pool workers run tasks on their main thread, so
    the budget is enforced wherever it can be.
    """
    if (
        not timeout
        or not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
    ):
        return fn(task)

    def _on_alarm(signum, frame):
        raise TaskTimeoutError(
            f"task exceeded its {timeout}s wall-clock budget"
        )

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        return fn(task)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _run_chunk(
    fn: Callable[[Task], Result],
    tasks: Sequence[Task],
    timeout: Optional[float],
) -> List[Result]:
    """Worker entry point: run one chunk of tasks, each under the budget.

    The chunk is the retry unit: any failure (including a timeout) aborts
    the whole chunk, which the parent recomputes — sound because tasks
    are deterministic pure functions of their tuples.
    """
    return [_call_with_timeout(fn, task, timeout) for task in tasks]


def _terminate_pool(pool: ProcessPoolExecutor) -> None:
    """Hard-stop a pool: terminate workers, then release its resources.

    Used on the error path (``KeyboardInterrupt``, exhausted retries with
    no failure handler): a graceful ``shutdown(wait=True)`` would block on
    whatever simulation the workers are mid-way through, and leaving them
    running would orphan processes past interpreter exit.
    """
    processes = getattr(pool, "_processes", None) or {}
    for process in list(processes.values()):
        if process.is_alive():
            process.terminate()
    pool.shutdown(wait=False, cancel_futures=True)


def parallel_map(
    fn: Callable[[Task], Result],
    tasks: Iterable[Task],
    *,
    n_jobs: Optional[int] = None,
    chunksize: int = 1,
    retries: Optional[int] = None,
    task_timeout: Optional[float] = None,
    backoff: Optional[float] = None,
    on_result: Optional[Callable[[int, Task, Result], None]] = None,
    on_failure: Optional[Callable[[Task, BaseException], None]] = None,
) -> List[Optional[Result]]:
    """Apply ``fn`` to every task, in order, optionally across processes.

    ``fn`` and the tasks must be picklable (``fn`` should be a module-level
    function). With one job — or one task — no pool is created. Each task
    must carry everything its simulation depends on (engine, channel,
    faults): spawn-started workers inherit nothing from the parent but
    its telemetry sink.

    Resilience knobs (``None`` = the module defaults, see
    :func:`set_default_resilience`):

    * ``task_timeout`` — per-task wall-clock budget in seconds, enforced
      in the worker via ``SIGALRM``; an overrun raises
      :class:`TaskTimeoutError` for that chunk.
    * ``retries`` — additional attempts per chunk after the first; attempt
      ``k`` is delayed by ``backoff * 2**(k-1)`` seconds. A worker dying
      mid-chunk (:class:`WorkerCrashError`) rebuilds the pool; the crash
      consumes an attempt only for the chunk that provably caused it
      (crash suspects rerun solo), so one poison task never exhausts the
      retries of tasks that merely shared the pool with it.
    * ``on_failure(task, exc)`` — invoked once per task when its chunk
      exhausts all attempts; the task's slot in the returned list is then
      ``None``. Without it the first exhausted failure propagates.
    * ``on_result(index, task, result)`` — invoked in the parent as each
      chunk completes (completion order, not task order) — the checkpoint
      hook for :mod:`repro.harness.checkpoint`.

    ``KeyboardInterrupt`` (and any other unexpected error) terminates all
    workers and cancels queued work before propagating — no orphans.
    """
    task_list: Sequence[Task] = list(tasks)
    retries = (
        _DEFAULT_RETRIES if retries is None else _validate_retries(retries)
    )
    task_timeout = _validate_timeout(
        _DEFAULT_TASK_TIMEOUT if task_timeout is None else task_timeout
    )
    backoff = (
        _DEFAULT_BACKOFF if backoff is None else _validate_backoff(backoff)
    )
    if chunksize < 1:
        raise ValueError(f"chunksize must be positive, got {chunksize}")
    jobs = min(resolve_jobs(n_jobs), max(1, len(task_list)))
    if jobs == 1:
        return _serial_map(
            fn, task_list, task_timeout, retries, backoff, on_result,
            on_failure,
        )
    from ..obs.telemetry import telemetry_path

    return _pool_map(
        fn, task_list, jobs, chunksize, _observability_worker_init,
        (telemetry_path(),), task_timeout, retries, backoff, on_result,
        on_failure,
    )


def _serial_map(
    fn, task_list, task_timeout, retries, backoff, on_result, on_failure
) -> List[Optional[Result]]:
    """The ``n_jobs=1`` path, with identical timeout/retry semantics."""
    results: List[Optional[Result]] = []
    for index, task in enumerate(task_list):
        attempt = 0
        while True:
            try:
                value = _call_with_timeout(fn, task, task_timeout)
            except Exception as exc:
                attempt += 1
                if attempt <= retries:
                    time.sleep(backoff * 2 ** (attempt - 1))
                    continue
                if on_failure is None:
                    raise
                on_failure(task, exc)
                value = None
            else:
                if on_result is not None:
                    on_result(index, task, value)
            break
        results.append(value)
    return results


def _pool_map(
    fn, task_list, jobs, chunksize, initializer, initargs,
    task_timeout, retries, backoff, on_result, on_failure,
) -> List[Optional[Result]]:
    """The process-pool path: chunked submission with retry bookkeeping.

    The parent keeps four queues — ``ready`` (chunks to submit now),
    ``probation`` (crash suspects, run one at a time), ``delayed`` (a heap
    of backoff deadlines), and ``running`` (futures in flight) — and
    drains completions with ``FIRST_COMPLETED`` waits. A
    ``BrokenProcessPool`` is not fatal: completed futures still hold
    their results and the pool is rebuilt before resubmission.

    Crash attribution: a dead worker breaks the whole pool, so with
    several chunks in flight the culprit is ambiguous — those chunks are
    requeued *uncharged* into the probation lane, which runs one chunk at
    a time. A crash with exactly one chunk in flight identifies the
    culprit definitively; only then is a retry attempt charged
    (:class:`WorkerCrashError`). Innocent bystanders therefore never
    exhaust their retries on someone else's segfault, while a
    deterministic crasher still fails after ``retries + 1`` solo runs.
    """
    chunks: List[List[Tuple[int, Task]]] = [
        [(i, task_list[i]) for i in range(start, min(start + chunksize,
                                                     len(task_list)))]
        for start in range(0, len(task_list), chunksize)
    ]
    results: List[Optional[Result]] = [None] * len(task_list)
    attempts = [0] * len(chunks)
    ready: deque = deque(range(len(chunks)))
    probation: deque = deque()
    suspects: set = set()
    delayed: List[Tuple[float, int]] = []

    def make_pool() -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=jobs, initializer=initializer, initargs=initargs
        )

    def record_failure(chunk_index: int, exc: BaseException) -> None:
        attempts[chunk_index] += 1
        if attempts[chunk_index] <= retries:
            delay = backoff * 2 ** (attempts[chunk_index] - 1)
            heapq.heappush(delayed, (time.monotonic() + delay, chunk_index))
            return
        if on_failure is None:
            raise exc
        for _, task in chunks[chunk_index]:
            on_failure(task, exc)

    def record_success(chunk_index: int, values: Sequence[Result]) -> None:
        for (index, task), value in zip(chunks[chunk_index], values):
            results[index] = value
            if on_result is not None:
                on_result(index, task, value)

    pool = make_pool()
    running: dict = {}

    def submit(chunk_index: int):
        """Submit one chunk, transparently rebuilding a broken idle pool."""
        nonlocal pool
        while True:
            try:
                future = pool.submit(
                    _run_chunk, fn,
                    [task for _, task in chunks[chunk_index]],
                    task_timeout,
                )
            except BrokenProcessPool:
                # Broke while idle (no attempt to charge): old futures
                # are already settled and stay readable after shutdown.
                pool.shutdown(wait=False, cancel_futures=True)
                pool = make_pool()
                continue
            running[future] = chunk_index
            return

    try:
        while ready or probation or delayed or running:
            now = time.monotonic()
            while delayed and delayed[0][0] <= now:
                chunk_index = heapq.heappop(delayed)[1]
                # Known crashers rerun solo so their next crash is charged
                # to them, not to whoever happens to share the pool.
                if chunk_index in suspects:
                    probation.append(chunk_index)
                else:
                    ready.append(chunk_index)
            if probation:
                # Probation lane: run crash suspects one at a time with
                # nothing else in flight, so a crash has an unambiguous
                # culprit. Ready chunks wait until probation drains.
                if not running:
                    submit(probation.popleft())
            else:
                while ready:
                    submit(ready.popleft())
            if not running:
                # Everything left is backing off: sleep to the deadline.
                time.sleep(max(0.0, delayed[0][0] - time.monotonic()))
                continue
            wait_timeout = (
                max(0.0, delayed[0][0] - time.monotonic())
                if delayed else None
            )
            done, _ = wait(
                running, timeout=wait_timeout, return_when=FIRST_COMPLETED
            )
            pool_broken = False
            crashed: List[int] = []
            if done:
                # Drain every settled future: once the pool breaks, all
                # in-flight futures settle too, but completed ones still
                # hold real results — keep them.
                for future in list(running):
                    if not future.done():
                        continue
                    chunk_index = running.pop(future)
                    try:
                        values = future.result()
                    except BrokenProcessPool:
                        pool_broken = True
                        crashed.append(chunk_index)
                    except Exception as exc:
                        record_failure(chunk_index, exc)
                    else:
                        record_success(chunk_index, values)
            if pool_broken:
                if len(crashed) == 1 and not running:
                    # Exactly one chunk was in flight when the worker died:
                    # the culprit is unambiguous, so charge its attempt.
                    suspects.add(crashed[0])
                    record_failure(
                        crashed[0],
                        WorkerCrashError(
                            "worker process died mid-chunk "
                            "(segfault, OOM-kill, or hard exit)"
                        ),
                    )
                else:
                    # Several chunks were in flight — any of them could
                    # have killed the worker. Requeue them all *uncharged*
                    # into the probation lane; each reruns solo, where the
                    # real crasher is identified and charged while the
                    # bystanders complete normally.
                    probation.extend(crashed)
                for future, chunk_index in list(running.items()):
                    # Unsettled futures on a broken pool never complete;
                    # resubmit them to the fresh pool at no attempt cost.
                    future.cancel()
                    ready.append(chunk_index)
                running.clear()
                pool.shutdown(wait=False, cancel_futures=True)
                pool = make_pool()
    except BaseException:
        _terminate_pool(pool)
        raise
    pool.shutdown(wait=True)
    return results
