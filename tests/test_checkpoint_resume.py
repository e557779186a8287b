"""Sweep checkpoint/resume: record-and-skip ledger + kill-mid-flight resume.

Locks the resilient-sweep contract:

* a fresh (non-resume) checkpoint truncates stale state;
* resume replays recorded outcomes with ZERO recompute — proven by
  counting task-function invocations;
* failed tasks are re-attempted on resume, and an ``ok`` record
  supersedes an earlier ``failed`` one;
* ``sweep(..., checkpoint=..., resume=True)`` over an already-complete
  checkpoint recomputes nothing and reproduces the identical aggregate;
* a checkpointed run SIGKILLed mid-flight resumes exactly: only the
  unrecorded tasks run again and the merged outcomes equal an
  uninterrupted run's.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.harness.checkpoint import (
    SweepCheckpoint,
    run_checkpointed,
    task_key,
)
from repro.harness.sweep import sweep
from repro.obs.telemetry import read_records


def _outcome(task):
    return {"x": task[0], "sq": task[0] ** 2}


TASKS = [(i,) for i in range(6)]


# -- ledger basics --------------------------------------------------------

def test_task_key_is_stable_and_distinct():
    assert task_key((1, "a", 2.5)) == task_key((1, "a", 2.5))
    assert task_key((1, 2)) != task_key((2, 1))
    # Keys are valid JSON over the tuple-as-list: greppable + parseable.
    assert json.loads(task_key(("luby", "grid", 64, 0))) == [
        "luby", "grid", 64, 0
    ]


def test_fresh_checkpoint_truncates_stale_state(tmp_path):
    path = str(tmp_path / "cp.jsonl")
    first = SweepCheckpoint(path, resume=False)
    run_checkpointed(_outcome, TASKS, first)
    assert len(first) == len(TASKS)
    # A non-resume run must not inherit the earlier sweep's records.
    fresh = SweepCheckpoint(path, resume=False)
    assert len(fresh) == 0
    assert os.path.getsize(path) == 0


def test_resume_replays_without_recompute(tmp_path):
    path = str(tmp_path / "cp.jsonl")
    first = SweepCheckpoint(path, resume=False)
    run_checkpointed(_outcome, TASKS[:4], first)

    calls = []

    def counting(task):
        calls.append(task)
        return _outcome(task)

    resumed = SweepCheckpoint(path, resume=True)
    assert len(resumed) == 4
    outcomes = run_checkpointed(counting, TASKS, resumed)
    # Only the two unrecorded tasks ran; the rest were replayed verbatim.
    assert calls == TASKS[4:]
    assert outcomes == [_outcome(task) for task in TASKS]


def test_failed_task_reruns_on_resume_and_ok_supersedes(tmp_path):
    path = str(tmp_path / "cp.jsonl")
    first = SweepCheckpoint(path, resume=False)

    def flaky(task):
        if task[0] == 2:
            raise RuntimeError("transient")
        return _outcome(task)

    outcomes = run_checkpointed(
        flaky, TASKS, first, on_failure=lambda task, exc: None
    )
    assert outcomes[2] is None
    assert list(first.manifest().values()) == ["RuntimeError: transient"]

    resumed = SweepCheckpoint(path, resume=True)
    assert not resumed.completed(TASKS[2])  # failed => not completed
    outcomes = run_checkpointed(_outcome, TASKS, resumed)
    assert outcomes == [_outcome(task) for task in TASKS]
    assert resumed.manifest() == {}  # the ok record supersedes the failure
    # And a cold re-read of the file agrees.
    reread = SweepCheckpoint(path, resume=True)
    assert len(reread) == len(TASKS)
    assert reread.manifest() == {}


def test_sweep_resume_is_bit_identical_with_zero_recompute(tmp_path):
    path = str(tmp_path / "sweep.jsonl")
    kwargs = dict(family="gnp_log_degree", seeds=2, seed_base=3)
    baseline = sweep(["luby"], [32, 48], **kwargs)
    first = sweep(["luby"], [32, 48], checkpoint=path, **kwargs)
    size_after_first = os.path.getsize(path)
    resumed = sweep(
        ["luby"], [32, 48], checkpoint=path, resume=True, **kwargs
    )
    # Zero recompute: resume appended no new records.
    assert os.path.getsize(path) == size_after_first
    for a, b in zip(first, resumed):
        assert a == b
    for a, b in zip(baseline, resumed):
        assert a.summaries == b.summaries


# -- kill mid-flight ------------------------------------------------------

_SWEEP_SCRIPT = """
import sys, time
sys.path.insert(0, {src!r})
from repro.harness.checkpoint import SweepCheckpoint, run_checkpointed

def slow_square(task):
    time.sleep(0.4)
    return {{"x": task[0], "sq": task[0] ** 2}}

if __name__ == "__main__":
    tasks = [(i,) for i in range(10)]
    cp = SweepCheckpoint({path!r}, resume=False)
    run_checkpointed(slow_square, tasks, cp, n_jobs=2)
    print("DONE", flush=True)
"""


def _ok_records(path):
    if not os.path.exists(path):
        return 0
    return sum(
        1 for record in read_records(path) if record.get("status") == "ok"
    )


@pytest.mark.skipif(os.name == "nt", reason="needs POSIX signals")
def test_sigkill_mid_sweep_then_resume_matches_uninterrupted(tmp_path):
    path = str(tmp_path / "cp.jsonl")
    script = tmp_path / "sweep_script.py"
    src = os.path.abspath(
        os.path.join(os.path.dirname(__file__), os.pardir, "src")
    )
    script.write_text(_SWEEP_SCRIPT.format(src=src, path=path))
    proc = subprocess.Popen(
        [sys.executable, str(script)], start_new_session=True
    )
    try:
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            if _ok_records(path) >= 2:
                break
            if proc.poll() is not None:
                pytest.fail("sweep finished before it could be killed")
            time.sleep(0.05)
        else:
            pytest.fail("checkpoint never accumulated 2 ok records")
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait(timeout=10)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()

    tasks = [(i,) for i in range(10)]
    resumed = SweepCheckpoint(path, resume=True)
    done_before = len(resumed)
    assert 2 <= done_before < 10  # killed mid-flight, partial progress

    calls = []

    def counting(task):
        calls.append(task)
        return _outcome(task)

    outcomes = run_checkpointed(counting, tasks, resumed)
    # Exactly the unrecorded remainder ran — nothing was recomputed.
    assert len(calls) == 10 - done_before
    # The merged aggregate equals an uninterrupted run's.
    assert outcomes == [_outcome(task) for task in tasks]


# -- the engine is part of a task -------------------------------------------

def test_resume_under_another_engine_recomputes(tmp_path, capsys):
    """A checkpoint written under one engine must not answer for another:
    under an active lossy channel the engines simulate different faulty
    runs, so the resumed rows must be the fresh run's, not the replayed
    ones."""
    from repro.__main__ import main
    from repro.obs.telemetry import set_telemetry_path

    path = str(tmp_path / "ck.jsonl")
    common = [
        "-a", "luby", "-n", "96", "--seeds", "3", "--quiet",
        "--channel", "lossy(drop=0.1,seed=3):congest",
    ]

    def rows(*flags):
        main(common + list(flags))
        lines = capsys.readouterr().out.splitlines()
        return [line for line in lines if line.split()[0] in {"0", "1", "2"}]

    try:
        fast = rows("--engine", "fast", "--checkpoint", path)
        resumed = rows(
            "--engine", "vectorized", "--checkpoint", path, "--resume"
        )
        fresh = rows("--engine", "vectorized")
    finally:
        set_telemetry_path(None)
    assert len(fresh) == 3
    assert resumed == fresh
    assert resumed != fast
