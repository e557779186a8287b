"""Tests of the repo benchmark, on the tiny size of every workload.

Each benchmark run is a subprocess, exactly as the benchmark is invoked;
every run finishes in a few seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload, trace, cwd=ROOT, seed=3):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


def result_line(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_are_complete_and_correct(workload):
    result = result_line(run_bench(workload, 0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_account_for_no_more_than_the_solve(workload):
    proc = run_bench(workload, 1)
    result = result_line(proc)
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    # Layer self times summed over the traced passes never exceed the
    # traced wall time: spans nest strictly.
    assert 0 < result["metrics"]["trace.coverage"]["value"] <= 1.0
    records = [json.loads(line[len("record "):])
               for line in proc.stdout.splitlines() if line.startswith("record ")]
    assert records and all(r["valid"] for r in records)


def test_records_repeat_for_a_seed():
    first = run_bench("paper-sparse", 0).stdout
    again = run_bench("paper-sparse", 0).stdout
    pick = [line for line in first.splitlines() if line.startswith("record ")]
    assert pick == [line for line in again.splitlines() if line.startswith("record ")]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_trace_matches_profiler_phases_and_uninstalls():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from repro.congest.network import Network
    from repro.core.algorithm1 import algorithm1
    from repro.harness import runner

    from crosscheck import compare

    init = Network.__dict__["__init__"]
    rows = compare("paper-dense", 3, tiny=True)
    assert {phase for _, phase, _, _ in rows} == {"phase1", "phase2", "phase3"}
    for _, phase, span_s, profiler_s in rows:
        # The phase span is nested inside the Profiler section.
        assert 0 < span_s <= profiler_s, phase
    assert Network.__dict__["__init__"] is init
    assert runner.ALGORITHMS["algorithm1"] is algorithm1
