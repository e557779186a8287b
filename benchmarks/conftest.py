"""Shared fixtures for the benchmark suite.

Every benchmark runs its workload once per measurement (``pedantic`` mode):
the quantities of interest are the *model* metrics (rounds, awake rounds)
attached as ``extra_info``, not wall-clock statistics.

The gates that time the shipped paths against the reference oracles
import them from ``tests/oracles.py``, so ``tests/`` goes on ``sys.path``.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))


def run_once(benchmark, fn, *args, **kwargs):
    """Benchmark ``fn`` with a single pedantic round, returning its result."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                              rounds=1, iterations=1)


@pytest.fixture
def once():
    return run_once
