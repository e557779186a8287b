"""Fault-layer overhead guard: zero-rate wrappers must be (nearly) free.

The fault-injection design contract is *zero-rate transparency*: a
``lossy(drop=0.0)`` wrapper draws no randomness, allocates nothing, and
passes every inbox through untouched — so wrapping a channel "just in
case" (as sweep configuration code does) must not tax clean runs. This
suite gates that contract like the engine suites gate their speedups:
min-of-N wall clocks of the round loop only, comparing a bare CONGEST
run against a ``lossy(drop=0.0)``-wrapped run on both the cached-fast
scalar path and the vectorized Luby path (where the wrapper also sits on
the dense CSR delivery route).

Both comparisons re-assert bit-identical outputs/metrics/ledgers before
trusting their clocks — if transparency is broken, the gate fails on
correctness, not on noise. ``BENCH_QUICK=1`` shrinks sizes and relaxes
the ceiling for noisy shared runners; ``BENCH_SNAPSHOT=1`` (re)writes the
committed ``BENCH_7.json`` snapshot.
"""

import json
import os
import time
from pathlib import Path

import pytest

from repro import graphs
from repro.baselines import LubyProgram
from repro.congest import Network

QUICK = os.environ.get("BENCH_QUICK", "0") not in ("", "0")
SNAPSHOT_PATH = Path(__file__).resolve().parent.parent / "BENCH_7.json"
# Ceiling on (wrapped / bare - 1). A zero-rate wrapper's per-round cost is
# one rate check and a pass-through call, so a *real* regression shows up
# as a systematic cost far above 10%; the headroom absorbs the residual
# min-of-N jitter of shared runners (observed ±7% on a loaded container).
MAX_OVERHEAD = 0.20 if QUICK else 0.10
TIMING_ATTEMPTS = 7

ZERO_FAULT = "lossy(drop=0.0,seed=1):congest"

_RESULTS: dict = {}


@pytest.fixture(scope="session", autouse=True)
def _write_snapshot():
    """Persist overhead numbers to BENCH_7.json when BENCH_SNAPSHOT=1."""
    yield
    if _RESULTS and os.environ.get("BENCH_SNAPSHOT", "0") not in ("", "0"):
        SNAPSHOT_PATH.write_text(
            json.dumps(dict(sorted(_RESULTS.items())), indent=2) + "\n"
        )


def _graph(vectorized):
    # Scalar rounds are ~100x costlier than numpy rounds, so a smaller
    # graph keeps wall clocks comparable across the two gates.
    if vectorized:
        n = 2_000 if QUICK else 10_000
    else:
        n = 500 if QUICK else 2_000
    return graphs.make_family("gnp_log_degree", n, seed=13)


def _timed_pair(make_a, make_b, engine):
    """Interleaved min-of-N wall clocks for two configurations.

    Min, not median: scheduler interference on a shared runner is purely
    *additive* (an interrupted attempt only ever reads high), so the
    minimum over N attempts is the estimator that converges on each
    side's true floor — medians let one or two 2x spikes on one side
    breach a ceiling that compares a *ratio* of clocks. Min can read
    slightly negative overhead when only one side reaches its floor;
    for an upper-ceiling gate that is harmless. Attempts alternate A/B
    so clock drift and cache warm-up hit both sides equally, and one
    untimed warm-up run per side absorbs first-touch effects. Returns
    ``(min_a, network_a, min_b, network_b)``; the runs are bit-identical
    per side, so any attempt's network serves the identity checks.
    """
    times = {0: [], 1: []}
    networks = {}
    for attempt in range(-1, TIMING_ATTEMPTS):
        for side, make in enumerate((make_a, make_b)):
            network = make()
            start = time.perf_counter()
            network.run(engine=engine)
            elapsed = time.perf_counter() - start
            if attempt >= 0:
                times[side].append(elapsed)
            networks[side] = network
    return (min(times[0]), networks[0], min(times[1]), networks[1])


def _gate_overhead(name, engine, vectorized):
    graph = _graph(vectorized)

    def make(channel="congest"):
        network = Network(graph, LubyProgram, seed=13, channel=channel)
        # Build every node's program before the timer: the gate times the
        # round loop, and construction in the first timed step would move
        # where garbage collections land.
        list(network.programs.values())
        return network

    bare_s, bare_net, wrapped_s, wrapped_net = _timed_pair(
        lambda: make(), lambda: make(ZERO_FAULT), engine
    )

    # Transparency first: the wrapper must not perturb the run at all.
    assert wrapped_net.metrics() == bare_net.metrics()
    assert wrapped_net.outputs("in_mis") == bare_net.outputs("in_mis")
    assert wrapped_net.ledger.snapshot() == bare_net.ledger.snapshot()
    if vectorized:
        assert bare_net.vector_rounds > 0
        assert wrapped_net.vector_rounds > 0

    overhead = wrapped_s / bare_s - 1.0
    _RESULTS[f"{name}_bare"] = bare_s
    _RESULTS[f"{name}_wrapped"] = wrapped_s
    _RESULTS[f"{name}_overhead"] = overhead
    assert overhead <= MAX_OVERHEAD, (
        f"{name}: zero-rate fault wrapper costs {overhead * 100:.1f}% "
        f"(bare {bare_s * 1000:.1f}ms vs wrapped "
        f"{wrapped_s * 1000:.1f}ms; ceiling {MAX_OVERHEAD * 100:.0f}%)"
    )


def test_fast_path_zero_fault_overhead():
    """Cached scalar loop: bare CONGEST vs zero-rate lossy wrapper."""
    _gate_overhead("faults_luby_fast", "fast", vectorized=False)


def test_vectorized_path_zero_fault_overhead():
    """Vectorized dense rounds: the wrapper's vector_faults hook returns
    no mask at rate 0, so the CSR delivery route must be untouched."""
    _gate_overhead("faults_luby_vectorized", "vectorized", vectorized=True)
