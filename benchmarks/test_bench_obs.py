"""Observability overhead guard: instruments must be free when disabled.

The telemetry layer's design contract is that an uninstrumented run pays
only the cached ``is not None`` / ``_observed`` guards per round — no
event dispatch, no ``perf_counter`` calls. This suite gates that contract
the same way the engine suites gate their speedups: min-of-N wall clocks
of the *round loop only*, comparing a plain run against a run with a base
no-op :class:`repro.obs.Instrument` attached, on both the cached-fast and
the vectorized Luby paths. The instrumented run dispatches real events
(every awake round), so the gate also bounds the *enabled* cost of a
do-nothing instrument.

Both comparisons re-assert bit-identical outputs/metrics/ledgers before
trusting their clocks. ``BENCH_QUICK=1`` shrinks sizes and relaxes the
ceiling for noisy shared runners; ``BENCH_SNAPSHOT=1`` (re)writes the
committed ``BENCH_6.json`` snapshot.
"""

import json
import os
import time
from pathlib import Path

import pytest

from repro import graphs
from repro.baselines import LubyProgram
from repro.congest import Network
from repro.obs import Instrument

QUICK = os.environ.get("BENCH_QUICK", "0") not in ("", "0")
SNAPSHOT_PATH = Path(__file__).resolve().parent.parent / "BENCH_6.json"
# Ceiling on (instrumented / plain - 1). The disabled path's per-round cost
# is two pointer comparisons, so a *real* regression shows up as a
# systematic cost far above 10%; the headroom absorbs the residual
# min-of-N jitter of shared runners (observed ±7% on a loaded container).
MAX_OVERHEAD = 0.20 if QUICK else 0.10
TIMING_ATTEMPTS = 7

_RESULTS: dict = {}


@pytest.fixture(scope="session", autouse=True)
def _write_snapshot():
    """Persist overhead numbers to BENCH_6.json when BENCH_SNAPSHOT=1."""
    yield
    if _RESULTS and os.environ.get("BENCH_SNAPSHOT", "0") not in ("", "0"):
        SNAPSHOT_PATH.write_text(
            json.dumps(dict(sorted(_RESULTS.items())), indent=2) + "\n"
        )


def _graph(vectorized):
    # The scalar loop's rounds are ~100x costlier than numpy rounds, so a
    # smaller graph keeps wall clocks comparable across the two gates.
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

    def make(instrument=None):
        network = Network(graph, LubyProgram, seed=13, instrument=instrument)
        # Build every node's program before the timer: the gate times the
        # round loop, and construction in the first timed step would move
        # where garbage collections land.
        list(network.programs.values())
        return network

    noop = Instrument()  # base class: every hook is a no-op, no profiler
    plain_s, plain_net, instr_s, instr_net = _timed_pair(
        lambda: make(), lambda: make(noop), engine
    )

    # The attached instrument must not perturb the simulation at all.
    assert not plain_net._observed
    assert instr_net._observed
    assert instr_net.metrics() == plain_net.metrics()
    assert instr_net.outputs("in_mis") == plain_net.outputs("in_mis")
    assert instr_net.ledger.snapshot() == plain_net.ledger.snapshot()
    if vectorized:
        assert plain_net.vector_rounds > 0
        assert instr_net.vector_rounds > 0

    overhead = instr_s / plain_s - 1.0
    _RESULTS[f"{name}_plain"] = plain_s
    _RESULTS[f"{name}_instrumented"] = instr_s
    _RESULTS[f"{name}_overhead"] = overhead
    assert overhead <= MAX_OVERHEAD, (
        f"{name}: no-op instrumentation costs {overhead * 100:.1f}% "
        f"(plain {plain_s * 1000:.1f}ms vs instrumented "
        f"{instr_s * 1000:.1f}ms; ceiling {MAX_OVERHEAD * 100:.0f}%)"
    )


def test_fast_path_overhead():
    """Cached scalar loop: NULL instrument vs attached no-op instrument."""
    _gate_overhead("obs_luby_fast", "fast", vectorized=False)


def test_vectorized_path_overhead():
    """Vectorized dense rounds: the guard branches sit outside numpy, so
    per-round overhead should vanish into the array work entirely."""
    _gate_overhead("obs_luby_vectorized", "vectorized", vectorized=True)
