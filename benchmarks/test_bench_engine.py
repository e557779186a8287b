"""Engine hot-path benchmarks: dense vs sparse wake schedules.

The paper's regime is nodes that sleep almost always, so the engine must
make simulated time nearly free when nobody is awake. This suite times the
same workloads on the fast path (idle-round fast-forward + cached round
loop) and on the naive per-round legacy loop (the step-every-round
oracle of ``tests/oracles.py``), asserts the fast path wins by
the required margin on sparse schedules with *bit-identical* results, and
writes a machine-readable ``BENCH_2.json`` perf snapshot (bench name →
seconds) next to the repository root so future PRs have a trajectory.

Set ``BENCH_QUICK=1`` for the CI-sized variant (smaller graphs, shorter
schedules, relaxed speedup floor — shared runners have noisy clocks).
"""

import json
import os
import time
from functools import partial
from pathlib import Path

import pytest

from repro import graphs
from repro.baselines import LubyProgram
from repro.congest import Network, NodeProgram

from oracles import engine_path

QUICK = os.environ.get("BENCH_QUICK", "0") not in ("", "0")
SNAPSHOT_PATH = Path(__file__).resolve().parent.parent / "BENCH_2.json"
# Wall-clock floor for sparse-schedule speedup (acceptance: ≥5x). The full
# profile measures ~15-40x; quick mode keeps a safety margin for CI noise.
MIN_SPARSE_SPEEDUP = 3.0 if QUICK else 5.0
# Timings are best-of-N so one scheduler hiccup on a shared runner cannot
# fail the speedup floors when this file runs inside the tier-1 suite.
TIMING_ATTEMPTS = 3

_RESULTS: dict = {}


@pytest.fixture(scope="session", autouse=True)
def _write_snapshot():
    """Persist the collected timings to BENCH_2.json when asked.

    Gated behind ``BENCH_SNAPSHOT=1`` so ordinary test runs (tier-1 collects
    this file too) never dirty the committed trajectory snapshot with
    machine-local or quick-profile numbers.
    """
    yield
    if _RESULTS and os.environ.get("BENCH_SNAPSHOT", "0") not in ("", "0"):
        SNAPSHOT_PATH.write_text(
            json.dumps(dict(sorted(_RESULTS.items())), indent=2) + "\n"
        )


class SparseHeartbeat(NodeProgram):
    """All nodes sleep ``period - 1`` of every ``period`` rounds.

    At each synchronized wake every node pings one neighbor — the cheap,
    rare coordination beat of a long-lived sensor network. With the default
    profile nodes sleep 99.99% of all rounds.
    """

    def __init__(self, period: int, wakes: int):
        self.period = period
        self.wakes = wakes

    def on_start(self, ctx):
        ctx.use_wake_schedule(
            [(i + 1) * self.period for i in range(self.wakes)]
        )

    def on_round(self, ctx):
        if ctx.neighbors:
            beat = ctx.round // self.period
            ctx.send(ctx.neighbors[beat % len(ctx.neighbors)], True)

    def on_receive(self, ctx, messages):
        ctx.output["heard"] = ctx.output.get("heard", 0) + len(messages)
        if ctx.round >= self.period * self.wakes:
            ctx.halt()


class StaggeredTicker(NodeProgram):
    """One node awake at a time, round-robin — maximally sparse schedules."""

    def __init__(self, spacing: int, wakes: int, n: int):
        self.spacing = spacing
        self.wakes = wakes
        self.n = n

    def on_start(self, ctx):
        base = (ctx.node % self.n) * self.spacing
        stride = self.spacing * self.n
        ctx.use_wake_schedule(
            [base + 1 + i * stride for i in range(self.wakes)]
        )

    def on_round(self, ctx):
        ctx.output["ticks"] = ctx.output.get("ticks", 0) + 1

    def on_receive(self, ctx, messages):
        if ctx.output["ticks"] >= self.wakes:
            ctx.halt()


def _timed_run(make_network, engine):
    """Best-of-N wall clock for one engine path (runs are deterministic)."""
    best = None
    for _ in range(TIMING_ATTEMPTS):
        network = make_network()
        with engine_path(engine) as path:
            start = time.perf_counter()
            metrics = network.run(engine=path)
            elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
    return best, metrics, network


def _compare_paths(name, make_network, output_key):
    """Time fast vs legacy; record both; assert bit-identical results."""
    fast_s, fast_metrics, fast_net = _timed_run(make_network, engine="fast")
    legacy_s, legacy_metrics, legacy_net = _timed_run(make_network, engine="legacy")
    assert fast_metrics == legacy_metrics
    assert fast_net.outputs(output_key) == legacy_net.outputs(output_key)
    assert fast_net.ledger.snapshot() == legacy_net.ledger.snapshot()
    _RESULTS[f"{name}_fast"] = fast_s
    _RESULTS[f"{name}_legacy"] = legacy_s
    return fast_s, legacy_s, fast_metrics


def test_sparse_heartbeat_fast_forward_speedup():
    """The headline: ≥95%-asleep schedules must run ≥5x faster, identically."""
    n = 48 if QUICK else 64
    period = 2_000 if QUICK else 10_000
    wakes = 10
    graph = graphs.gnp(n, 0.08, seed=7)

    def make_network():
        return Network(graph, partial(SparseHeartbeat, period, wakes))

    fast_s, legacy_s, metrics = _compare_paths(
        "engine_sparse_heartbeat", make_network, "heard"
    )
    assert metrics.rounds == period * wakes + 1
    # Sleep fraction of the schedule: wakes awake rounds out of all rounds.
    assert wakes / metrics.rounds < 0.05
    _RESULTS["engine_sparse_heartbeat_speedup"] = legacy_s / fast_s
    _RESULTS["engine_sparse_heartbeat_rounds_per_sec_fast"] = (
        metrics.rounds / fast_s
    )
    _RESULTS["engine_sparse_heartbeat_rounds_per_sec_legacy"] = (
        metrics.rounds / legacy_s
    )
    assert legacy_s / fast_s >= MIN_SPARSE_SPEEDUP, (
        f"sparse fast path only {legacy_s / fast_s:.1f}x faster "
        f"(fast {fast_s * 1000:.1f}ms vs legacy {legacy_s * 1000:.1f}ms)"
    )


def test_staggered_ticker_fast_forward():
    """Round-robin single-node wakes: many small events, long idle gaps."""
    n = 64 if QUICK else 128
    spacing = 50 if QUICK else 150
    wakes = 10
    graph = graphs.gnp(n, 0.05, seed=3)

    def make_network():
        return Network(graph, partial(StaggeredTicker, spacing, wakes, n))

    fast_s, legacy_s, metrics = _compare_paths(
        "engine_staggered_ticker", make_network, "ticks"
    )
    _RESULTS["engine_staggered_ticker_speedup"] = legacy_s / fast_s
    # Every node ticked its full schedule in both paths.
    assert metrics.total_energy == graph.number_of_nodes() * wakes


def test_dense_luby_round_loop():
    """Dense awake sets (Luby): no fast-forward possible; the cached round
    loop must stay at least on par with the naive loop."""
    n = 128 if QUICK else 512
    graph = graphs.gnp_expected_degree(n, 16.0, seed=11)

    def make_network():
        return Network(graph, LubyProgram, seed=1)

    fast_s, legacy_s, metrics = _compare_paths(
        "engine_dense_luby", make_network, "in_mis"
    )
    _RESULTS["engine_dense_luby_rounds_per_sec_fast"] = metrics.rounds / fast_s
    # Dense schedules never fast-forward, so both paths run the same rounds;
    # guard against the fast path regressing badly on its worst case.
    assert fast_s <= legacy_s * 2.0
