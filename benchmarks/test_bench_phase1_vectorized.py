"""Schedule-aware vectorized kernels: the paper's own algorithms.

BENCH_5 gated the always-on baselines (Luby, the regularized cascade);
this suite gates the schedule-aware kernels added for the paper's own
pipelines — Algorithm 1's Phase I (regularized Luby under Lemma 2.5
overlap schedules), Algorithm 2's Phase I (degree-tag sampling rounds),
Section 4's Lemma 4.2 degree reduction (whole-iteration wakes plus a
status block every node attends), and the Ghaffari-2016
multi-execution shattering rounds of Phase II.

The headline gate is Algorithm 1 Phase I at ``n = 10^4`` in its *dense*
regime — near-saturated sampling, so nearly every node lays down a wake
schedule and a large fraction of the network acts each round.  That is
the workload the dense kernels exist for, and the vectorized path must
win >= 2x there (full profile measures ~3-4x).  The paper's own marking
probability (``2^i / (10 Delta)``) produces deliberately *sparse* wake
calendars — awake sets of a few hundred nodes per round, the regime
scalar dispatch is best at — so that configuration is timed too, with a
regression floor only: vectorized must at least hold its ground where
its whole-array rounds have the least to amortize.

Timings isolate the round loop: ``Network.start()`` (schedule sampling,
identical across engines) runs outside the clock, then ``run_rounds`` is
timed for the phase's fixed round budget.  Attempts interleave the two
engines with one discarded warm-up each and take the minimum (see
BENCH_7's rationale: scheduler noise is additive, so min-of-N converges
on each side's true floor where a median lets one 2x spike on the
vectorized side sink a ratio gate).  Every comparison re-asserts
bit-identical outputs, metrics,
and energy ledgers before trusting its clocks.  ``BENCH_QUICK=1``
shrinks sizes and relaxes floors; ``BENCH_SNAPSHOT=1`` (re)writes the
committed ``BENCH_8.json``.
"""

import json
import math
import os
import time
from functools import partial
from pathlib import Path

import pytest

from repro import graphs
from repro.baselines.ghaffari import GhaffariProgram
from repro.congest import Network
from repro.core.average_energy import Lemma42Program, lemma42_budget
from repro.core.config import DEFAULT_CONFIG
from repro.core.phase1_alg1 import Phase1Alg1Program
from repro.core.phase1_alg2 import Phase1Alg2Program
from repro.graphs.properties import max_degree

QUICK = os.environ.get("BENCH_QUICK", "0") not in ("", "0")
SNAPSHOT_PATH = Path(__file__).resolve().parent.parent / "BENCH_8.json"
# The ISSUE gate: Algorithm 1 Phase I, n=10^4, dense regime, >= 2x.
MIN_DENSE_SPEEDUP = 1.3 if QUICK else 2.0
# Paper-faithful sparse schedules: whole-array rounds have almost nothing
# to amortize over (a few hundred awake nodes each), so this floor only
# guards against the vectorized path *losing* to scalar dispatch.
MIN_SPARSE_SPEEDUP = 0.7 if QUICK else 1.2
# Ghaffari shattering rounds are always-on with multi-execution columns —
# the friendliest possible workload (full profile measures ~10x).
MIN_SHATTER_SPEEDUP = 2.5 if QUICK else 4.0
# Lemma 4.2: sparse action rounds, but every live node attends the status
# blocks (full profile measures ~15-18x).
MIN_LEMMA42_SPEEDUP = 2.5 if QUICK else 4.0
TIMING_ATTEMPTS = 5

_RESULTS: dict = {}


@pytest.fixture(scope="session", autouse=True)
def _write_snapshot():
    """Persist timings to BENCH_8.json when BENCH_SNAPSHOT=1."""
    yield
    if _RESULTS and os.environ.get("BENCH_SNAPSHOT", "0") not in ("", "0"):
        SNAPSHOT_PATH.write_text(
            json.dumps(dict(sorted(_RESULTS.items())), indent=2) + "\n"
        )


def _bench_graph():
    n = 2_000 if QUICK else 10_000
    return graphs.make_family("gnp_log_degree", n, seed=7)


def _timed_pair(make_network, total_rounds):
    """Interleaved min-of-N round-loop clocks for both engines.

    Each attempt builds a fresh network, runs ``start()`` off the clock
    (schedule sampling is engine-independent scalar work), then times
    ``run_rounds(total_rounds)``.  Attempt -1 is an untimed warm-up per
    engine — it also warms the per-graph CSR cache, so neither engine's
    floor pays one-time costs the other skips.
    """
    times = {"fast": [], "vectorized": []}
    networks = {}
    for attempt in range(-1, TIMING_ATTEMPTS):
        for engine in ("fast", "vectorized"):
            network = make_network()
            network.start()
            start = time.perf_counter()
            network.run_rounds(total_rounds, engine=engine)
            elapsed = time.perf_counter() - start
            if attempt >= 0:
                times[engine].append(elapsed)
            networks[engine] = network
    return (
        min(times["fast"]),
        networks["fast"],
        min(times["vectorized"]),
        networks["vectorized"],
    )


def _compare(name, make_network, total_rounds, floor, output_key):
    fast_s, fast_net, vector_s, vector_net = _timed_pair(
        make_network, total_rounds
    )
    assert vector_net.vector_rounds > 0  # really took the numpy path
    assert fast_net.vector_rounds == 0
    assert vector_net.metrics() == fast_net.metrics()
    assert vector_net.outputs(output_key) == fast_net.outputs(output_key)
    assert vector_net.ledger.snapshot() == fast_net.ledger.snapshot()
    _RESULTS[f"{name}_fast"] = fast_s
    _RESULTS[f"{name}_vectorized"] = vector_s
    _RESULTS[f"{name}_speedup"] = fast_s / vector_s
    _RESULTS[f"{name}_rounds"] = float(total_rounds)
    assert fast_s / vector_s >= floor, (
        f"{name}: vectorized rounds only {fast_s / vector_s:.2f}x over the "
        f"cached loop (vectorized {vector_s * 1000:.1f}ms vs fast "
        f"{fast_s * 1000:.1f}ms; floor {floor}x)"
    )


def test_alg1_dense_phase1_speedup():
    """The headline gate: Algorithm 1 Phase I, dense sampling, >= 2x.

    ``mark_divisor = 0.125`` saturates the one-shot sampling (98%+ of
    nodes draw a marked round in the single iteration), so nearly the
    whole network lays down overlap schedules and each round's awake set
    is a few thousand nodes — the dense-round regime the schedule-aware
    kernel targets.
    """
    graph = _bench_graph()
    n = graph.number_of_nodes()
    delta = max_degree(graph)
    rpi = max(1, round(math.log2(n)))

    def make():
        return Network(
            graph,
            partial(Phase1Alg1Program, 1, rpi, delta, 0.125),
            seed=7,
        )

    _compare(
        "phase1_alg1_dense", make, 3 * rpi, MIN_DENSE_SPEEDUP, "joined"
    )


def test_alg1_paper_divisor_phase1():
    """Paper-faithful sparse schedules: marking probability
    ``2^i / (10 Delta)``, ``ceil(log2 Delta)`` iterations.  Awake sets are
    a few hundred nodes per round — scalar dispatch's best case — so the
    vectorized path only has to not regress (it still wins ~1.8x at full
    size thanks to the batched awake-set assembly and shared CSR passes).
    """
    graph = _bench_graph()
    n = graph.number_of_nodes()
    delta = max_degree(graph)
    iterations = max(1, math.ceil(math.log2(max(2, delta))))
    rpi = max(1, round(math.log2(n)))

    def make():
        return Network(
            graph,
            partial(Phase1Alg1Program, iterations, rpi, delta, 10.0),
            seed=7,
        )

    _compare(
        "phase1_alg1_paper",
        make,
        3 * iterations * rpi,
        MIN_SPARSE_SPEEDUP,
        "joined",
    )


def test_alg2_phase1_speedup():
    """Algorithm 2's Phase I (one Lemma 3.1 iteration): degree-tag
    sampling rounds plus the four-step end block, all schedule-driven."""
    graph = _bench_graph()
    n = graph.number_of_nodes()
    delta = max_degree(graph)
    rounds = max(1, round(math.log2(n)))

    def make():
        return Network(
            graph,
            partial(Phase1Alg2Program, delta, rounds, DEFAULT_CONFIG),
            seed=7,
        )

    _compare(
        "phase1_alg2", make, 4 * rounds + 4, MIN_DENSE_SPEEDUP, "joined"
    )


def test_lemma42_speedup():
    """Lemma 4.2 at the budget ``run_lemma42`` gives this graph: a few
    sampled nodes act per round, but every live node attends each
    iteration's three-round status block."""
    graph = _bench_graph()
    n = graph.number_of_nodes()
    delta = max_degree(graph)
    iterations, rpi = lemma42_budget(n, delta, DEFAULT_CONFIG)

    def make():
        return Network(
            graph,
            partial(Lemma42Program, iterations, rpi, delta, DEFAULT_CONFIG, n),
            seed=7,
        )

    _compare(
        "lemma42",
        make,
        iterations * (2 * rpi + 3),
        MIN_LEMMA42_SPEEDUP,
        "failed",
    )


def test_ghaffari_shattering_speedup():
    """Phase II's workhorse: truncated multi-execution Ghaffari-2016
    rounds (always-on, ``(n, executions)`` state columns)."""
    graph = _bench_graph()
    delta = max_degree(graph)
    iterations = 2 * max(1, math.ceil(math.log2(max(2, delta))))

    def make():
        return Network(
            graph,
            partial(GhaffariProgram, iterations=iterations, executions=3),
            seed=7,
        )

    _compare(
        "ghaffari_shatter",
        make,
        2 * iterations,
        MIN_SHATTER_SPEEDUP,
        "in_mis",
    )
