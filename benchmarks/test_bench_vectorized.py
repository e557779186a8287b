"""Vectorized dense-round engine benchmarks: numpy rounds vs cached loop.

The vectorized path's perf claim is that dense always-on phases (Luby-style
duel rounds, regularized-Luby marking cascades) run >= 2x faster when node
state is flattened into numpy columns and each round is executed
whole-network — with *bit-identical* outputs, metrics, and ledgers, which
every timing below re-asserts before trusting its clocks. A radio scenario
additionally snapshots the bincount listener scan of the broadcast channel
against the scalar reference scan.

Timings isolate the round loop (``Network.run``): network construction is
identical across engine paths and excluded. Best-of-N wall clocks; set
``BENCH_QUICK=1`` for the CI-sized variant (smaller graphs, relaxed floors
— shared runners have noisy clocks) and ``BENCH_SNAPSHOT=1`` to (re)write
the committed ``BENCH_5.json`` snapshot.
"""

import json
import os
import time
from functools import partial
from pathlib import Path

import pytest

from repro import graphs
from repro.baselines import (
    LubyProgram,
    RadioDecayProgram,
    RegularizedLubyProgram,
)
from repro.congest import Network
from repro.graphs.properties import max_degree

from oracles import channel_spec

QUICK = os.environ.get("BENCH_QUICK", "0") not in ("", "0")
SNAPSHOT_PATH = Path(__file__).resolve().parent.parent / "BENCH_5.json"
# Acceptance floor: the vectorized dense round must beat the cached round
# loop >= 2x on n >= 10k dense-phase workloads (full profile measures
# ~3-3.5x on Luby). Quick mode keeps a safety margin for CI noise.
MIN_DENSE_SPEEDUP = 1.3 if QUICK else 2.0
# The regularized cascade has cheaper rounds (no degree payloads), so the
# python-dispatch saving is smaller; it must still clearly win.
MIN_CASCADE_SPEEDUP = 1.1 if QUICK else 1.5
# The bincount listener scan must never lose to the O(deg)-per-listener
# reference scan on a contention-heavy radio workload.
MIN_RADIO_SPEEDUP = 1.0 if QUICK else 1.15
TIMING_ATTEMPTS = 3

_RESULTS: dict = {}


@pytest.fixture(scope="session", autouse=True)
def _write_snapshot():
    """Persist timings to BENCH_5.json when BENCH_SNAPSHOT=1 (see BENCH_2)."""
    yield
    if _RESULTS and os.environ.get("BENCH_SNAPSHOT", "0") not in ("", "0"):
        SNAPSHOT_PATH.write_text(
            json.dumps(dict(sorted(_RESULTS.items())), indent=2) + "\n"
        )


def _dense_graph():
    n = 2_000 if QUICK else 10_000
    return graphs.make_family("gnp_log_degree", n, seed=7)


def _timed_run(make_network, engine):
    best = None
    for _ in range(TIMING_ATTEMPTS):
        network = make_network()
        start = time.perf_counter()
        network.run(engine=engine)
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
            kept = network
    return best, kept


def _compare_engines(name, make_network, floor, output_key="in_mis"):
    """Time vectorized vs cached-fast run; assert identity + speedup."""
    vector_s, vector_net = _timed_run(make_network, "vectorized")
    fast_s, fast_net = _timed_run(make_network, "fast")
    assert vector_net.vector_rounds > 0  # really took the numpy path
    assert fast_net.vector_rounds == 0
    assert vector_net.metrics() == fast_net.metrics()
    assert vector_net.outputs(output_key) == fast_net.outputs(output_key)
    assert vector_net.ledger.snapshot() == fast_net.ledger.snapshot()
    _RESULTS[f"{name}_vectorized"] = vector_s
    _RESULTS[f"{name}_fast"] = fast_s
    _RESULTS[f"{name}_speedup"] = fast_s / vector_s
    _RESULTS[f"{name}_rounds"] = float(vector_net.round_index + 1)
    _RESULTS[f"{name}_rounds_per_sec_vectorized"] = (
        (vector_net.round_index + 1) / vector_s
    )
    assert fast_s / vector_s >= floor, (
        f"{name}: vectorized round only {fast_s / vector_s:.2f}x over the "
        f"cached loop (vectorized {vector_s * 1000:.1f}ms vs "
        f"{fast_s * 1000:.1f}ms)"
    )


def test_luby_dense_rounds_speedup():
    """The headline: >= 2x over the cached loop on n >= 10k Luby."""
    graph = _dense_graph()

    def make():
        return Network(graph, LubyProgram, seed=7)

    _compare_engines("vectorized_luby_dense", make, MIN_DENSE_SPEEDUP)


def test_regularized_luby_cascade_speedup():
    """The paper's Phase-I base: long always-on marking cascades."""
    graph = _dense_graph()
    n = graph.number_of_nodes()
    delta = max_degree(graph)
    import math

    iterations = max(1, math.ceil(math.log2(max(2, delta))))
    rounds_per_iteration = max(1, round(math.log2(max(2, n))))

    def make():
        return Network(
            graph,
            partial(
                RegularizedLubyProgram, iterations, rounds_per_iteration, delta
            ),
            seed=7,
        )

    _compare_engines(
        "vectorized_regularized_cascade", make, MIN_CASCADE_SPEEDUP
    )


#: Graph seeds of the radio gate's instances. The gate sums their times,
#: so its margin does not hang on how many rounds one instance runs.
RADIO_GRAPH_SEEDS = (9, 10, 11)


def test_radio_listener_scan_speedup():
    """Bincount listener scan vs the scalar per-listener scan, end to end
    on a contention-heavy radio MIS (same seeds, bit-identical runs).
    The sqrt-degree family keeps neighborhoods wide, which is exactly the
    regime where the O(deg)-per-listener reference scan hurts. The
    min-of-N times are summed over several fixed instances."""
    n = 512 if QUICK else 2_048
    vector_s = scalar_s = 0.0
    collisions = 0
    for graph_seed in RADIO_GRAPH_SEEDS:
        graph = graphs.make_family("gnp_sqrt_degree", n, seed=graph_seed)

        def make(channel):
            return lambda: Network(
                graph,
                RadioDecayProgram,
                seed=2,
                channel=channel,
            )

        instance_vector_s, vector_net = _timed_run(make("broadcast"), "fast")
        instance_scalar_s, scalar_net = _timed_run(
            make(channel_spec("broadcast-scalar")), "fast"
        )
        assert vector_net.metrics() == scalar_net.metrics(), graph_seed
        assert vector_net.outputs("in_mis") == \
            scalar_net.outputs("in_mis"), graph_seed
        assert vector_net.ledger.snapshot() == \
            scalar_net.ledger.snapshot(), graph_seed
        assert vector_net.collisions > 0, graph_seed  # real contention
        vector_s += instance_vector_s
        scalar_s += instance_scalar_s
        collisions += vector_net.collisions
    _RESULTS["vectorized_radio_scan"] = vector_s
    _RESULTS["vectorized_radio_scan_scalar"] = scalar_s
    _RESULTS["vectorized_radio_scan_speedup"] = scalar_s / vector_s
    _RESULTS["vectorized_radio_collisions"] = float(collisions)
    assert scalar_s / vector_s >= MIN_RADIO_SPEEDUP, (
        f"radio bincount scan only {scalar_s / vector_s:.2f}x over the "
        f"scalar listener scan"
    )
