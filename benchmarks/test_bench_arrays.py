"""Array-native core benchmark: CSR-native graph builds.

One gate for the array-native layer (``BENCH_9.json``): generating a
graph straight into :class:`GraphArrays` (``as_arrays=True`` — geometric
skip-sampling plus one sorted-key CSR build) must beat
generate-via-networkx-then-convert >= 5x at n = 10^5. The two paths draw
different edge sets (documented), so the gate compares construction cost
only and sanity-checks sizes, not identity.

Best-of-N wall clocks; ``BENCH_QUICK=1`` shrinks the workloads and relaxes
floors for noisy CI runners, ``BENCH_SNAPSHOT=1`` (re)writes the committed
``BENCH_9.json`` snapshot.
"""

import json
import os
import time
from pathlib import Path

import pytest

from repro import graphs
from repro.congest.vectorized import GraphArrays

QUICK = os.environ.get("BENCH_QUICK", "0") not in ("", "0")
SNAPSHOT_PATH = Path(__file__).resolve().parent.parent / "BENCH_9.json"
# Acceptance floor: the CSR-native build must beat the networkx path >= 5x
# at n = 10^5 (full profile measures well above; quick mode keeps a CI
# noise margin at n = 2*10^4).
BUILD_N = 20_000 if QUICK else 100_000
MIN_BUILD_SPEEDUP = 2.0 if QUICK else 5.0
TIMING_ATTEMPTS = 3

_RESULTS: dict = {}


@pytest.fixture(scope="session", autouse=True)
def _write_snapshot():
    """Persist timings to BENCH_9.json when BENCH_SNAPSHOT=1 (see BENCH_2)."""
    yield
    if _RESULTS and os.environ.get("BENCH_SNAPSHOT", "0") not in ("", "0"):
        SNAPSHOT_PATH.write_text(
            json.dumps(dict(sorted(_RESULTS.items())), indent=2) + "\n"
        )


def _best_of(fn):
    best = None
    for _ in range(TIMING_ATTEMPTS):
        start = time.perf_counter()
        value = fn()
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
            kept = value
    return best, kept


def test_csr_native_build_speedup():
    """as_arrays=True vs generate-with-networkx-then-convert, n = 10^5."""
    native_s, native = _best_of(
        lambda: graphs.gnp_expected_degree(
            BUILD_N, 10.0, seed=3, as_arrays=True
        )
    )
    legacy_s, legacy = _best_of(
        lambda: GraphArrays.from_graph(
            graphs.gnp_expected_degree(BUILD_N, 10.0, seed=3)
        )
    )
    assert isinstance(native, GraphArrays)
    assert native.number_of_nodes() == legacy.number_of_nodes() == BUILD_N
    # Different samplers, same distribution: edge counts within 10% of the
    # expected m = n * d / 2.
    expected_m = BUILD_N * 10.0 / 2.0
    for arrays in (native, legacy):
        assert abs(arrays.number_of_edges() - expected_m) <= 0.1 * expected_m
    _RESULTS["arrays_build_native"] = native_s
    _RESULTS["arrays_build_networkx"] = legacy_s
    _RESULTS["arrays_build_speedup"] = legacy_s / native_s
    _RESULTS["arrays_build_n"] = float(BUILD_N)
    assert legacy_s / native_s >= MIN_BUILD_SPEEDUP, (
        f"CSR-native build only {legacy_s / native_s:.2f}x over the "
        f"networkx path (native {native_s * 1000:.1f}ms vs "
        f"{legacy_s * 1000:.1f}ms at n={BUILD_N})"
    )
