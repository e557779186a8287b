"""Parallel sweeps must be bit-identical to serial ones.

Every (algorithm, family, n, seed[, channel]) cell — and every dynamic
(workload, algorithm, strategy, n, epochs, seed[, rate]) cell — is a fully
self-describing, deterministic task: workers regenerate graphs and derive
all randomness from the task's own seed, never from process-shared
``random.Random``/global generator state. This suite locks that audit in:
``n_jobs=1`` and ``n_jobs>1`` (and any chunking) must agree exactly, in
task order, including the harness-level aggregates.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.congest.vectorized import reset_vector_stats
from repro.harness import (
    ALGORITHMS,
    measure_dynamic_many,
    measure_many,
    sweep,
)
from repro.harness.parallel import parallel_map

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")


def test_measure_many_parallel_matches_serial():
    tasks = [
        ("luby", "gnp_log_degree", 48, seed, channel)
        for seed in range(3)
        for channel in (None, "local")
    ]
    serial = measure_many(tasks, n_jobs=1)
    parallel = measure_many(tasks, n_jobs=2)
    assert parallel == serial  # exact float equality: same bits, same order


def test_sweep_parallel_matches_serial():
    kwargs = dict(family="gnp_log_degree", seeds=3, seed_base=11)
    serial = sweep(["luby", "ghaffari2016"], [32, 48], n_jobs=1, **kwargs)
    parallel = sweep(["luby", "ghaffari2016"], [32, 48], n_jobs=3, **kwargs)
    assert len(serial) == len(parallel)
    for ours, theirs in zip(serial, parallel):
        assert ours.algorithm == theirs.algorithm
        assert ours.n == theirs.n
        assert ours.summaries == theirs.summaries


def test_measure_dynamic_many_parallel_matches_serial():
    tasks = [
        ("link_flap", "luby", strategy, 40, 4, seed, 1.0)
        for seed in range(2)
        for strategy in ("incremental", "full_recompute")
    ]
    serial = measure_dynamic_many(tasks, n_jobs=1)
    parallel = measure_dynamic_many(tasks, n_jobs=2)
    assert parallel == serial


def test_parallel_map_chunking_preserves_order_and_values():
    tasks = list(range(17))
    serial = parallel_map(_square, tasks, n_jobs=1)
    chunked = parallel_map(_square, tasks, n_jobs=3, chunksize=4)
    assert chunked == serial == [t * t for t in tasks]


def test_vectorized_path_is_deterministic_across_jobs():
    """The numpy dense-round path (engaged for luby at n >= the auto
    floor) must not perturb cross-process determinism either."""
    reset_vector_stats()
    tasks = [("luby", "gnp_log_degree", 96, seed) for seed in range(3)]
    serial = measure_many(tasks, n_jobs=1)
    parallel = measure_many(tasks, n_jobs=3)
    assert parallel == serial


def _square(task):
    return task * task


#: Runs every registered algorithm on a string-labelled graph and prints
#: one JSON line: the set iteration order of the labels (which the hash
#: seed changes), then each algorithm's MIS, rounds and ledger totals on
#: the default engine and on the scalar loop (at n=80 the default engine
#: runs some programs' kernels, which never call their scalar hooks).
_HASH_PROBE = """
import json
import networkx as nx
from repro.harness import ALGORITHMS, run_algorithm

graph = nx.relabel_nodes(
    nx.gnp_random_graph(80, 0.08, seed=4), lambda v: f"v{v}"
)
runs = {}
for name in sorted(ALGORITHMS):
    for engine in ("auto", "fast"):
        result = run_algorithm(name, graph, seed=3, engine=engine)
        ledger = result.metrics
        runs[f"{name}/{engine}"] = [
            sorted(result.mis), result.rounds, ledger.total_energy,
            ledger.max_energy, ledger.average_energy,
        ]
print(json.dumps([list(set(graph.nodes)), runs]))
"""


@pytest.fixture(scope="module")
def hash_seed_probes():
    """The probe's output under ``PYTHONHASHSEED`` 0 and 1."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probes = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=path)
        done = subprocess.run(
            [sys.executable, "-c", _HASH_PROBE], env=env,
            capture_output=True, text=True, check=True,
        )
        probes.append(json.loads(done.stdout))
    return probes


def test_hash_seeds_reorder_the_label_sets(hash_seed_probes):
    """String hashes follow ``PYTHONHASHSEED`` (int and int-tuple hashes
    do not), so the two probes iterate the labels' sets in different
    orders: the per-algorithm comparisons below can see a set-order bug."""
    (order0, _), (order1, _) = hash_seed_probes
    assert order0 != order1


@pytest.mark.parametrize("engine", ["auto", "fast"])
@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_outputs_do_not_depend_on_the_hash_seed(
    hash_seed_probes, algorithm, engine
):
    (_, runs0), (_, runs1) = hash_seed_probes
    key = f"{algorithm}/{engine}"
    assert runs0[key] == runs1[key]
