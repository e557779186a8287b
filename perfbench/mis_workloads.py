"""The benchmark's fixed workloads: which graph, which algorithms, what size.

Each workload is one input graph, generated from the benchmark seed, and
the registered algorithms that run on it, each with ``repeats`` algorithm
seeds derived from the benchmark seed. ``tiny`` sizes keep the shape of
each workload at n in the hundreds, for the benchmark's own tests. See
``README.md`` for why each workload exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Tuple

from repro import graphs


@dataclass(frozen=True)
class Workload:
    name: str
    algorithms: Tuple[str, ...]
    #: (n, seed) -> input graph; every call builds a fresh graph.
    build: Callable[[int, int], object]
    n: int
    tiny_n: int
    #: Algorithm seeds per algorithm. A dense run is decided by a few dozen
    #: joins, so its cost swings with the seed, with a heavy tail (an extra
    #: Lemma 3.1 recursion level in Algorithm 2 costs 5x); the benchmark
    #: takes the median over the seeds.
    repeats: int = 1

    def instance_seeds(self, seed: int) -> Tuple[int, ...]:
        """Distinct per benchmark seed, and ``(seed,)`` for one repeat."""
        return tuple(seed * self.repeats + k for k in range(self.repeats))


def _gnp_log_degree_arrays(n: int, seed: int):
    return graphs.make_family("gnp_log_degree", n, seed=seed, as_arrays=True)


def _gnp_log_degree(n: int, seed: int):
    return graphs.make_family("gnp_log_degree", n, seed=seed)


def _gnp_degree_500(n: int, seed: int):
    # Expected degree n/6 keeps the tiny variant dense like the full one
    # (3000 nodes, degree 500).
    return graphs.gnp_expected_degree(n, min(500, n / 6), seed=seed)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("luby-1e5", ("luby",), _gnp_log_degree_arrays, 100_000, 600),
        Workload("paper-sparse", ("algorithm1", "algorithm1_avg"),
                 _gnp_log_degree, 10_000, 400),
        Workload("paper-dense", ("algorithm1", "algorithm2"),
                 _gnp_degree_500, 3000, 300, repeats=10),
    )
}
