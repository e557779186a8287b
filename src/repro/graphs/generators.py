"""Graph workload generators for all experiments.

Every generator returns a :class:`networkx.Graph` whose nodes are the
integers ``0 .. n-1`` (MIS algorithms assume unique comparable identifiers),
and is deterministic in its ``seed``.

The random families additionally offer an **array-native** construction
path (``as_arrays=True`` on :func:`gnp`, :func:`gnp_expected_degree` and
:func:`make_family`): edges are sampled straight into flat numpy arrays and
sorted into a :class:`~repro.congest.vectorized.GraphArrays` CSR — no
``networkx.Graph`` of per-node adjacency dicts is ever materialized, which
is what makes ``n = 10^6`` graphs constructible on laptop-class memory.
The array-native G(n, p) sampler is deterministic in ``seed`` but draws
from ``numpy.random.default_rng``, so it is *not* edge-identical to the
``networkx`` sampler at the same seed (both are exact G(n, p) samplers).

The families mirror the settings the paper targets:

* ``gnp`` / ``gnp_expected_degree`` — the generic dense/sparse random graphs
  used for scaling sweeps;
* ``random_geometric`` — the wireless sensor-network motivation from the
  introduction (energy matters because nodes run on batteries);
* ``random_regular`` — controlled maximum degree Δ, used for the
  Lemma 3.1/3.4 experiments;
* ``barabasi_albert`` — heavy-tailed degrees, stressing the degree-reduction
  phases;
* structured families (grids, trees, stars, cliques, paths, caterpillars)
  — adversarial shapes for correctness and property tests.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, Optional

import networkx as nx
import numpy as np


def _relabel(graph: nx.Graph) -> nx.Graph:
    """Relabel nodes to 0..n-1 preserving determinism.

    Graphs already labelled ``0..n-1`` pass through untouched, and
    relabelings whose old and new label sets are disjoint (grid tuples →
    ints) rewrite the graph in place — either way at most one copy of the
    graph is alive, halving the peak memory of the old always-copy path.
    """
    n = graph.number_of_nodes()
    labels = set(graph.nodes)
    if labels == set(range(n)):
        return graph
    mapping = {
        node: index
        for index, node in enumerate(sorted(graph.nodes, key=str))
    }
    if labels.isdisjoint(mapping.values()):
        return nx.relabel_nodes(graph, mapping, copy=False)
    return nx.relabel_nodes(graph, mapping, copy=True)


def _check_n(n: int) -> None:
    if n < 1:
        raise ValueError(f"graph size must be positive, got n={n}")


def empty_graph(n: int) -> nx.Graph:
    """n isolated nodes (every node joins any MIS)."""
    _check_n(n)
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    return graph


def path(n: int) -> nx.Graph:
    _check_n(n)
    return nx.path_graph(n)


def cycle(n: int) -> nx.Graph:
    _check_n(n)
    if n < 3:
        raise ValueError("cycle needs at least 3 nodes")
    return nx.cycle_graph(n)


def star(n: int) -> nx.Graph:
    """Star with one hub and n-1 leaves (max degree n-1)."""
    _check_n(n)
    return nx.star_graph(n - 1)


def clique(n: int) -> nx.Graph:
    _check_n(n)
    return nx.complete_graph(n)


def grid_2d(rows: int, cols: int) -> nx.Graph:
    if rows < 1 or cols < 1:
        raise ValueError("grid dimensions must be positive")
    return _relabel(nx.grid_2d_graph(rows, cols))


def balanced_tree(branching: int, height: int) -> nx.Graph:
    if branching < 1 or height < 0:
        raise ValueError("invalid tree parameters")
    return _relabel(nx.balanced_tree(branching, height))


def caterpillar(spine: int, legs_per_node: int) -> nx.Graph:
    """A path of ``spine`` nodes, each with ``legs_per_node`` pendant leaves."""
    if spine < 1 or legs_per_node < 0:
        raise ValueError("invalid caterpillar parameters")
    graph = nx.path_graph(spine)
    next_id = spine
    for backbone in range(spine):
        for _ in range(legs_per_node):
            graph.add_edge(backbone, next_id)
            next_id += 1
    return graph


def _gnp_positions(rng, total: int, p: float) -> np.ndarray:
    """Sample the sorted linear positions of a G(n, p) edge set.

    Geometric skip-sampling over the linearized upper triangle
    ``[0, total)``: each gap between consecutive selected positions is
    ``Geometric(p)``, drawn in batches sized to the expected remainder, so
    the work is ``O(m)`` for ``m`` sampled edges regardless of ``total``.
    """
    chunks = []
    position = -1
    while position < total - 1:
        expect = (total - 1 - position) * p
        size = min(int(expect + 4.0 * np.sqrt(expect + 1.0)) + 16, 1 << 24)
        gaps = rng.geometric(p, size=size).astype(np.int64, copy=False)
        offsets = position + np.cumsum(gaps)
        chunks.append(offsets)
        position = int(offsets[-1])
    positions = np.concatenate(chunks) if chunks else np.empty(0, np.int64)
    return positions[positions < total]


def _gnp_arrays(n: int, p: float, seed: int):
    """Array-native G(n, p): sample straight into a CSR ``GraphArrays``."""
    from ..congest.vectorized import GraphArrays

    total = n * (n - 1) // 2
    if total == 0 or 1.0 - p == 1.0:
        empty = np.empty(0, dtype=np.int64)
        return GraphArrays.from_edges(n, empty, empty)
    if p == 1.0:
        head, tail = np.triu_indices(n, k=1)
        return GraphArrays.from_edges(n, head, tail)
    rng = np.random.default_rng(seed)
    positions = _gnp_positions(rng, total, p)
    # Decode linear position -> (head, tail): row i holds the pairs
    # (i, i+1 .. n-1), so rows occupy [starts[i], ends[i]) with
    # row lengths n-1-i.
    counts = np.arange(n - 1, 0, -1, dtype=np.int64)
    ends = np.cumsum(counts)
    head = np.searchsorted(ends, positions, side="right").astype(np.int64)
    tail = positions - (ends[head] - counts[head]) + head + 1
    return GraphArrays.from_edges(n, head, tail)


def gnp(n: int, p: float, seed: int = 0, *, as_arrays: bool = False):
    """Erdős–Rényi G(n, p).

    ``as_arrays=True`` samples edges directly into a CSR-backed
    :class:`~repro.congest.vectorized.GraphArrays` (deterministic in
    ``seed``, but not edge-identical to the networkx path — see module
    docstring) without building a ``networkx.Graph``.
    """
    _check_n(n)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability must be in [0, 1], got {p}")
    if as_arrays:
        return _gnp_arrays(n, p, seed)
    if p == 1.0:
        return clique(n)
    if 1.0 - p == 1.0:
        # p is zero or so small that networkx's geometric-skipping sampler
        # would divide by log(1-p) == 0; such graphs are empty in practice.
        return empty_graph(n)
    graph = nx.fast_gnp_random_graph(n, p, seed=seed)
    graph.add_nodes_from(range(n))
    return graph


def gnp_expected_degree(
    n: int, degree: float, seed: int = 0, *, as_arrays: bool = False
):
    """G(n, p) with p chosen so the expected degree is ``degree``."""
    _check_n(n)
    if degree < 0:
        raise ValueError(f"expected degree must be non-negative, got {degree}")
    if n == 1:
        return gnp(1, 0.0, seed=seed, as_arrays=as_arrays) if as_arrays \
            else empty_graph(1)
    p = min(1.0, degree / (n - 1))
    return gnp(n, p, seed=seed, as_arrays=as_arrays)


def random_regular(n: int, degree: int, seed: int = 0) -> nx.Graph:
    """Random ``degree``-regular graph (``n * degree`` must be even).

    Above ``(n - 1) / 2`` it is the complement of a random
    ``(n - 1 - degree)``-regular graph (same parity, since ``n (n - 1)``
    is even): networkx's pairing sampler slows down sharply as the degree
    nears ``n - 1``, while the sparse complement is quick to sample.
    """
    _check_n(n)
    if degree < 0 or degree >= n:
        raise ValueError(f"degree must be in [0, n), got {degree}")
    if (n * degree) % 2 != 0:
        raise ValueError("n * degree must be even for a regular graph")
    if 2 * degree > n - 1:
        return nx.complement(nx.random_regular_graph(n - 1 - degree, n,
                                                     seed=seed))
    return nx.random_regular_graph(degree, n, seed=seed)


def random_geometric(n: int, radius: Optional[float] = None, seed: int = 0) -> nx.Graph:
    """Random geometric graph on the unit square (sensor-network workload).

    When ``radius`` is omitted we pick the standard connectivity-threshold
    scale ``sqrt(2 ln n / n)``, which makes the graph connected w.h.p. while
    keeping degrees ``Θ(log n)``.
    """
    _check_n(n)
    if radius is None:
        radius = float(np.sqrt(2.0 * np.log(max(2, n)) / n))
    if radius < 0:
        raise ValueError(f"radius must be non-negative, got {radius}")
    graph = nx.random_geometric_graph(n, radius, seed=seed)
    graph.add_nodes_from(range(n))
    return graph


def barabasi_albert(n: int, attachment: int = 3, seed: int = 0) -> nx.Graph:
    """Preferential-attachment graph with heavy-tailed degrees."""
    _check_n(n)
    if n <= attachment:
        return clique(n)
    return nx.barabasi_albert_graph(n, attachment, seed=seed)


def disjoint_cliques(count: int, size: int) -> nx.Graph:
    """``count`` disjoint cliques of ``size`` nodes (small-component stress)."""
    if count < 1 or size < 1:
        raise ValueError("invalid clique-union parameters")
    graph = nx.Graph()
    for index in range(count):
        offset = index * size
        graph.add_nodes_from(range(offset, offset + size))
        for u, v in itertools.combinations(range(offset, offset + size), 2):
            graph.add_edge(u, v)
    return graph


def planted_max_degree(n: int, delta: int, seed: int = 0) -> nx.Graph:
    """Graph with max degree exactly ``delta``: a random near-regular graph.

    Used by the Lemma 3.1 / 3.4 experiments, which need a controlled Δ.
    """
    _check_n(n)
    if delta >= n:
        raise ValueError(f"delta={delta} must be < n={n}")
    degree = delta
    if (n * degree) % 2 != 0:
        degree -= 1
    if degree <= 0:
        return empty_graph(n)
    return random_regular(n, degree, seed=seed)


# ----------------------------------------------------------------------
# Family registry for sweeps: name -> fn(n, seed) -> graph
# ----------------------------------------------------------------------
GraphFactory = Callable[[int, int], nx.Graph]

FAMILIES: Dict[str, GraphFactory] = {
    "gnp_sqrt_degree": lambda n, seed: gnp_expected_degree(
        n, max(1.0, float(np.sqrt(n))), seed=seed
    ),
    "gnp_log_degree": lambda n, seed: gnp_expected_degree(
        n, max(1.0, float(np.log2(max(2, n)))), seed=seed
    ),
    "random_regular_16": lambda n, seed: random_regular(n, min(16, n - 1), seed=seed),
    "geometric": lambda n, seed: random_geometric(n, seed=seed),
    "barabasi_albert": lambda n, seed: barabasi_albert(n, 3, seed=seed),
    "grid": lambda n, seed: grid_2d(
        max(1, int(np.sqrt(n))), max(1, int(np.sqrt(n)))
    ),
}


#: Families with a fully array-native sampler (no networkx at any point);
#: the rest build the networkx graph and convert via ``from_graph``.
_ARRAY_FAMILIES: Dict[str, GraphFactory] = {
    "gnp_sqrt_degree": lambda n, seed: gnp_expected_degree(
        n, max(1.0, float(np.sqrt(n))), seed=seed, as_arrays=True
    ),
    "gnp_log_degree": lambda n, seed: gnp_expected_degree(
        n, max(1.0, float(np.log2(max(2, n)))), seed=seed, as_arrays=True
    ),
}


def make_family(name: str, n: int, seed: int = 0, *, as_arrays: bool = False):
    """Instantiate a registered family by name.

    ``as_arrays=True`` returns a CSR-backed
    :class:`~repro.congest.vectorized.GraphArrays`: array-natively sampled
    for the G(n, p) families, converted from the networkx graph otherwise.
    """
    if name not in FAMILIES:
        raise KeyError(f"unknown graph family {name!r}; have {sorted(FAMILIES)}")
    if as_arrays:
        native = _ARRAY_FAMILIES.get(name)
        if native is not None:
            return native(n, seed)
        from ..congest.vectorized import GraphArrays

        return GraphArrays.from_graph(FAMILIES[name](n, seed))
    return FAMILIES[name](n, seed)
