"""Small graph-property helpers used across phases and experiments."""

from __future__ import annotations

from typing import Dict, List, Set

import networkx as nx

from ..congest.vectorized import GraphArrays, graph_csr


def max_degree(graph) -> int:
    """Maximum degree Δ of the graph (0 for edgeless graphs)."""
    if graph.number_of_nodes() == 0:
        return 0
    degrees = getattr(graph, "degrees", None)
    if degrees is not None:  # CSR-backed GraphArrays: one array reduction
        return int(degrees.max(initial=0))
    return max((d for _, d in graph.degree), default=0)


def component_sizes(graph: nx.Graph) -> List[int]:
    """Sizes of connected components, descending."""
    return sorted(
        (len(c) for c in nx.connected_components(graph)), reverse=True
    )


def induced_subgraph(graph, nodes) -> GraphArrays:
    """The subgraph induced by ``nodes``, as a CSR detached from the parent.

    ``graph`` is a networkx graph or a :class:`GraphArrays`; the induction
    runs on its (cached) CSR and keeps the parent's labels, in sorted
    order. This is the hand-off between the phases of the paper's
    algorithms.
    """
    return graph_csr(graph).induced(nodes)


def remove_closed_neighborhoods(graph, centers: Set[int]) -> GraphArrays:
    """The induced subgraph left once every center and all its neighbors
    are removed.

    This is the operation the paper applies after each phase: the computed
    independent set and its neighborhood leave the residual graph.
    """
    removed = set(centers)
    for center in centers:
        removed.update(graph.neighbors(center))
    return induced_subgraph(graph, set(graph.nodes) - removed)


def closed_neighborhood(graph: nx.Graph, nodes: Set[int]) -> Set[int]:
    """The nodes plus all their neighbors."""
    closed = set(nodes)
    for node in nodes:
        closed.update(graph.neighbors(node))
    return closed


def degrees_within(graph: nx.Graph, nodes: Set[int]) -> Dict[int, int]:
    """Degree of each node of ``nodes`` counted inside the induced subgraph."""
    node_set = set(nodes)
    return {
        v: sum(1 for u in graph.neighbors(v) if u in node_set) for v in node_set
    }


def eccentricity_upper_bound(graph: nx.Graph) -> int:
    """Cheap upper bound on the diameter: twice a BFS eccentricity per component."""
    bound = 0
    for component in nx.connected_components(graph):
        root = next(iter(component))
        lengths = nx.single_source_shortest_path_length(graph, root)
        bound = max(bound, 2 * max(lengths.values(), default=0))
    return bound
