"""Verification of independent sets and MIS outputs.

The paper's algorithms always output an independent set; maximality holds
with high probability. The verifier distinguishes the two so experiments can
report failure *rates* for the probabilistic part (experiment E11).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Set, Tuple

import networkx as nx
import numpy as np

from ..congest.vectorized import GraphArrays


@dataclass
class MISReport:
    """Outcome of verifying a candidate MIS."""

    independent: bool
    maximal: bool
    conflicting_edges: List[Tuple[int, int]] = field(default_factory=list)
    uncovered_nodes: List[int] = field(default_factory=list)

    @property
    def valid(self) -> bool:
        return self.independent and self.maximal


def is_independent_set(graph: nx.Graph, candidate: Set[int]) -> bool:
    """True iff no two candidate nodes are adjacent."""
    return not _conflicting_edges(graph, candidate, limit=1)


def _conflicting_edges(graph: nx.Graph, candidate: Set[int], limit=None):
    conflicts = []
    for node in candidate:
        if node not in graph:
            raise KeyError(f"candidate node {node} not in graph")
        for neighbor in graph.neighbors(node):
            if neighbor in candidate and node < neighbor:
                conflicts.append((node, neighbor))
                if limit is not None and len(conflicts) >= limit:
                    return conflicts
    return conflicts


def uncovered_nodes(graph: nx.Graph, candidate: Set[int]) -> List[int]:
    """Nodes that are neither in the candidate set nor adjacent to it."""
    uncovered = []
    for node in graph.nodes:
        if node in candidate:
            continue
        if not any(neighbor in candidate for neighbor in graph.neighbors(node)):
            uncovered.append(node)
    return uncovered


def is_maximal_independent_set(graph: nx.Graph, candidate: Set[int]) -> bool:
    """True iff the candidate is independent and dominates every node."""
    return (
        is_independent_set(graph, candidate)
        and not uncovered_nodes(graph, candidate)
    )


def _array_check(graph: GraphArrays, candidate: Set[int]):
    """``(conflicts, uncovered)`` of a candidate on a CSR graph, by mask
    and edge-array operations over the graph's own adjacency.

    Conflicts come in ascending (node, neighbor) rank order, uncovered
    nodes in rank order (``graph.nodes`` order, as the dict walk gives).
    """
    unknown = [node for node in candidate if node not in graph]
    if unknown:
        raise KeyError(f"candidate node {unknown[0]} not in graph")
    chosen = graph.rank_mask(candidate)
    source, target = graph.edge_source, graph.indices
    on_edge = chosen[source]
    clash = on_edge & chosen[target] & (source < target)
    covered = chosen.copy()
    covered[target[on_edge]] = True
    nodes = graph.nodes
    conflicts = [
        (nodes[u], nodes[v])
        for u, v in zip(source[clash].tolist(), target[clash].tolist())
    ]
    uncovered = [nodes[i] for i in np.flatnonzero(~covered).tolist()]
    return conflicts, uncovered


def verify_mis(graph: nx.Graph, candidate: Set[int]) -> MISReport:
    """Full report: independence violations and uncovered nodes.

    A :class:`~repro.congest.vectorized.GraphArrays` input is checked with
    array operations over its own CSR; a ``networkx`` input by walking its
    adjacency dicts, so that check stays independent of the CSR the
    algorithms ran on.
    """
    if isinstance(graph, GraphArrays):
        conflicts, uncovered = _array_check(graph, candidate)
    else:
        conflicts = _conflicting_edges(graph, candidate)
        uncovered = uncovered_nodes(graph, candidate)
    return MISReport(
        independent=not conflicts,
        maximal=not conflicts and not uncovered,
        conflicting_edges=conflicts,
        uncovered_nodes=uncovered,
    )


def greedy_completion(graph: nx.Graph, candidate: Set[int]) -> Set[int]:
    """Extend an independent set to a maximal one greedily (by node id).

    Useful for measuring how far a probabilistic output was from maximality.
    Raises if the candidate is not independent.
    """
    if not is_independent_set(graph, candidate):
        raise ValueError("cannot complete a non-independent set")
    completed = set(candidate)
    blocked = set(candidate)
    for node in candidate:
        blocked.update(graph.neighbors(node))
    for node in sorted(graph.nodes):
        if node not in blocked:
            completed.add(node)
            blocked.add(node)
            blocked.update(graph.neighbors(node))
    return completed
