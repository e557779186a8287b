"""Phase II: shattering the poly(log n)-degree residual graph (Lemma 2.6).

The residual graph left by Phase I has maximum degree ``Δ₂ = O(log² n)``
(Algorithm 1) or ``O(log²⁰ n)`` (Algorithm 2). Running Ghaffari's MIS
algorithm for ``O(log Δ₂)`` rounds with *all nodes awake* leaves every node
undecided only with probability ``1/poly(Δ₂)``, which shatters the graph:
undecided nodes form small connected components. The phase then groups each
component's nodes into clusters of diameter ``O(log log n)``, each with a
rooted spanning tree — the structure Phase III consumes.

Since ``Δ₂`` is polylogarithmic, keeping every node awake for the whole
phase costs only ``O(log Δ₂) = O(log log n)`` energy, which the paper simply
absorbs into the budget.

Clustering substitution: the paper inherits its clustering from the
internals of [Gha16]; we build it directly with iterated minimum-id ball
carving of radius ``Θ(log log n)``: local minima within the radius become
centers, a first-adoption multi-source BFS builds connected clusters with
BFS spanning trees, and leftover nodes repeat. This yields exactly the
interface Lemma 2.6 promises — connected clusters of bounded diameter with
rooted trees.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

import networkx as nx

from ..baselines.ghaffari import ghaffari_shatter
from ..cluster import Choreography, ClusterState, RootedTree, state_from_trees
from ..congest import DEFAULT_OPTIONS, EnergyLedger, RunOptions
from ..congest.vectorized import GraphArrays
from ..graphs.properties import induced_subgraph, max_degree
from .config import DEFAULT_CONFIG, AlgorithmConfig
from .phase_result import PhaseResult, phase_metrics


@dataclass
class Phase2Result(PhaseResult):
    """Phase II output: the usual partition plus per-component clusterings."""

    components: List[ClusterState] = field(default_factory=list)


def ball_carving(
    graph: nx.Graph, radius: int, choreography: Choreography
) -> Dict[int, RootedTree]:
    """Cluster ``graph`` into connected balls of radius <= ``radius``.

    Iterated min-id carving: per sweep, every node that holds the minimum
    id within its ``radius``-ball of still-unclustered nodes becomes a
    center; a first-adoption multi-source BFS (capped at ``radius``) grows
    connected clusters around the centers. Unreached nodes go to the next
    sweep. Every sweep clusters at least the globally minimal unclustered
    node, so the loop terminates.

    All unclustered nodes are awake during a sweep (2·radius rounds), which
    matches the paper's "all nodes awake in Phase II" accounting.
    """
    if radius < 1:
        raise ValueError(f"radius must be >= 1, got {radius}")
    trees: Dict[int, RootedTree] = {}
    unclustered: Set[int] = set(graph.nodes)
    sweeps = 0
    while unclustered:
        sweeps += 1
        if sweeps > graph.number_of_nodes() + 1:
            raise RuntimeError("ball carving failed to make progress")

        # Min-id relaxation: after `radius` rounds each node knows the
        # minimum id within its radius-ball (restricted to unclustered).
        best = {node: node for node in unclustered}
        for _ in range(radius):
            updated = dict(best)
            for node in unclustered:
                for neighbor in graph.neighbors(node):
                    if neighbor in unclustered and best[neighbor] < updated[node]:
                        updated[node] = best[neighbor]
            best = updated
        choreography.awake_all(unclustered, radius)

        centers = sorted(node for node in unclustered if best[node] == node)
        owner: Dict[int, int] = {center: center for center in centers}
        parent: Dict[int, Optional[int]] = {center: None for center in centers}
        depth: Dict[int, int] = {center: 0 for center in centers}
        frontier = centers
        for distance in range(1, radius + 1):
            candidates: Dict[int, tuple] = {}
            for via in frontier:
                for node in graph.neighbors(via):
                    if node in unclustered and node not in owner:
                        key = (owner[via], via)
                        if node not in candidates or key < candidates[node]:
                            candidates[node] = key
            if not candidates:
                break
            for node in sorted(candidates):
                center, via = candidates[node]
                owner[node] = center
                parent[node] = via
                depth[node] = distance
            frontier = sorted(candidates)
        choreography.awake_all(unclustered, radius)

        # One grouping pass; members keep ``owner``'s insertion order.
        members_of: Dict[int, List[int]] = {center: [] for center in centers}
        for node, center in owner.items():
            members_of[center].append(node)
        for center in centers:
            members = members_of[center]
            tree = RootedTree(
                root=center,
                parent={node: parent[node] for node in members},
                depth={node: depth[node] for node in members},
            )
            tree.validate()
            trees[center] = tree
        unclustered -= set(owner)
    return trees


def run_phase2(
    graph: nx.Graph | GraphArrays,
    *,
    seed: int = 0,
    config: AlgorithmConfig = DEFAULT_CONFIG,
    ledger: Optional[EnergyLedger] = None,
    size_bound: Optional[int] = None,
    options: RunOptions = DEFAULT_OPTIONS,
) -> Phase2Result:
    """Run Lemma 2.6's phase on the residual graph.

    Returns the phase partition plus one :class:`ClusterState` per connected
    component of the undecided residue.
    """
    if graph.number_of_nodes() == 0:
        return Phase2Result.idle((), {"components": 0})
    n = size_bound if size_bound is not None else graph.number_of_nodes()
    if ledger is None:
        ledger = EnergyLedger(graph.nodes)

    before = ledger.snapshot()
    delta2 = max_degree(graph)
    iterations = config.phase2_shatter_iterations(n, delta2)
    joined, undecided, network = ghaffari_shatter(
        graph, iterations, seed=seed, ledger=ledger, size_bound=n,
        options=options,
    )
    dominated = set(graph.nodes) - joined - undecided
    shatter_rounds = network.metrics().rounds

    # Only the small undecided residue becomes a networkx graph: ball
    # carving and the Phase III clusters walk it node by node.
    residue = induced_subgraph(graph, undecided)
    residue_graph = residue.to_networkx()
    choreography = Choreography(ledger)
    radius = config.phase2_radius(n)
    trees = (
        ball_carving(residue_graph, radius, choreography) if undecided else {}
    )

    component_sets = sorted(
        nx.connected_components(residue_graph), key=lambda c: min(c)
    )
    # One grouping pass over the trees; each component's trees keep the
    # carving's order.
    index_of = {
        node: index
        for index, component in enumerate(component_sets)
        for node in component
    }
    trees_of: List[Dict[int, RootedTree]] = [{} for _ in component_sets]
    for center, tree in trees.items():
        trees_of[index_of[center]][center] = tree
    components: List[ClusterState] = [
        state_from_trees(
            induced_subgraph(residue, component).to_networkx(), trees_of[i]
        )
        for i, component in enumerate(component_sets)
    ]

    metrics = phase_metrics(
        shatter_rounds + choreography.clock, before, ledger, graph.nodes,
        [network],
    )
    result = Phase2Result(
        joined=joined,
        dominated=dominated,
        remaining=undecided,
        metrics=metrics,
        details={
            "delta2": delta2,
            "shatter_iterations": iterations,
            "cluster_radius": radius,
            "components": len(components),
            "largest_component": max(
                (len(c.graph) for c in components), default=0
            ),
            "cluster_count": sum(c.cluster_count for c in components),
        },
        components=components,
    )
    result.check_partition(set(graph.nodes))
    return result
