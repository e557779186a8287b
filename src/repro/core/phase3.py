"""Phase III: finishing the small shattered components (Lemma 2.7).

Each component left by Phase II has ``poly(log n)`` nodes grouped into
``O(log n / log log n)`` clusters of diameter ``O(log log n)``. Per
component (all components run in parallel):

1. **Merge** all clusters into one, with a rooted spanning tree of diameter
   ``O(log n)`` (Lemma 2.8; see :mod:`repro.cluster.merge`).
2. **Parallel executions** — run ``Θ(log n)`` independent executions of
   Ghaffari's 1-bit MIS algorithm simultaneously (one CONGEST message carries
   one bit per execution) for ``O(log log n)`` iterations each.
3. **Success selection** — every node checks each execution locally (it is
   happy iff it joined with no joining neighbor, or it has a joining
   neighbor); a convergecast-AND per execution tells the root which
   executions decided every node, and one broadcast announces the first
   successful execution. Its output is the component's MIS.

With probability ``1 - 1/poly(n)`` some execution succeeds; if none does
(possible at simulation scales), the block reruns with fresh randomness up
to ``config.phase3_retries`` times, charging its rounds honestly; a
component that still fails leaves its undecided nodes in ``remaining``
(and the failure is reported in the details).
"""

from __future__ import annotations

from bisect import bisect_left
from functools import partial
from typing import List, Optional, Set, Tuple

import numpy as np

from ..baselines.ghaffari import ACTIVE, JOINED, GhaffariProgram
from ..cluster import Choreography, ClusterState, merge_component_clusters
from ..congest import DEFAULT_OPTIONS, EnergyLedger, Network, RunOptions
from ..congest.metrics import RunMetrics
from .config import DEFAULT_CONFIG, AlgorithmConfig
from .phase_result import PhaseResult, phase_metrics


def _derive_seed(*parts: int, spawn_key: Tuple[int, ...] = ()) -> int:
    sequence = np.random.SeedSequence(list(parts), spawn_key=spawn_key)
    return int(sequence.generate_state(1)[0])


def _run_executions(
    state: ClusterState,
    executions: int,
    iterations: int,
    seed: int,
    ledger: EnergyLedger,
    size_bound: int,
    options: RunOptions,
) -> Tuple[np.ndarray, List[int], RunMetrics]:
    """One block of parallel Ghaffari executions on a component; returns
    the final ``(nodes, executions)`` status column, the node labels of
    its rows, and the metrics of the network that ran them."""
    network = Network(
        state.graph,
        partial(GhaffariProgram, iterations=iterations,
                executions=executions),
        seed=seed, ledger=ledger, size_bound=size_bound,
        channel=options.channel, instrument=options.instrument,
        faults=options.faults,
    )
    run = network.run(max_rounds=10 * iterations + 16, engine=options.engine)
    return network.state_columns["status"], list(network._node_order), run


def _successful_executions(status: np.ndarray) -> List[int]:
    """Executions in which every node of the component is decided."""
    return np.flatnonzero((status != ACTIVE).all(axis=0)).tolist()


def run_phase3(
    components: List[ClusterState],
    *,
    seed: int = 0,
    config: AlgorithmConfig = DEFAULT_CONFIG,
    ledger: Optional[EnergyLedger] = None,
    size_bound: int,
    variant: str = "alg1",
    options: RunOptions = DEFAULT_OPTIONS,
) -> PhaseResult:
    """Run Lemma 2.7 on every component (in parallel; rounds = the maximum).

    ``variant`` selects the finishing strategy:

    * ``"alg1"`` — two Linial rounds in the matching step (Section 2.3);
    * ``"alg2"`` — constant palette via ``O(log* n)`` Linial rounds
      (Section 3.2 / [BM21a]);
    * ``"local"`` — the LOCAL-model shortcut the paper mentions before
      introducing the parallel executions: with unbounded messages, one
      convergecast ships the whole component topology to the root, which
      solves the MIS locally and broadcasts the answer. No randomness, no
      failure probability; only meaningful outside CONGEST.

    The metrics' message counters are the sum over every execution
    network the phase built, failed attempts included. The cluster
    choreography (merging, convergecasts, broadcasts) charges awake
    rounds to the ledger only: it is metered, not simulated message by
    message, so it adds no message counts.
    """
    if variant not in ("alg1", "alg2", "local"):
        raise ValueError(f"unknown variant {variant!r}")
    all_nodes: Set[int] = set()
    for state in components:
        all_nodes |= set(state.graph.nodes)
    if not all_nodes:
        return PhaseResult.idle((), {"components": 0, "failures": 0})
    if ledger is None:
        ledger = EnergyLedger(all_nodes)

    before = ledger.snapshot()
    executions = config.phase3_executions(size_bound)
    if variant == "alg2":
        linial_kwargs = dict(
            linial_rounds=None,
            linial_target_palette=config.alg2_linial_target_palette,
        )
    else:
        linial_kwargs = dict(
            linial_rounds=config.phase3_linial_rounds,
            linial_target_palette=None,
        )

    joined: Set[int] = set()
    remaining: Set[int] = set()
    max_component_rounds = 0
    failures = 0
    merge_iterations_max = 0
    tree_height_max = 0
    runs: List[RunMetrics] = []
    order: Optional[list] = None

    for state in components:
        component_nodes = sorted(state.graph.nodes)
        choreography = Choreography(ledger)

        if state.cluster_count > 1:
            tree, merge_report = merge_component_clusters(
                state, choreography, **linial_kwargs
            )
            merge_iterations_max = max(
                merge_iterations_max, merge_report.iterations
            )
        else:
            tree = next(iter(state.trees.values()))
        tree_height_max = max(tree_height_max, tree.height)

        if variant == "local":
            # LOCAL shortcut: topology up, solution down; two tree ops.
            from ..baselines.sequential import greedy_mis

            allotment = tree.height + 2
            choreography.convergecast(tree, allotment)
            choreography.broadcast(tree, allotment)
            joined |= greedy_mis(state.graph)
            max_component_rounds = max(
                max_component_rounds, choreography.clock
            )
            continue

        # Key the component's seeds by its least node: the label itself
        # when it is a non-negative int, else its rank among all nodes,
        # in the spawn key so the two kinds of key never meet
        # (``SeedSequence`` takes only non-negative ints).
        least = component_nodes[0]
        if isinstance(least, (int, np.integer)) and least >= 0:
            key, spawn_key = (int(least),), ()
        else:
            if order is None:
                order = sorted(all_nodes)
            key, spawn_key = (), (bisect_left(order, least),)
        iterations = config.phase3_iterations(len(component_nodes))
        engine_rounds = 0
        winner: Optional[int] = None
        for attempt in range(config.phase3_retries + 1):
            block_seed = _derive_seed(
                seed, *key, attempt, spawn_key=spawn_key
            )
            status, nodes, run = _run_executions(
                state, executions, iterations, block_seed, ledger, size_bound,
                options,
            )
            runs.append(run)
            engine_rounds += run.rounds
            # Local success checks (already known from received join bits),
            # then a convergecast-AND per execution and one broadcast of the
            # chosen execution index.
            choreography.exchange(component_nodes)
            allotment = tree.height + 2
            choreography.convergecast(tree, allotment)
            choreography.broadcast(tree, allotment)
            successful = _successful_executions(status)
            if successful:
                winner = successful[0]
                break

        if winner is None:
            failures += 1
            first = status[:, 0].tolist()
            remaining |= {
                node for node, s in zip(nodes, first) if s == ACTIVE
            }
            joined |= {node for node, s in zip(nodes, first) if s == JOINED}
        else:
            won = status[:, winner].tolist()
            joined |= {node for node, s in zip(nodes, won) if s == JOINED}
        max_component_rounds = max(
            max_component_rounds, choreography.clock + engine_rounds
        )

    dominated = all_nodes - joined - remaining
    metrics = phase_metrics(
        max_component_rounds, before, ledger, all_nodes, runs
    )
    result = PhaseResult(
        joined=joined,
        dominated=dominated,
        remaining=remaining,
        metrics=metrics,
        details={
            "components": len(components),
            "executions": executions,
            "failures": failures,
            "merge_iterations_max": merge_iterations_max,
            "tree_height_max": tree_height_max,
        },
    )
    result.check_partition(all_nodes)
    return result
