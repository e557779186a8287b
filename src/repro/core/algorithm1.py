"""Algorithm 1 (Theorem 1.1): MIS in ``O(log² n)`` time and
``O(log log n)`` energy.

Composition of the three phases exactly as in Section 2.4:

1. Phase I (Lemma 2.1) — regularized Luby with one-shot marking and awake
   schedules; leaves a residual graph of maximum degree ``O(log² n)``.
2. Phase II (Lemma 2.6) — Ghaffari-2016 shattering on the residual graph
   (all nodes awake; affordable because the degree is now polylog), plus
   clustering of the undecided residue.
3. Phase III (Lemma 2.7) — per shattered component: cluster merging into a
   spanning tree, ``Θ(log n)`` parallel 1-bit MIS executions, and
   convergecast selection of a successful one.

The union of the three joined sets is an MIS of the input w.h.p.; it is an
independent set unconditionally. One shared :class:`EnergyLedger` threads
through all phases, so the reported energy is the true per-node total.
"""

from __future__ import annotations

from typing import Optional

import networkx as nx

from ..congest import EnergyLedger, channel_scope
from ..congest.metrics import RunMetrics
from ..congest.vectorized import GraphArrays
from ..obs import current_instrument, section_scope
from ..result import MISResult
from .config import DEFAULT_CONFIG, AlgorithmConfig
from .phase1_alg1 import run_phase1_alg1
from .phase2 import run_phase2
from .phase3 import _derive_seed, run_phase3


def algorithm1(
    graph: nx.Graph | GraphArrays,
    seed: int = 0,
    *,
    config: AlgorithmConfig = DEFAULT_CONFIG,
    ledger: Optional[EnergyLedger] = None,
    size_bound: Optional[int] = None,
    channel=None,
) -> MISResult:
    """Compute an MIS of ``graph`` with Algorithm 1 of the paper.

    Parameters
    ----------
    graph:
        Undirected input graph: a networkx graph or a
        :class:`~repro.congest.vectorized.GraphArrays` (any hashable,
        comparable node ids). Phases hand off CSR inductions of it that
        keep its labels.
    seed:
        Master seed; phases derive independent sub-seeds from it.
    config:
        Constant-scaling knobs (see :class:`AlgorithmConfig`).
    size_bound:
        The ``n`` the round/energy schedules scale with; defaults to the
        graph's size. Pass the deployment size when running on a subgraph
        (e.g. dynamic repair regions) so schedules stay network-scaled.
    channel:
        Channel spec threaded (via :func:`repro.congest.channel_scope`)
        through every network the three phases build; default CONGEST.

    Returns
    -------
    MISResult
        ``mis`` is independent always and maximal w.h.p.; ``metrics``
        carries the total rounds and the per-phase breakdown.
    """
    if graph.number_of_nodes() == 0:
        raise ValueError("algorithm1 needs a non-empty graph")
    n = size_bound if size_bound is not None else graph.number_of_nodes()
    if ledger is None:
        ledger = EnergyLedger(graph.nodes)

    instrument = current_instrument()
    prof = instrument.profiler
    with channel_scope(channel):
        instrument.on_phase_start("phase1")
        with section_scope(prof, "phase1"):
            phase1 = run_phase1_alg1(
                graph,
                seed=_derive_seed(seed, 1),
                config=config,
                ledger=ledger,
                size_bound=n,
            )
        instrument.on_phase_end("phase1", phase1.metrics)

        residual = phase1.residual
        instrument.on_phase_start("phase2")
        with section_scope(prof, "phase2"):
            phase2 = run_phase2(
                residual,
                seed=_derive_seed(seed, 2),
                config=config,
                ledger=ledger,
                size_bound=n,
            )
        instrument.on_phase_end("phase2", phase2.metrics)

        instrument.on_phase_start("phase3")
        with section_scope(prof, "phase3"):
            phase3 = run_phase3(
                phase2.components,
                seed=_derive_seed(seed, 3),
                config=config,
                ledger=ledger,
                size_bound=n,
                variant="alg1",
            )
        instrument.on_phase_end("phase3", phase3.metrics)

    mis = phase1.joined | phase2.joined | phase3.joined
    metrics = RunMetrics.combine_sequential(
        {
            "phase1": phase1.metrics,
            "phase2": phase2.metrics,
            "phase3": phase3.metrics,
        },
        ledger=ledger,
    )
    return MISResult(
        mis=mis,
        metrics=metrics,
        algorithm="algorithm1",
        details={
            "phase1": phase1.details,
            "phase2": phase2.details,
            "phase3": phase3.details,
            "undecided": sorted(phase3.remaining),
        },
    )
