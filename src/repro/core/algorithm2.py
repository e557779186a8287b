"""Algorithm 2 (Theorem 1.2): MIS in ``O(log n · log log n · log* n)`` time
and ``O(log² log n)`` energy.

Composition (Section 3.3): the degree-reduction Phase I of Lemma 3.1 /
Corollary 3.2 (iterating Δ → Δ^0.7 down to a polylog floor), the same
Phase II as Algorithm 1, and Phase III with the [BM21a]-style trade-off —
Linial coloring run for ``O(log* n)`` rounds down to a constant palette, so
iterating the color classes costs ``O(1)`` instead of ``O(log log n)``
rounds per Borůvka iteration.
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
from .phase1_alg2 import run_phase1_alg2
from .phase2 import run_phase2
from .phase3 import _derive_seed, run_phase3


def algorithm2(
    graph: nx.Graph | GraphArrays,
    seed: int = 0,
    *,
    config: AlgorithmConfig = DEFAULT_CONFIG,
    ledger: Optional[EnergyLedger] = None,
    size_bound: Optional[int] = None,
    channel=None,
) -> MISResult:
    """Compute an MIS of ``graph`` with Algorithm 2 of the paper.

    Same contract as :func:`repro.core.algorithm1.algorithm1` (``graph``
    is a networkx graph or a
    :class:`~repro.congest.vectorized.GraphArrays`); the difference is
    the phase mix — faster overall rounds at slightly higher
    (``log² log n`` vs ``log log n``) energy.
    """
    if graph.number_of_nodes() == 0:
        raise ValueError("algorithm2 needs a non-empty graph")
    n = size_bound if size_bound is not None else graph.number_of_nodes()
    if ledger is None:
        ledger = EnergyLedger(graph.nodes)

    instrument = current_instrument()
    prof = instrument.profiler
    with channel_scope(channel):
        instrument.on_phase_start("phase1")
        with section_scope(prof, "phase1"):
            phase1 = run_phase1_alg2(
                graph,
                seed=_derive_seed(seed, 101),
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
                seed=_derive_seed(seed, 102),
                config=config,
                ledger=ledger,
                size_bound=n,
            )
        instrument.on_phase_end("phase2", phase2.metrics)

        instrument.on_phase_start("phase3")
        with section_scope(prof, "phase3"):
            phase3 = run_phase3(
                phase2.components,
                seed=_derive_seed(seed, 103),
                config=config,
                ledger=ledger,
                size_bound=n,
                variant="alg2",
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
        algorithm="algorithm2",
        details={
            "phase1": phase1.details,
            "phase2": phase2.details,
            "phase3": phase3.details,
            "undecided": sorted(phase3.remaining),
        },
    )
