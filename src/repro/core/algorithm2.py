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

from ..congest import DEFAULT_OPTIONS, EnergyLedger, RunOptions
from ..congest.vectorized import GraphArrays
from ..result import MISResult
from .config import DEFAULT_CONFIG, AlgorithmConfig
from .phase1_alg2 import run_phase1_alg2
from .pipeline import three_phase_mis


def algorithm2(
    graph: nx.Graph | GraphArrays,
    seed: int = 0,
    *,
    config: AlgorithmConfig = DEFAULT_CONFIG,
    ledger: Optional[EnergyLedger] = None,
    size_bound: Optional[int] = None,
    options: RunOptions = DEFAULT_OPTIONS,
) -> MISResult:
    """Compute an MIS of ``graph`` with Algorithm 2 of the paper.

    Same contract as :func:`repro.core.algorithm1.algorithm1` (``graph``
    is a networkx graph or a
    :class:`~repro.congest.vectorized.GraphArrays`); the difference is
    the phase mix — faster overall rounds at slightly higher
    (``log² log n`` vs ``log log n``) energy.
    """
    return three_phase_mis(
        graph, seed, config, ledger, size_bound, options,
        name="algorithm2", phase1_runner=run_phase1_alg2,
        salts=(101, 102, 103), variant="alg2",
    )
