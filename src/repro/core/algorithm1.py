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

from ..congest import DEFAULT_OPTIONS, EnergyLedger, RunOptions
from ..congest.vectorized import GraphArrays
from ..result import MISResult
from .config import DEFAULT_CONFIG, AlgorithmConfig
from .phase1_alg1 import run_phase1_alg1
from .pipeline import three_phase_mis


def algorithm1(
    graph: nx.Graph | GraphArrays,
    seed: int = 0,
    *,
    config: AlgorithmConfig = DEFAULT_CONFIG,
    ledger: Optional[EnergyLedger] = None,
    size_bound: Optional[int] = None,
    options: RunOptions = DEFAULT_OPTIONS,
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
    options:
        The engine, channel, node faults and instrument of every network
        the three phases build (:class:`repro.congest.RunOptions`);
        default auto engine on CONGEST, unobserved.

    Returns
    -------
    MISResult
        ``mis`` is independent always and maximal w.h.p.; ``metrics``
        carries the total rounds and the per-phase breakdown.
    """
    return three_phase_mis(
        graph, seed, config, ledger, size_bound, options,
        name="algorithm1", phase1_runner=run_phase1_alg1,
        salts=(1, 2, 3), variant="alg1",
    )
