"""The drivers' shared body: observed phases composed on one ledger.

Algorithms 1 and 2 (Theorems 1.1/1.2) run the same three phases — a
degree-reducing Phase I, the Phase II shattering and the Phase III
finish — and differ only in their Phase I, their seed salts and their
Phase III variant, so :func:`three_phase_mis` states the composition
once. The Section 4 drivers reuse :func:`driver_inputs`,
:func:`observed_phase` and :func:`combine_phases`.
"""

from __future__ import annotations

import operator
from functools import reduce
from typing import Any, Dict, Optional, Sequence

from ..congest import EnergyLedger, RunOptions
from ..congest.metrics import RunMetrics
from ..obs import resolve_instrument, section_scope
from ..result import MISResult
from .config import AlgorithmConfig
from .phase2 import run_phase2
from .phase3 import _derive_seed, run_phase3
from .phase_result import PhaseResult


def driver_inputs(graph, name: str, ledger: Optional[EnergyLedger],
                  size_bound: Optional[int]):
    """Check a driver's input graph; return its schedules' ``n`` (the
    graph's size unless ``size_bound`` is given) and the shared ledger."""
    if graph.number_of_nodes() == 0:
        raise ValueError(f"{name} needs a non-empty graph")
    n = size_bound if size_bound is not None else graph.number_of_nodes()
    return n, ledger if ledger is not None else EnergyLedger(graph.nodes)


def observed_phase(name: str, runner, *args, options: RunOptions, **kwargs):
    """Run ``runner(*args, options=options, **kwargs)`` as the phase
    ``name``, observed by ``options.instrument``.

    Phase names match the keys of :func:`combine_phases`, so the event
    stream, the profile tree and ``metrics.phases`` line up.
    """
    instrument = resolve_instrument(options.instrument)
    instrument.on_phase_start(name)
    with section_scope(instrument.profiler, name):
        result = runner(*args, options=options, **kwargs)
    instrument.on_phase_end(name, result.metrics)
    return result


def combine_phases(
    name: str,
    phases: Dict[str, PhaseResult],
    ledger: EnergyLedger,
    details: Dict[str, Any],
) -> MISResult:
    """The MIS result of phases run back to back on ``ledger``: the union
    of their joined sets, with their metrics combined."""
    mis = reduce(operator.or_, (phase.joined for phase in phases.values()))
    metrics = RunMetrics.combine_sequential(
        {key: phase.metrics for key, phase in phases.items()}, ledger=ledger
    )
    return MISResult(mis=mis, metrics=metrics, algorithm=name,
                     details=details)


def three_phase_mis(
    graph,
    seed: int,
    config: AlgorithmConfig,
    ledger: Optional[EnergyLedger],
    size_bound: Optional[int],
    options: RunOptions,
    *,
    name: str,
    phase1_runner,
    salts: Sequence[int],
    variant: str,
) -> MISResult:
    """Phase I (``phase1_runner``) → Phase II → Phase III (``variant``) on
    one shared ledger; phase ``k`` runs with seed
    ``_derive_seed(seed, salts[k - 1])``, every network under
    ``options``."""
    n, ledger = driver_inputs(graph, name, ledger, size_bound)
    common = dict(config=config, ledger=ledger, size_bound=n, options=options)
    phase1 = observed_phase(
        "phase1", phase1_runner, graph,
        seed=_derive_seed(seed, salts[0]), **common,
    )
    phase2 = observed_phase(
        "phase2", run_phase2, phase1.residual,
        seed=_derive_seed(seed, salts[1]), **common,
    )
    phase3 = observed_phase(
        "phase3", run_phase3, phase2.components,
        seed=_derive_seed(seed, salts[2]), variant=variant, **common,
    )
    phases = {"phase1": phase1, "phase2": phase2, "phase3": phase3}
    details = {key: phase.details for key, phase in phases.items()}
    details["undecided"] = sorted(phase3.remaining)
    return combine_phases(name, phases, ledger, details)
