"""Timeline driver: apply churn epochs, repair the MIS, verify, account.

This is the dynamic analogue of :func:`repro.harness.run_algorithm` — one
call runs a whole churn timeline and returns a :class:`DynamicRunResult`
with per-epoch accounting (repair-region size, rounds, energy, MIS churn)
plus lifetime aggregates read off the shared energy ledger.

The simulator re-verifies the MIS invariant on the **full** graph after
every epoch with :func:`repro.analysis.verify_mis` — the maintainer only
ever looks at local neighborhoods, so this is a genuine end-to-end check,
not a restatement of the repair rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

import networkx as nx

from ..analysis import verify_mis
from ..congest import DEFAULT_OPTIONS, RunOptions
from ..congest.metrics import EnergyLedger
from ..obs import resolve_instrument
from .events import GraphEvent
from .maintainer import INCREMENTAL, MISMaintainer, RepairReport


class MISInvariantError(AssertionError):
    """The maintained set stopped being a valid MIS after some epoch."""


@dataclass
class EpochResult:
    """One row of the timeline: topology, cost, and stability after an epoch."""

    epoch: int
    events: int
    nodes: int
    edges: int
    mis_size: int
    repair_region: int
    probed: int
    rounds: int
    energy: int
    cumulative_rounds: int
    cumulative_energy: int
    mis_churn: int
    independent: bool
    maximal: bool
    verified: bool = True

    @property
    def valid(self) -> bool:
        return self.independent and self.maximal


@dataclass
class DynamicRunResult:
    """Outcome of maintaining an MIS across a whole churn timeline."""

    algorithm: str
    strategy: str
    seed: int
    epochs: List[EpochResult] = field(default_factory=list)
    ledger_snapshot: Dict[int, int] = field(default_factory=dict)

    @property
    def total_rounds(self) -> int:
        return self.epochs[-1].cumulative_rounds if self.epochs else 0

    @property
    def cumulative_energy(self) -> int:
        """Lifetime awake-rounds summed over every node ever deployed."""
        return sum(self.ledger_snapshot.values())

    @property
    def max_energy(self) -> int:
        """Lifetime energy complexity: max awake-rounds over all nodes."""
        return max(self.ledger_snapshot.values(), default=0)

    @property
    def average_energy(self) -> float:
        """Lifetime node-averaged energy (Section 4's measure, cumulative)."""
        if not self.ledger_snapshot:
            return 0.0
        return self.cumulative_energy / len(self.ledger_snapshot)

    @property
    def total_mis_churn(self) -> int:
        """Set-change volume of the backbone, excluding the initial election."""
        return sum(row.mis_churn for row in self.epochs[1:])

    @property
    def total_repair_region(self) -> int:
        return sum(row.repair_region for row in self.epochs[1:])

    @property
    def all_valid(self) -> bool:
        return all(row.valid for row in self.epochs)

    def summary(self) -> Dict[str, float]:
        """Flat numbers for tables/benchmarks (mirrors ``harness.measure``)."""
        return {
            "epochs": float(max(0, len(self.epochs) - 1)),
            "total_rounds": float(self.total_rounds),
            "cumulative_energy": float(self.cumulative_energy),
            "max_energy": float(self.max_energy),
            "average_energy": float(self.average_energy),
            "total_repair_region": float(self.total_repair_region),
            "total_mis_churn": float(self.total_mis_churn),
            "all_valid": 1.0 if self.all_valid else 0.0,
        }


def run_dynamic(
    graph: nx.Graph,
    timeline: Sequence[Sequence[GraphEvent]],
    algorithm: Any = "algorithm1",
    *,
    strategy: str = INCREMENTAL,
    seed: int = 0,
    check_invariant: bool = True,
    verify_every: int = 1,
    ledger: Optional[EnergyLedger] = None,
    algorithm_kwargs: Optional[Dict[str, Any]] = None,
    options: RunOptions = DEFAULT_OPTIONS,
) -> DynamicRunResult:
    """Maintain an MIS of ``graph`` across ``timeline`` and account every epoch.

    Epoch 0 of the result is the initial election on the starting topology;
    epoch ``i >= 1`` covers ``timeline[i-1]``. With ``check_invariant`` (the
    default) a broken invariant raises :class:`MISInvariantError`
    immediately; otherwise the failure is recorded in the per-epoch flags
    and the run continues.

    ``verify_every`` is a performance knob for long timelines: the full-graph
    :func:`verify_mis` check (O(n + m) per epoch, easily dominating cheap
    incremental repairs) runs only every ``verify_every``-th epoch, plus
    always on the first and last. Skipped epochs are marked
    ``verified=False`` and count as valid; the default of 1 keeps the
    original verify-everything behavior.

    ``options`` runs every election and repair (engine, channel, node
    faults, instrument); its instrument also sees each epoch. A registered
    algorithm is refused on a radio channel it is unsound on, as in
    :func:`repro.harness.run_algorithm`.
    """
    if verify_every < 1:
        raise ValueError(f"verify_every must be >= 1, got {verify_every}")
    if isinstance(algorithm, str) and options.channel is not None:
        from ..harness.runner import _check_radio_safety  # avoids a cycle

        _check_radio_safety(algorithm, options.channel)
    maintainer = MISMaintainer(
        graph,
        algorithm,
        strategy=strategy,
        seed=seed,
        ledger=ledger,
        algorithm_kwargs=algorithm_kwargs,
        options=options,
    )
    instrument = resolve_instrument(options.instrument)
    result = DynamicRunResult(
        algorithm=maintainer.algorithm_name,
        strategy=maintainer.strategy,
        seed=seed,
    )
    total_epochs = len(timeline) + 1
    _record(result, maintainer, maintainer.initial, check_invariant,
            instrument, verify=True)
    for index, batch in enumerate(timeline, start=1):
        report = maintainer.apply_epoch(batch)
        verify = index % verify_every == 0 or index == total_epochs - 1
        _record(result, maintainer, report, check_invariant, instrument,
                verify=verify)
    result.ledger_snapshot = maintainer.ledger.snapshot()
    return result


def _record(
    result: DynamicRunResult,
    maintainer: MISMaintainer,
    report: RepairReport,
    check_invariant: bool,
    instrument,
    verify: bool = True,
) -> None:
    graph = maintainer.graph
    if not verify:
        independent = maximal = True
    elif graph.number_of_nodes():
        verdict = verify_mis(graph, maintainer.mis)
        independent, maximal = verdict.independent, verdict.maximal
    else:
        independent = maximal = not maintainer.mis
    if verify and check_invariant and not (independent and maximal):
        raise MISInvariantError(
            f"epoch {report.epoch} ({maintainer.strategy}/"
            f"{maintainer.algorithm_name}): independent={independent}, "
            f"maximal={maximal}"
        )
    previous = result.epochs[-1] if result.epochs else None
    result.epochs.append(
        EpochResult(
            epoch=report.epoch,
            events=report.events,
            nodes=graph.number_of_nodes(),
            edges=graph.number_of_edges(),
            mis_size=len(maintainer.mis),
            repair_region=report.repair_region,
            probed=report.probed,
            rounds=report.rounds,
            energy=report.energy,
            cumulative_rounds=(previous.cumulative_rounds if previous else 0)
            + report.rounds,
            cumulative_energy=(previous.cumulative_energy if previous else 0)
            + report.energy,
            mis_churn=report.mis_churn,
            independent=independent,
            maximal=maximal,
            verified=verify,
        )
    )
    instrument.on_epoch(result.epochs[-1])
