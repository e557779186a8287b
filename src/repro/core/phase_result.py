"""Shared result container for the individual phases, and the one runner
every network-backed phase goes through.

Theorems 1.1 and 1.2 add each algorithm's time and energy over its
phases, so every phase must account for its networks the same way:
:func:`run_network_phase` states once how a phase snapshots the shared
ledger, runs its :class:`~repro.congest.Network`, reads off the
partition, builds its metrics and hands off its residual, and
:func:`phase_metrics` builds a phase's metrics with the message counters
of every network it ran.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Optional, Set, Tuple

from ..congest import DEFAULT_OPTIONS, EnergyLedger, Network, RunOptions
from ..congest.metrics import RunMetrics
from ..congest.vectorized import GraphArrays
from ..graphs.properties import induced_subgraph

#: Counters a phase adds up over the networks it ran (``max_message_bits``
#: is the maximum instead).
_SUMMED_COUNTERS = (
    "messages_sent",
    "messages_delivered",
    "messages_dropped",
    "total_message_bits",
    "collisions",
)


@dataclass
class PhaseResult:
    """Output of one phase of a multi-phase MIS algorithm.

    Attributes
    ----------
    joined:
        Nodes this phase added to the independent set.
    dominated:
        Nodes removed because a neighbor joined (in this phase).
    remaining:
        Nodes still undecided after the phase (the next phase's input).
    metrics:
        Time/energy accounting for this phase alone.
    details:
        Phase-specific extras (residual degree, component stats, ...).
    residual:
        The hand-off: the CSR of the phase's input induced on the nodes
        the next phase runs on, with the input's labels — ``remaining``,
        or Lemma 4.2's reduced set (its failed set skips the sparsifier).
        ``None`` for phases whose output feeds no single next graph.
    """

    joined: Set[int]
    dominated: Set[int]
    remaining: Set[int]
    metrics: RunMetrics
    details: Dict[str, Any] = field(default_factory=dict)
    residual: Optional[GraphArrays] = None

    @classmethod
    def idle(cls, nodes: Iterable[int], details: Dict[str, Any],
             residual: Optional[GraphArrays] = None):
        """A phase that ran no rounds: every input node stays undecided."""
        metrics = RunMetrics(rounds=0, max_energy=0, average_energy=0.0,
                             total_energy=0)
        return cls(set(), set(), set(nodes), metrics, details=details,
                   residual=residual)

    def check_partition(self, nodes: Set[int]) -> None:
        """Sanity: joined/dominated/remaining partition the phase's input."""
        union = self.joined | self.dominated | self.remaining
        if union != set(nodes):
            raise ValueError("phase outputs do not cover the input nodes")
        if self.joined & self.dominated or self.joined & self.remaining:
            raise ValueError("joined overlaps dominated/remaining")
        if self.dominated & self.remaining:
            raise ValueError("dominated overlaps remaining")


def phase_metrics(
    rounds: int,
    before: Dict[int, int],
    ledger: EnergyLedger,
    nodes: Iterable[int],
    runs: Iterable = (),
) -> RunMetrics:
    """Metrics of one phase run against ``ledger`` since ``before``.

    The message counters are the sum over ``runs`` — every network the
    phase ran, or the metrics of its sub-phases (both carry the same
    counter attributes) — so no network's traffic goes unreported.
    """
    runs = list(runs)
    counters = {
        name: sum(getattr(run, name) for run in runs)
        for name in _SUMMED_COUNTERS
    }
    counters["max_message_bits"] = max(
        (run.max_message_bits for run in runs), default=0
    )
    return RunMetrics.from_snapshots(
        rounds, before, ledger.snapshot(), nodes, **counters
    )


def flagged(network: Network, key: str) -> Set[int]:
    """The nodes whose boolean output ``key`` is set."""
    return {node for node, flag in network.outputs(key).items() if flag}


def run_network_phase(
    graph,
    programs,
    rounds: int,
    *,
    seed: int,
    ledger: Optional[EnergyLedger],
    size_bound: int,
    handoff_round: bool = False,
    bystanders: Iterable[int] = (),
    hand_off: bool = True,
    set_aside: Optional[str] = None,
    options: RunOptions = DEFAULT_OPTIONS,
) -> Tuple[PhaseResult, Network]:
    """Run one network-backed phase on the shared ``ledger`` (a fresh one
    over ``graph`` when ``None``).

    Builds the :class:`~repro.congest.Network` of ``programs`` (a
    program factory) on ``graph`` under ``options``, runs exactly
    ``rounds`` engine rounds
    and reads the partition off the ``joined`` outputs: a joiner's
    neighbors are dominated, every other node remains. ``handoff_round`` charges (and
    counts) one trailing round in which every node wakes to exchange its
    status — the hand-off the paper performs at the start of the next,
    all-awake phase; ``bystanders`` (nodes outside ``graph``) wake for it
    too, and are charged and counted in the phase's energy scope. The
    residual is the input induced on the remaining nodes, less those
    whose boolean output ``set_aside`` is set (they stay in ``remaining``
    but skip the next phase, like Lemma 4.2's failed set);
    ``hand_off=False`` induces none.

    Returns the checked :class:`PhaseResult`, whose ``details`` the
    caller fills, and the network for reading further outputs.
    """
    if ledger is None:
        ledger = EnergyLedger(graph.nodes)
    before = ledger.snapshot()
    network = Network(
        graph, programs, seed=seed, ledger=ledger, size_bound=size_bound,
        channel=options.channel, instrument=options.instrument,
        faults=options.faults,
    )
    network.run_rounds(rounds, engine=options.engine)
    scope = list(graph.nodes)
    if handoff_round:
        scope.extend(bystanders)
        ledger.charge_many(scope, 1)
        rounds += 1

    joined = flagged(network, "joined")
    dominated: Set[int] = set()
    for node in joined:
        dominated.update(graph.neighbors(node))
    dominated -= joined
    remaining = set(graph.nodes) - joined - dominated

    metrics = phase_metrics(rounds, before, ledger, scope, [network])
    residual = None
    if hand_off:
        kept = remaining
        if set_aside is not None:
            kept = remaining - flagged(network, set_aside)
        residual = induced_subgraph(graph, kept)
    result = PhaseResult(joined, dominated, remaining, metrics,
                         residual=residual)
    result.check_partition(set(graph.nodes))
    return result, network
