"""Incremental MIS repair across topology updates.

The repair rule is the locality argument behind all dynamic-MIS work
(e.g. Assadi et al., STOC 2018): after a batch of updates, the old MIS can
only be invalid *near* the update sites. Concretely:

* a new edge inside the MIS creates a **conflict** — both endpoints are
  dropped and re-decided;
* a deleted edge, a deleted MIS node, or a dropped conflict endpoint can
  leave nodes **uncovered** — and every such node is within one hop of an
  update site or of a dropped MIS node.

So the maintainer wakes only the ≤2-hop neighborhood of the update sites
(the "probe" region), collects the uncovered nodes ``A``, and re-runs a
registered MIS algorithm **on the induced subgraph** ``G[A]`` with the
shared :class:`~repro.congest.metrics.EnergyLedger`. Because no node of
``A`` has a surviving-MIS neighbor, the union of the old survivors with the
freshly elected set is independent, and maximal whenever the sub-run is.

A ``full_recompute`` strategy (throw the MIS away, re-run on the whole
graph) provides the from-scratch baseline the energy comparison is measured
against; both strategies charge the same ledger, so cumulative per-node
totals are directly comparable across a whole timeline.
"""

from __future__ import annotations

import hashlib
import inspect
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Optional, Sequence, Set

import networkx as nx

from ..congest import DEFAULT_OPTIONS, RunOptions
from ..congest.metrics import EnergyLedger
from ..result import MISResult
from .events import NODE_ADD, NODE_REMOVE, GraphEvent, apply_event

INCREMENTAL = "incremental"
FULL_RECOMPUTE = "full_recompute"
STRATEGIES = (INCREMENTAL, FULL_RECOMPUTE)

def _epoch_seed(seed: int, epoch: int) -> int:
    """Independent per-epoch sub-seed, explicit and platform-stable.

    The (seed, epoch) pair is hashed through SHA-256 over a fixed text
    encoding — no ``hash()`` (which is salted per process for str/bytes
    and implementation-defined), no word-size-dependent arithmetic — so
    the same master seed reproduces the same repair sequence on every
    platform, python version, and process.  The digest is folded into the
    non-negative int32 range every registered algorithm accepts.
    """
    digest = hashlib.sha256(
        f"repro.dynamic.epoch:{seed}:{epoch}".encode("ascii")
    ).digest()
    return int.from_bytes(digest[:8], "big") % (2**31 - 1)


@dataclass
class RepairReport:
    """Accounting for one epoch of maintenance (or the initial election)."""

    epoch: int
    strategy: str
    events: int
    repair_region: int  #: nodes the MIS algorithm actually re-ran on
    probed: int  #: nodes woken to re-check the invariant locally
    dropped: int  #: old MIS members lost to conflicts or departures
    rounds: int  #: clock rounds this epoch (probe + repair run)
    energy: int  #: awake-rounds charged to the shared ledger this epoch
    mis_churn: int  #: ``|MIS_t symdiff MIS_{t-1}|``
    recomputed: bool  #: True when the whole graph was re-elected


class MISMaintainer:
    """Maintain a valid MIS of an evolving graph under batched churn.

    The constructor runs the initial election (epoch 0); afterwards
    :meth:`apply_epoch` keeps the invariant across each batch of events.

    Parameters
    ----------
    graph:
        Initial topology (copied; the maintainer owns its evolution).
    algorithm:
        A registered algorithm name (see ``repro.harness.ALGORITHMS``) or
        any callable ``fn(graph, seed=..., ledger=...) -> MISResult``.
    strategy:
        ``"incremental"`` (repair only the invalidated region) or
        ``"full_recompute"`` (re-elect from scratch every epoch).
    seed:
        Master seed; epochs derive independent sub-seeds.
    ledger:
        Optional shared :class:`EnergyLedger`; one is created over the
        initial nodes otherwise. Nodes that join later are added with zero
        history; nodes that leave keep their spent energy on the books, so
        ledger totals are true lifetime costs.
    algorithm_kwargs:
        Extra keyword arguments forwarded to every algorithm invocation
        (e.g. ``config=AlgorithmConfig(...)``).
    options:
        The :class:`~repro.congest.RunOptions` of every election and
        repair, for algorithms that take ``options=`` (all registered
        drivers do).
    """

    def __init__(
        self,
        graph: nx.Graph,
        algorithm: Any = "algorithm1",
        *,
        strategy: str = INCREMENTAL,
        seed: int = 0,
        ledger: Optional[EnergyLedger] = None,
        algorithm_kwargs: Optional[Dict[str, Any]] = None,
        options: RunOptions = DEFAULT_OPTIONS,
    ):
        if strategy not in STRATEGIES:
            raise ValueError(
                f"unknown strategy {strategy!r}; have {list(STRATEGIES)}"
            )
        if graph.number_of_nodes() == 0:
            raise ValueError("MISMaintainer needs a non-empty initial graph")
        self.graph = graph.copy()
        self.algorithm_name, self._algorithm = _resolve_algorithm(algorithm)
        self.strategy = strategy
        self.seed = seed
        self.ledger = ledger if ledger is not None else EnergyLedger(self.graph.nodes)
        self.ledger.ensure_nodes(self.graph.nodes)
        self.algorithm_kwargs = dict(algorithm_kwargs or {})
        self._accepts_size_bound = _accepts_kwarg(self._algorithm, "size_bound")
        self.options = options
        self._accepts_options = _accepts_kwarg(self._algorithm, "options")
        self.mis: Set[int] = set()
        self.epoch = 0
        self.total_rounds = 0
        self.initial = self._elect_all(events=0)

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def apply_epoch(self, epoch: Sequence[GraphEvent]) -> RepairReport:
        """Apply one batch of events and repair the MIS. Returns accounting."""
        self.epoch += 1
        if self.strategy == FULL_RECOMPUTE:
            self._apply_events(epoch)
            return self._elect_all(events=len(epoch))
        return self._repair_incremental(epoch)

    def run_timeline(self, epochs: Iterable[Sequence[GraphEvent]]):
        """Apply every epoch in order; yields one :class:`RepairReport` each."""
        for batch in epochs:
            yield self.apply_epoch(batch)

    # ------------------------------------------------------------------
    # strategies
    # ------------------------------------------------------------------
    def _elect_all(self, events: int) -> RepairReport:
        """Throw the current MIS away and re-elect over the whole graph."""
        old_mis = set(self.mis)
        before = self.ledger.total_energy()
        n = self.graph.number_of_nodes()
        rounds = 0
        if n:
            result = self._run_algorithm(self.graph, self.epoch)
            self.mis = set(result.mis)
            rounds = result.rounds
        else:
            self.mis = set()
        self.total_rounds += rounds
        return RepairReport(
            epoch=self.epoch,
            strategy=self.strategy,
            events=events,
            repair_region=n,
            probed=n,
            dropped=len(old_mis - self.mis),
            rounds=rounds,
            energy=self.ledger.total_energy() - before,
            mis_churn=len(old_mis ^ self.mis),
            recomputed=True,
        )

    def _repair_incremental(self, epoch: Sequence[GraphEvent]) -> RepairReport:
        old_mis = set(self.mis)
        before = self.ledger.total_energy()
        touched = self._apply_events(epoch)

        # Conflict resolution: a new edge may join two MIS members. Drop
        # every conflicted member (they re-compete in the repair run) and
        # wake their neighborhoods, which may have lost their dominator.
        conflicted = {
            node
            for node in touched & self.mis
            if any(nb in self.mis for nb in self.graph.neighbors(node))
        }
        if conflicted:
            self.mis -= conflicted
            touched |= conflicted
            for node in conflicted:
                touched.update(self.graph.neighbors(node))

        # Probe region: update sites plus their immediate neighbors — the
        # only nodes whose covered/uncovered status can have changed.
        probe = set(touched)
        for node in touched:
            probe.update(self.graph.neighbors(node))
        if probe:
            self.ledger.charge_many(probe, 1)

        uncovered = {
            node
            for node in probe
            if node not in self.mis
            and not any(nb in self.mis for nb in self.graph.neighbors(node))
        }

        rounds = 1 if epoch else 0  # the probe round
        if uncovered:
            region = self.graph.subgraph(uncovered).copy()
            result = self._run_algorithm(region, self.epoch)
            self.mis |= result.mis
            rounds += result.rounds
        self.total_rounds += rounds
        return RepairReport(
            epoch=self.epoch,
            strategy=self.strategy,
            events=len(epoch),
            repair_region=len(uncovered),
            probed=len(probe),
            dropped=len(old_mis - self.mis),
            rounds=rounds,
            energy=self.ledger.total_energy() - before,
            mis_churn=len(old_mis ^ self.mis),
            recomputed=False,
        )

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def _apply_events(self, epoch: Sequence[GraphEvent]) -> Set[int]:
        """Mutate the graph; return surviving nodes adjacent to any update."""
        touched: Set[int] = set()
        for event in epoch:
            if event.kind == NODE_REMOVE and event.u in self.graph:
                # Capture the doomed node's neighbors before they lose it.
                touched.update(self.graph.neighbors(event.u))
            apply_event(self.graph, event)
            if event.kind == NODE_ADD:
                self.ledger.ensure_nodes([event.u])
            elif event.kind == NODE_REMOVE:
                self.mis.discard(event.u)
            touched.update(event.endpoints)
        return {node for node in touched if node in self.graph}

    def _run_algorithm(self, graph: nx.Graph, epoch: int) -> MISResult:
        kwargs: Dict[str, Any] = dict(self.algorithm_kwargs)
        kwargs.setdefault("ledger", self.ledger)
        if self._accepts_options:
            kwargs.setdefault("options", self.options)
        if self._accepts_size_bound:
            # Round/energy schedules should scale with the *deployment* size,
            # not the (much smaller) repair region, as a real network would.
            kwargs.setdefault("size_bound", self.graph.number_of_nodes())
        return self._algorithm(
            graph, seed=_epoch_seed(self.seed, epoch), **kwargs
        )


def _resolve_algorithm(algorithm: Any):
    """Accept a registry name or a bare callable."""
    if callable(algorithm):
        name = getattr(algorithm, "__name__", str(algorithm))
        return name, algorithm
    from ..harness.runner import ALGORITHMS  # local import: avoids a cycle

    if algorithm not in ALGORITHMS:
        raise KeyError(
            f"unknown algorithm {algorithm!r}; have {sorted(ALGORITHMS)}"
        )
    return algorithm, ALGORITHMS[algorithm]


def _accepts_kwarg(fn: Callable, name: str) -> bool:
    try:
        parameters = inspect.signature(fn).parameters
    except (TypeError, ValueError):  # builtins / C callables
        return False
    if name in parameters:
        return True
    return any(
        p.kind is inspect.Parameter.VAR_KEYWORD for p in parameters.values()
    )
