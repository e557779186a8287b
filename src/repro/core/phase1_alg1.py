"""Phase I of Algorithm 1: low-energy regularized Luby (Lemma 2.1).

Goal: compute an independent set whose removal (with its neighborhood)
leaves a residual graph of maximum degree ``O(log² n)``, in
``O(log Δ · log n)`` rounds with each node awake ``O(log log n)`` rounds.

Structure (Section 2.1 of the paper):

* **Regularized Luby** — iteration ``i`` marks nodes with probability
  ``2^i / (10 Δ)`` for ``c·log n`` rounds; marked nodes with no marked
  neighbor join the MIS. Degrees halve per iteration w.h.p.
* **One-shot marking** — a node is marked at most once ever (afterwards it
  is *spoiled*), so all marking rounds can be sampled before the algorithm
  starts. Invariants A(i)/B(i) bound the spoiled and non-spoiled residual
  neighbors, giving the ``O(log² n)`` residual degree after
  ``log Δ − 2 log log n`` iterations.
* **Awake schedules** — a sampled node wakes only at the ``O(log log n)``
  rounds of its Lemma 2.5 overlap schedule; never-sampled nodes sleep
  through the whole phase.

Engine mapping: each algorithm round is three CONGEST sub-rounds:

* sub-round 0 (*status*): earlier joiners announce; listeners learn they
  are dominated;
* sub-round 1 (*mark*): this round's sampled nodes announce their marks to
  each other;
* sub-round 2 (*join*): unopposed marked nodes join and announce.

Announcing in both sub-rounds 0 and 2 is what closes the two corner cases
of the overlap schedule (the only common round being ``r_u`` itself, or
being ``r_v`` itself); with the paper's single third sub-round, a node
acting at ``r_v`` could otherwise decide before its only common round with
an earlier-acting neighbor delivered the neighbor's outcome.
"""

from __future__ import annotations

from functools import partial
from typing import Optional

import networkx as nx
import numpy as np

from ..congest import (
    DEFAULT_OPTIONS,
    EnergyLedger,
    NodeProgram,
    RunOptions,
    StateField,
)
from ..congest.program import set_outputs
from ..congest.vectorized import GraphArrays, VectorRound, graph_csr
from ..graphs.properties import max_degree
from ..schedule import schedule_for_round
from .config import DEFAULT_CONFIG, AlgorithmConfig
from .phase_result import PhaseResult, flagged, run_network_phase

_STATUS = 0
_MARK = 1
_JOIN = 2


def sample_marked_rounds(
    streams,
    ranks: np.ndarray,
    iterations: int,
    rounds_per_iteration: int,
    delta: int,
    mark_divisor: float,
) -> np.ndarray:
    """Each node's one-shot marking round, or -1 if it is never marked.

    One geometric draw per iteration instead of a coin per round: a node
    is marked in iteration ``i`` (probability ``2^i / (divisor·Δ)`` per
    round) iff a Geometric(p_i) variable lands within the iteration's
    round budget. Only nodes not yet marked draw, one
    :meth:`~repro.congest.streams.NodeStreams.geometric` call per
    iteration for all of them. The result counts rounds from the phase
    start, so ``divmod(result, rounds_per_iteration)`` is (iteration,
    round).
    """
    marked = np.full(ranks.size, -1, dtype=np.int64)
    pending = np.arange(ranks.size)
    for iteration in range(iterations):
        if not pending.size:
            break
        probability = min(1.0, (2.0**iteration) / (mark_divisor * delta))
        if probability <= 0.0:
            continue
        gaps = streams.geometric(ranks[pending], probability)
        hit = gaps <= rounds_per_iteration
        marked[pending[hit]] = (
            iteration * rounds_per_iteration + gaps[hit].astype(np.int64) - 1
        )
        pending = pending[~hit]
    return marked


class Phase1Alg1Program(NodeProgram):
    """Node program for the regularized-Luby phase."""

    def __init__(
        self,
        iterations: int,
        rounds_per_iteration: int,
        delta: int,
        mark_divisor: float,
    ):
        self.iterations = iterations
        self.rounds_per_iteration = rounds_per_iteration
        self.total_rounds = iterations * rounds_per_iteration
        self.delta = max(1, delta)
        self.mark_divisor = mark_divisor
        self.marked_round = -1
        self.joined = False
        self.dominated = False
        self.saw_marked_neighbor = False

    @classmethod
    def state_schema(cls):
        return (
            StateField("marked_round", np.int64, default=-1),
            StateField("joined", np.bool_),
            StateField("dominated", np.bool_),
            StateField("saw_marked_neighbor", np.bool_),
        )

    def wake_rounds(self, marked_round: int):
        """Engine rounds a node marked at ``marked_round`` wakes at: the
        status and join sub-rounds of its Lemma 2.5 schedule, plus its own
        mark sub-round (none for an unmarked node, ``-1``)."""
        if marked_round < 0:
            return []
        wake_rounds = []
        for algo_round in schedule_for_round(self.total_rounds, marked_round):
            wake_rounds.append(3 * algo_round + _STATUS)
            if algo_round == marked_round:
                wake_rounds.append(3 * algo_round + _MARK)
            wake_rounds.append(3 * algo_round + _JOIN)
        return sorted(set(wake_rounds))

    @classmethod
    def start_population(cls, network, ranks):
        """Sample every node's marking round (one draw per iteration for
        the still-unmarked nodes) and lay down the sampled nodes' Lemma
        2.5 schedules; never-sampled nodes sleep through the entire
        phase."""
        template = network._template
        marked = sample_marked_rounds(
            network.streams, ranks, template.iterations,
            template.rounds_per_iteration, template.delta,
            template.mark_divisor,
        )
        network.state_columns["marked_round"][ranks] = marked
        set_outputs(
            network, ranks, joined=np.zeros(ranks.size, dtype=bool),
            sampled=marked >= 0,
        )
        network._schedule_population(ranks, marked, template.wake_rounds)

    # ------------------------------------------------------------------
    def on_round(self, ctx):
        algo_round, sub = divmod(ctx.round, 3)
        if sub == _STATUS:
            if self.joined and self.marked_round < algo_round:
                ctx.broadcast(True)
        elif sub == _MARK:
            if algo_round == self.marked_round and not self.dominated:
                ctx.broadcast(True)
        else:  # _JOIN
            if (
                algo_round == self.marked_round
                and not self.dominated
                and not self.saw_marked_neighbor
            ):
                self.joined = True
                ctx.output["joined"] = True
                ctx.broadcast(True)

    def on_receive(self, ctx, messages):
        algo_round, sub = divmod(ctx.round, 3)
        if sub == _MARK:
            if algo_round == self.marked_round:
                self.saw_marked_neighbor = bool(messages)
            return
        # _STATUS and _JOIN sub-rounds carry join announcements.
        if messages and not self.joined:
            self.dominated = True
            ctx.halt()

    @classmethod
    def vector_round(cls, network):
        """Engine capability hook: the sub-round structure vectorizes
        whole-network (the kernel reads only each node's pre-sampled
        ``marked_round``)."""
        return _Phase1Alg1VectorRound(network)


class _Phase1Alg1VectorRound(VectorRound):
    """Whole-network regularized-Luby sub-rounds over flat numpy columns.

    Unlike the always-on baselines, this phase is *schedule-driven*: the
    active set of every round comes from the wake calendar the programs
    laid down at start (Lemma 2.5 overlap schedules), so the kernel
    assembles a boolean awake mask per round via
    :meth:`VectorRound.pop_scheduled_awake` and masks every reduction with
    it.  All randomness was consumed at start (the one-shot
    ``marked_round`` sample), so the dense rounds draw nothing.

    Bit-identity hinges on mirroring the scalar receive rules exactly:

    * STATUS/JOIN listeners that hear any join announcement become
      dominated and halt *unless they are joined themselves* — and a node
      that joined this very JOIN sub-round already counts as joined;
    * MARK listeners acting this algorithm round *assign*
      ``saw_marked_neighbor = bool(messages)`` (a node marked in a later
      round than a halted neighbor can overwrite True with False — the
      scalar program does too, and the column must follow).
    """

    def load(self) -> None:
        columns = self.state_columns
        self.marked_round = columns["marked_round"].copy()
        self.joined = columns["joined"].copy()
        self.dominated = columns["dominated"].copy()
        self.saw_marked = columns["saw_marked_neighbor"].copy()

    def flush_state(self) -> None:
        columns = self.state_columns
        columns["joined"][:] = self.joined
        columns["dominated"][:] = self.dominated
        columns["saw_marked_neighbor"][:] = self.saw_marked

    # ------------------------------------------------------------------
    def step_round(self) -> None:
        awake = self.pop_scheduled_awake()
        self.charge_awake(awake)
        keep = self.fault_keep() if self.faults is not None else None
        algo_round, sub = divmod(self.network.round_index, 3)
        if sub == _STATUS:
            senders = awake & self.joined & (self.marked_round < algo_round)
            self._join_wave(senders, awake, keep)
        elif sub == _MARK:
            acting = awake & (self.marked_round == algo_round)
            senders = acting & ~self.dominated
            heard_counts = self.broadcast_wave(senders, awake, keep)
            self.saw_marked[acting] = heard_counts[acting] > 0
        else:  # _JOIN
            joiners = (
                awake
                & (self.marked_round == algo_round)
                & ~self.dominated
                & ~self.saw_marked
            )
            self.joined |= joiners
            set_outputs(self.network, np.flatnonzero(joiners), joined=True)
            self._join_wave(joiners, awake, keep)

    def _join_wave(
        self,
        senders: np.ndarray,
        awake: np.ndarray,
        keep: Optional[np.ndarray],
    ) -> None:
        """Deliver join announcements: awake non-joined listeners that hear
        one become dominated and halt (freshly-joined nodes are immune)."""
        heard_counts = self.broadcast_wave(senders, awake, keep)
        victims = np.nonzero(
            awake & ~self.joined & (heard_counts > 0)
        )[0]
        if victims.size:
            self.dominated[victims] = True
            self.halt_ranks(victims)


def run_phase1_alg1(
    graph: nx.Graph | GraphArrays,
    *,
    seed: int = 0,
    config: AlgorithmConfig = DEFAULT_CONFIG,
    ledger: Optional[EnergyLedger] = None,
    size_bound: Optional[int] = None,
    options: RunOptions = DEFAULT_OPTIONS,
) -> PhaseResult:
    """Run Lemma 2.1's phase on ``graph``; see :class:`PhaseResult`.

    The metrics include one trailing round in which every node is awake to
    exchange joined-status — the hand-off the paper performs at the start
    of the (all-awake) Phase II.
    """
    n = size_bound if size_bound is not None else graph.number_of_nodes()
    delta = max_degree(graph)
    iterations = config.phase1_iterations(n, delta)
    rounds_per_iteration = config.phase1_rounds_per_iteration(n)
    total_rounds = iterations * rounds_per_iteration

    if total_rounds == 0 or graph.number_of_nodes() == 0:
        return PhaseResult.idle(
            graph.nodes,
            {
                "iterations": 0,
                "rounds_per_iteration": 0,
                "delta": delta,
                "sampled_nodes": 0,
                "residual_max_degree": delta,
            },
            residual=graph_csr(graph),
        )

    programs = partial(
        Phase1Alg1Program, iterations, rounds_per_iteration, delta,
        config.phase1_mark_divisor,
    )
    result, network = run_network_phase(
        graph, programs, 3 * total_rounds, seed=seed, ledger=ledger,
        size_bound=n, handoff_round=True, options=options,
    )
    result.details = {
        "iterations": iterations,
        "rounds_per_iteration": rounds_per_iteration,
        "delta": delta,
        "sampled_nodes": len(flagged(network, "sampled")),
        "residual_max_degree": max_degree(result.residual),
    }
    return result
