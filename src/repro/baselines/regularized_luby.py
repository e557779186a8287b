"""Regularized Luby — the paper's Phase-I starting point, unmodified.

Section 2.1 derives Phase I from a "slowed-down variant of Luby's
algorithm, sometimes also called regularized Luby": in iteration ``i``
every remaining node marks itself with probability ``2^i / (10 Δ)`` in each
of ``c·log n`` rounds; marked nodes with no marked neighbor join the MIS
and retire their neighborhoods. After ``log Δ`` iterations the marking
probability has risen to the constant ``1/10``, at which point the sparse
remnants (isolated nodes included) decide within a few more rounds.

Unlike Phase I, this base version *re-marks* nodes every round, so marking
rounds cannot be precomputed and every undecided node must stay awake: its
energy equals its decision time, ``O(log Δ · log n)`` worst case — strictly
worse than plain Luby. That is exactly the gap the paper's one-shot
modification closes, which makes this the right middle rung for ablation
A1 (Luby → regularized Luby → Phase I).

Engine mapping: two sub-rounds per round (mark / join).
"""

from __future__ import annotations

import math
from functools import partial
from typing import Optional

import networkx as nx
import numpy as np

from ..congest import (
    DEFAULT_OPTIONS,
    EnergyLedger,
    Network,
    NodeProgram,
    RunOptions,
    StateField,
)
from ..congest.program import set_outputs
from ..congest.vectorized import VectorRound
from ..graphs.properties import max_degree
from ..result import MISResult

_MARK = 0
_JOIN = 1

class RegularizedLubyProgram(NodeProgram):
    """Node program for the unmodified regularized Luby algorithm."""

    def __init__(self, iterations: int, rounds_per_iteration: int, delta: int,
                 mark_divisor: float = 10.0):
        self.iterations = max(1, iterations)
        self.rounds_per_iteration = max(1, rounds_per_iteration)
        self.delta = max(1, delta)
        self.mark_divisor = mark_divisor
        self.joined = False
        self.marked = False
        self.saw_marked_neighbor = False

    @classmethod
    def state_schema(cls):
        return (
            StateField("joined", np.bool_),
            StateField("marked", np.bool_),
            StateField("saw_marked_neighbor", np.bool_),
        )

    @classmethod
    def start_population(cls, network, ranks):
        """Every node starts outside the MIS: one output-table write."""
        set_outputs(network, ranks, in_mis=False)

    def _probability(self, algo_round: int) -> float:
        # The iteration index clamps at the top: after the scheduled
        # cascade the constant-probability regime persists until everyone
        # has decided (the paper's "finally, isolated nodes join").
        iteration = min(
            self.iterations - 1, algo_round // self.rounds_per_iteration
        )
        return min(1.0, (2.0**iteration) / (self.mark_divisor * self.delta))

    def on_round(self, ctx):
        algo_round, sub = divmod(ctx.round, 2)
        if sub == _MARK:
            # Fresh coin every round: this is the re-marking that the
            # paper's one-shot modification removes.
            self.marked = bool(
                ctx.rng.random() < self._probability(algo_round)
            )
            if self.marked:
                ctx.broadcast(True)
        else:
            if self.marked and not self.saw_marked_neighbor:
                self.joined = True
                ctx.output["in_mis"] = True
                ctx.broadcast(True)

    def on_receive(self, ctx, messages):
        _, sub = divmod(ctx.round, 2)
        if sub == _MARK:
            self.saw_marked_neighbor = bool(messages)
        else:
            if self.joined:
                ctx.halt()
            elif messages:  # a neighbor joined: dominated
                ctx.halt()

    @classmethod
    def vector_round(cls, network):
        """Engine capability hook: whole-network mark/join sub-rounds."""
        return _RegularizedLubyVectorRound(network, network._template)


class _RegularizedLubyVectorRound(VectorRound):
    """Vectorized regularized-Luby rounds.

    The marking probability is a *global* function of the algorithm round
    (no per-node degree), so one scalar probability gates a whole draw
    column; every live node draws once each MARK sub-round, exactly like
    the scalar loop; the schedule parameters come from the network's
    template program.

    Channel faults are simpler here than in classic Luby: the marking
    probability carries no degree belief, so a fault only filters which
    mark/join announcements are *heard* — ``saw_marked`` and domination
    are computed through the round's keep mask, and accounting moves the
    destroyed copies to the dropped counter.  The clean path is untouched.
    """

    def __init__(self, network, template):
        super().__init__(network)
        self._template = template

    def load(self) -> None:
        arrays = self.arrays
        network = self.network
        self.alive = self.arrays.rank_mask(network._always_on)
        columns = self.state_columns
        self.marked = columns["marked"].copy()
        self.saw_marked = columns["saw_marked_neighbor"].copy()
        self.joined = columns["joined"].copy()
        # Valid at any engagement boundary: nobody halts between a MARK
        # and its JOIN, so live-neighbor counts are cycle-stable.  From
        # here the count is maintained *incrementally* — JOIN subtracts
        # each halting node's contribution — so no round re-scans the
        # dense alive mask.
        self._alive_neighbors = arrays.neighbor_count(self.alive)

    def flush_state(self) -> None:
        columns = self.state_columns
        columns["marked"][:] = self.marked
        columns["saw_marked_neighbor"][:] = self.saw_marked
        columns["joined"][:] = self.joined

    def step_round(self) -> None:
        algo_round, sub = divmod(self.network.round_index, 2)
        self.charge_awake(self.alive)
        if sub == _MARK:
            self._mark(algo_round)
        else:
            self._join()

    def _mark(self, algo_round: int) -> None:
        arrays = self.arrays
        alive = self.alive
        probability = self._template._probability(algo_round)
        marked = np.zeros(arrays.n, dtype=bool)
        drawers = np.nonzero(alive)[0]
        if drawers.size:
            marked[drawers] = self.draws.take(drawers) < probability
        self.marked = marked
        # Nobody halts between a MARK and its JOIN (deaths happen in the
        # JOIN receive phase), so the incrementally-maintained
        # ``_alive_neighbors`` prices both sub-rounds' deliveries.
        keep = self.fault_keep() if self.faults is not None else None
        if keep is not None:
            self.count_broadcasts(marked, alive, self.one_bit, keep=keep)
            heard_marks = arrays.masked_neighbor_count(marked, keep)
        else:
            self.count_broadcasts(
                marked, alive, self.one_bit,
                alive_neighbors=self._alive_neighbors,
            )
            heard_marks = arrays.neighbor_count(marked)
        self.saw_marked = np.zeros(arrays.n, dtype=bool)
        self.saw_marked[alive] = (heard_marks > 0)[alive]

    def _join(self) -> None:
        arrays = self.arrays
        alive = self.alive
        winners = alive & self.marked & ~self.saw_marked
        self.joined |= winners
        set_outputs(self.network, np.flatnonzero(winners), in_mis=True)
        keep = self.fault_keep() if self.faults is not None else None
        if keep is not None:
            self.count_broadcasts(winners, alive, self.one_bit, keep=keep)
            heard_joins = arrays.masked_neighbor_count(winners, keep)
        else:
            self.count_broadcasts(
                winners, alive, self.one_bit,
                alive_neighbors=self._alive_neighbors,
            )
            heard_joins = arrays.neighbor_count(winners)
        dominated = alive & ~winners & (heard_joins > 0)
        departing = winners | dominated
        # Retire the departing nodes' contributions so the maintained
        # live-neighbor count stays exact for the next cycle.
        self._alive_neighbors = (
            self._alive_neighbors - arrays.neighbor_count(departing)
        )
        halting = np.nonzero(departing)[0]
        alive[halting] = False
        self.halt_ranks(halting)


def regularized_luby_mis(
    graph: nx.Graph,
    seed: int = 0,
    *,
    round_factor: float = 1.0,
    max_rounds: int = 500_000,
    ledger: Optional[EnergyLedger] = None,
    size_bound: Optional[int] = None,
    options: RunOptions = DEFAULT_OPTIONS,
) -> MISResult:
    """Run the unmodified regularized Luby algorithm to completion under
    ``options`` (engine, channel, node faults, instrument)."""
    n = size_bound if size_bound is not None else graph.number_of_nodes()
    delta = max_degree(graph)
    iterations = max(1, math.ceil(math.log2(max(2, delta))))
    rounds_per_iteration = max(1, round(round_factor * math.log2(max(2, n))))
    network = Network(
        graph,
        partial(RegularizedLubyProgram, iterations, rounds_per_iteration,
                delta),
        seed=seed, ledger=ledger, size_bound=n,
        channel=options.channel, instrument=options.instrument,
        faults=options.faults,
    )
    network.run(max_rounds=max_rounds, engine=options.engine)
    mis = {node for node, flag in network.outputs("in_mis").items() if flag}
    return MISResult(
        mis=mis,
        metrics=network.metrics(),
        algorithm="regularized_luby",
        details={
            "iterations": iterations,
            "rounds_per_iteration": rounds_per_iteration,
        },
    )
