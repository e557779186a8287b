"""Ghaffari's MIS algorithm [Gha16] with the 1-bit-message rule of [Gha19].

The paper uses this algorithm twice:

* **Phase II (Lemma 2.6):** run for ``O(log Δ)`` rounds on the residual
  ``poly(log n)``-degree graph with all nodes awake, which *shatters* the
  graph — every undecided node survives only with probability
  ``1/poly(Δ)``, so the undecided residue forms small components.
* **Phase III (Lemma 2.7):** run ``Θ(log n)`` independent executions in
  parallel on each small component; since one execution needs only 1-bit
  messages, ``Θ(log n)`` parallel executions fit in one CONGEST message.

Algorithm (per execution): every undecided node holds a desire level
``p_t(v)``, initially 1/2. Each round it marks itself with probability
``p_t(v)``; marked nodes with no marked neighbor join the MIS and retire
their neighborhood. Desire levels then update from the 1-bit signal "did I
see a marked neighbor": halve if yes, else double (capped at 1/2). This is
the small-message variant of the classic effective-degree rule
(``d_t(v) = Σ p_t(u)``) — the marked-neighbor indicator is a Bernoulli
sample of that sum.

Each algorithm iteration is two CONGEST sub-rounds (marks / joins); payloads
are bit-vectors with one bit per execution.
"""

from __future__ import annotations

from functools import partial
from typing import List, Optional, Set, Tuple

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
from ..result import MISResult

_MARK = 0

ACTIVE = 0
JOINED = 1
REMOVED = 2

_MIN_DESIRE = 2.0**-60  # numeric floor; reached only after 60 halvings


class GhaffariProgram(NodeProgram):
    """Node program running ``executions`` parallel Ghaffari-MIS instances.

    Parameters
    ----------
    iterations:
        Number of algorithm iterations (each = 2 CONGEST sub-rounds). When
        ``None`` the node runs until all its executions are decided (used
        for the standalone baseline); otherwise it halts after exactly
        ``iterations`` iterations even if undecided (used for shattering).
    executions:
        Number of independent parallel executions (Phase III uses Θ(log n)).
    """

    def __init__(self, iterations: Optional[int] = None, executions: int = 1):
        if executions < 1:
            raise ValueError(f"executions must be >= 1, got {executions}")
        if iterations is not None and iterations < 0:
            raise ValueError(f"iterations must be >= 0, got {iterations}")
        self.iterations = iterations
        self.executions = executions
        # Per-execution state; ``join_round`` uses -1 for "never joined"
        # so the whole row set fits typed columns (see state_schema).
        self.status: List[int] = [ACTIVE] * executions
        self.desire: List[float] = [0.5] * executions
        self.marked: List[bool] = [False] * executions
        self.join_round: List[int] = [-1] * executions
        self.saw_marked: List[bool] = [False] * executions

    @classmethod
    def state_schema(cls):
        return (
            StateField("status", np.int8, default=ACTIVE, width="executions"),
            StateField("desire", np.float64, default=0.5, width="executions"),
            StateField("marked", np.bool_, width="executions"),
            StateField("join_round", np.int64, default=-1,
                       width="executions"),
            StateField("saw_marked", np.bool_, width="executions"),
        )

    # ------------------------------------------------------------------
    def undecided(self) -> bool:
        return any(s == ACTIVE for s in self.status)

    def _iteration_of(self, round_index: int) -> int:
        return round_index // 2

    @classmethod
    def start_population(cls, network, ranks):
        """Every node starts outside the MIS (one output-table write); a
        zero-iteration budget halts every node at once, reporting the
        initial status, which is the template's."""
        set_outputs(network, ranks, in_mis=False)
        template = network._template
        if template.iterations == 0:
            status = tuple(int(s) for s in template.status)
            set_outputs(network, ranks, status=status)
            network._halt_many(network._labels_of(ranks))

    def on_round(self, ctx):
        if ctx.round % 2 == _MARK:
            self._do_mark(ctx)
        else:
            self._do_join(ctx)

    def _do_mark(self, ctx):
        # ``bool(...)`` casts keep payloads and state python-native whether
        # the row lives in a list (dict mode) or a typed column row view.
        for e in range(self.executions):
            if self.status[e] == ACTIVE:
                self.marked[e] = bool(ctx.rng.random() < self.desire[e])
            else:
                self.marked[e] = False
        if any(self.marked):
            ctx.broadcast(tuple(bool(m) for m in self.marked))

    def _do_join(self, ctx):
        joined_now = [False] * self.executions
        for e in range(self.executions):
            if self.status[e] != ACTIVE:
                continue
            saw_marked_neighbor = bool(self.saw_marked[e])
            # Desire update: the 1-bit effective-degree signal.
            if saw_marked_neighbor:
                self.desire[e] = max(_MIN_DESIRE, self.desire[e] / 2.0)
            else:
                self.desire[e] = min(0.5, self.desire[e] * 2.0)
            if self.marked[e] and not saw_marked_neighbor:
                self.status[e] = JOINED
                self.join_round[e] = self._iteration_of(ctx.round)
                joined_now[e] = True
        if any(joined_now):
            ctx.broadcast(tuple(joined_now))

    # ------------------------------------------------------------------
    def on_receive(self, ctx, messages):
        if ctx.round % 2 == _MARK:
            saw = [False] * self.executions
            for message in messages:
                for e, bit in enumerate(message.payload):
                    if bit:
                        saw[e] = True
            # Wholesale replacement, exactly like the old per-round set.
            self.saw_marked = saw
        else:
            for message in messages:
                for e, bit in enumerate(message.payload):
                    if bit and self.status[e] == ACTIVE:
                        self.status[e] = REMOVED
            self._maybe_finish(ctx)

    def _maybe_finish(self, ctx):
        iteration = self._iteration_of(ctx.round)
        out_of_time = (
            self.iterations is not None and iteration + 1 >= self.iterations
        )
        if out_of_time or not self.undecided():
            ctx.output["in_mis"] = bool(self.status[0] == JOINED)
            ctx.output["status"] = tuple(int(s) for s in self.status)
            ctx.halt()

    @classmethod
    def vector_round(cls, network):
        """Engine capability hook: the mark/join iteration runs
        whole-network over ``(n, executions)`` columns."""
        return _GhaffariVectorRound(network, network._template)


class _GhaffariVectorRound(VectorRound):
    """Whole-network mark/join rounds over ``(n, executions)`` columns.

    All ``executions`` parallel instances advance in one pass; each node's
    draws line up with the scalar program's because it draws once per
    ACTIVE execution in ascending execution order, which is exactly the
    order of the kernel's per-execution ``draws.take`` calls.

    Bit-identity notes mirroring the scalar receive rules:

    * a node broadcasts its mark (join) bit-vector only when *some* bit is
      set, and every payload is a tuple of ``executions`` bools — a
      constant 3·E bits on priced channels;
    * the program's ``saw_marked`` row is replaced wholesale at every MARK
      receive (even when empty), so the ``saw_marked`` columns of live rows
      are overwritten each MARK round rather than OR-ed;
    * removal at JOIN checks the receiver's status *after* its own joins
      this round, so the column updates run joins-then-removals;
    * the finish check runs for every live node each JOIN round (the scalar
      ``on_receive`` fires even with an empty inbox).
    """

    def __init__(self, network, template):
        super().__init__(network)
        self.executions = template.executions
        self.iterations = template.iterations

    def load(self) -> None:
        arrays = self.arrays
        network = self.network
        n = arrays.n
        executions = self.executions
        self.alive = self.arrays.rank_mask(network._always_on)
        columns = self.state_columns
        self.status = columns["status"].copy()
        self.desire = columns["desire"].copy()
        self.marked = columns["marked"].copy()
        self.join_round = columns["join_round"].copy()
        self.saw_marked = columns["saw_marked"].copy()
        self._payload_bits = (
            np.full(n, 3 * executions, dtype=np.int64) if self.priced else None
        )
        # Live-neighbor counts, maintained incrementally: live rows only
        # ever leave (finish at a JOIN round), so one sparse CSR pass over
        # each round's departures replaces the per-round dense recount.
        self._alive_neighbors = arrays.neighbor_count(self.alive)

    def flush_state(self) -> None:
        columns = self.state_columns
        columns["status"][:] = self.status
        columns["desire"][:] = self.desire
        columns["marked"][:] = self.marked
        columns["join_round"][:] = self.join_round
        columns["saw_marked"][:] = self.saw_marked

    # ------------------------------------------------------------------
    def step_round(self) -> None:
        alive = self.alive
        self.charge_awake(alive)
        keep = self.fault_keep() if self.faults is not None else None
        if self.network.round_index % 2 == _MARK:
            self._mark_round(alive, keep)
        else:
            self._join_round(alive, keep)

    def _mark_round(self, alive: np.ndarray, keep) -> None:
        arrays = self.arrays
        executions = self.executions
        marked = self.marked
        # The scalar program reassigns every execution's mark each MARK
        # round (inactive executions to False); halted rows keep theirs.
        marked[alive] = False
        active = alive[:, None] & (self.status == ACTIVE)
        for e in range(executions):
            idx = np.nonzero(active[:, e])[0]
            if idx.size:
                marked[idx, e] = self.draws.take(idx) < self.desire[idx, e]
        senders = alive & marked.any(axis=1)
        if keep is None:
            self.count_broadcasts(
                senders, alive, self._payload_bits,
                alive_neighbors=self._alive_neighbors,
            )
        else:
            self.count_broadcasts(
                senders, alive, self._payload_bits, keep=keep
            )
        # A mark bit for execution e arrives from any *live* neighbor with
        # that bit set (marked implies broadcast, but halted rows keep
        # stale mark bits and never send); live receivers replace their
        # indicator wholesale.  A faulted slot destroys the whole payload
        # (the scalar wrapper drops entire messages, never single bits).
        saw = self.saw_marked
        for e in range(executions):
            sent = marked[:, e] & alive
            if keep is None:
                heard = arrays.neighbor_count(sent) > 0
            else:
                heard = arrays.masked_neighbor_count(sent, keep) > 0
            saw[alive, e] = heard[alive]

    def _join_round(self, alive: np.ndarray, keep) -> None:
        arrays = self.arrays
        executions = self.executions
        active = alive[:, None] & (self.status == ACTIVE)
        saw = self.saw_marked
        halve = active & saw
        double = active & ~saw
        self.desire[halve] = np.maximum(
            _MIN_DESIRE, self.desire[halve] / 2.0
        )
        self.desire[double] = np.minimum(0.5, self.desire[double] * 2.0)
        joined_now = active & self.marked & ~saw
        iteration = self.network.round_index // 2
        self.status[joined_now] = JOINED
        self.join_round[joined_now] = iteration
        senders = alive & joined_now.any(axis=1)
        if keep is None:
            self.count_broadcasts(
                senders, alive, self._payload_bits,
                alive_neighbors=self._alive_neighbors,
            )
        else:
            self.count_broadcasts(
                senders, alive, self._payload_bits, keep=keep
            )
        for e in range(executions):
            if keep is None:
                heard = arrays.neighbor_count(joined_now[:, e]) > 0
            else:
                heard = (
                    arrays.masked_neighbor_count(joined_now[:, e], keep) > 0
                )
            removed = alive & heard & (self.status[:, e] == ACTIVE)
            self.status[removed, e] = REMOVED
        out_of_time = (
            self.iterations is not None and iteration + 1 >= self.iterations
        )
        if out_of_time:
            finish = alive.copy()
        else:
            finish = alive & ~(self.status == ACTIVE).any(axis=1)
        finish_idx = np.nonzero(finish)[0]
        if finish_idx.size:
            finished = self.status[finish_idx]
            set_outputs(
                self.network, finish_idx, in_mis=finished[:, 0] == JOINED,
                status=list(map(tuple, finished.tolist())),
            )
            alive[finish_idx] = False
            self._alive_neighbors = (
                self._alive_neighbors - arrays.neighbor_count(finish)
            )
            self.halt_ranks(finish_idx)


def ghaffari_mis(
    graph: nx.Graph,
    seed: int = 0,
    *,
    max_rounds: int = 200_000,
    ledger: Optional[EnergyLedger] = None,
    size_bound: Optional[int] = None,
    options: RunOptions = DEFAULT_OPTIONS,
) -> MISResult:
    """Run Ghaffari's algorithm to completion (single execution) as a
    baseline, under ``options`` (engine, channel, node faults,
    instrument)."""
    network = Network(
        graph, GhaffariProgram, seed=seed, ledger=ledger, size_bound=size_bound,
        channel=options.channel, instrument=options.instrument,
        faults=options.faults,
    )
    metrics = network.run(max_rounds=max_rounds, engine=options.engine)
    mis = {node for node, flag in network.outputs("in_mis").items() if flag}
    return MISResult(mis=mis, metrics=metrics, algorithm="ghaffari2016")


def ghaffari_shatter(
    graph: nx.Graph,
    iterations: int,
    seed: int = 0,
    *,
    ledger: Optional[EnergyLedger] = None,
    size_bound: Optional[int] = None,
    options: RunOptions = DEFAULT_OPTIONS,
) -> Tuple[Set[int], Set[int], "Network"]:
    """Run a fixed number of iterations with all nodes awake (Phase II core).

    Returns ``(joined, undecided, network)``: the nodes that joined the MIS,
    the nodes still undecided after the budget (the "shattered" residue),
    and the network (for metrics inspection).
    """
    network = Network(
        graph, partial(GhaffariProgram, iterations=iterations), seed=seed,
        ledger=ledger, size_bound=size_bound, channel=options.channel,
        instrument=options.instrument, faults=options.faults,
    )
    network.run(max_rounds=10 * iterations + 16, engine=options.engine)
    status = network.state_columns["status"][:, 0]
    joined = set(network._labels_of(np.flatnonzero(status == JOINED)))
    undecided = set(network._labels_of(np.flatnonzero(status == ACTIVE)))
    return joined, undecided, network
