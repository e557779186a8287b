"""Phase I of Algorithm 2: degree reduction Δ → Δ^0.7 (Lemma 3.1, Cor 3.2).

One iteration, on a graph of maximum degree Δ (paper: ``Δ = Ω(log²⁰ n)``):

* **Two one-shot samplings**, both fixed before the iteration starts, so
  each node acts in at most one round ``r_v`` and awake schedules apply:

  - type (A) *tagging* at rate ``Δ^-0.5`` per round — tagged nodes announce
    themselves so this round's pre-marked neighbors can estimate degrees;
  - type (B) *pre-marking* at rate ``1/(2·Δ^0.6)`` per round.

* **Degree estimation** — a node pre-marked in round ``i`` counts tagged
  neighbors ``A_v`` and estimates ``d̃eg(v) = Δ^0.5 · A_v``; it then
  re-samples itself with probability ``min(1, 2Δ^0.6 / (5·d̃eg))``,
  emulating a ``min(1/(2Δ^0.6), 1/(5·d̃eg))`` marking rate.

* **Conflict rule** — adjacent marked nodes: the lower estimated degree
  unmarks (ties unmark both); surviving marked nodes join the MIS.

* **Final sweep** — after the sampling rounds, every active node counts its
  active non-spoiled neighbors exactly; nodes above ``4·Δ^0.6`` with no
  above-threshold neighbor join. With high probability no two
  above-threshold nodes are adjacent (Corollary 3.9), so the residual
  degree falls to ``≤ 8·Δ^0.6 ≪ Δ^0.7``.

Engine mapping: four sub-rounds per round (status / tags / marks / joins),
then a four-round all-active end block (status / counts / high flags /
final joins). A sampled node is awake at its Lemma 2.5 schedule rounds plus
the end block; an unsampled node only at the end block.

Scaled constant: the paper runs ``c·log n`` sampling rounds, affordable
because ``Δ ≥ log²⁰ n`` keeps the spoiling rate ``R·Δ^-0.5`` negligible.
Below that astronomic floor the same ``R`` would spoil everything, so we
cap ``R ≤ 4·Δ^0.1`` — the cap is inactive in the paper's regime (there
``4Δ^0.1 ≥ 4 log² n ≥ log n``) and binding only at simulation scales.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Optional, Set

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
from ..congest.vectorized import (
    GraphArrays,
    VectorRound,
    graph_csr,
    int_bit_length,
)
from ..graphs.properties import max_degree
from ..schedule import schedule_for_round
from .config import DEFAULT_CONFIG, AlgorithmConfig
from .phase3 import _derive_seed
from .phase_result import (
    PhaseResult,
    flagged,
    phase_metrics,
    run_network_phase,
)

_STATUS = 0
_TAG = 1
_MARK = 2
_JOIN = 3


def sampling_rounds(n: int, delta: int, config: AlgorithmConfig) -> int:
    """Per-iteration sampling rounds R (the paper's c·log n, capped)."""
    base = config.alg2_rounds(n)
    cap = max(4, math.ceil(4.0 * delta**0.1))
    return min(base, cap)


class Phase1Alg2Program(NodeProgram):
    """Node program for one Lemma 3.1 iteration with parameter ``delta``."""

    def __init__(self, delta: int, rounds: int, config: AlgorithmConfig):
        self.delta = max(2, delta)
        self.rounds = rounds
        self.config = config
        self.tag_probability = min(
            1.0, self.delta ** (-config.alg2_tag_exponent)
        )
        self.premark_probability = min(
            1.0, 1.0 / (2.0 * self.delta**config.alg2_mark_exponent)
        )
        self.high_threshold = (
            config.alg2_high_degree_factor
            * self.delta**config.alg2_mark_exponent
        )
        # Sampling outcomes (filled in at start); -1 = "never".
        self.tag_round = -1
        self.premark_round = -1
        self.action_round = -1
        # Execution state.
        self.joined = False
        self.join_round = -1
        self.dominated = False
        self.tagged_neighbors = 0
        self.marked = False
        self.estimate = 0.0
        self.competitors: list = []
        self.active_nonspoiled = 0
        self.high = False
        self.saw_high_neighbor = False

    @classmethod
    def state_schema(cls):
        # ``competitors`` (the per-duel inbox list) stays instance-local;
        # everything scalar is a typed column with -1 round sentinels.
        return (
            StateField("tag_round", np.int64, default=-1),
            StateField("premark_round", np.int64, default=-1),
            StateField("action_round", np.int64, default=-1),
            StateField("joined", np.bool_),
            StateField("join_round", np.int64, default=-1),
            StateField("dominated", np.bool_),
            StateField("tagged_neighbors", np.int64),
            StateField("marked", np.bool_),
            StateField("estimate", np.float64),
            StateField("active_nonspoiled", np.int64),
            StateField("high", np.bool_),
            StateField("saw_high_neighbor", np.bool_),
        )

    # ------------------------------------------------------------------
    @property
    def spoiled(self) -> bool:
        return self.action_round >= 0

    def _first_heads(self, streams, ranks, probability: float):
        """Per node, the first round (``< rounds``) of a one-shot
        sampling at ``probability`` per round, or -1."""
        if probability <= 0.0:
            return np.full(ranks.size, -1, dtype=np.int64)
        gaps = streams.geometric(ranks, min(1.0, probability))
        return np.where(
            gaps <= self.rounds, gaps - 1, -1.0
        ).astype(np.int64)

    def wake_rounds(self, action_round: int):
        """Engine rounds a node acting at ``action_round`` (``-1``: never
        sampled) wakes at: the status and join sub-rounds of its Lemma 2.5
        schedule, its own tag and mark sub-rounds, and the end block."""
        wake = set()
        if action_round >= 0:
            for entry in schedule_for_round(self.rounds, action_round):
                wake.add(4 * entry + _STATUS)
                wake.add(4 * entry + _JOIN)
            wake.add(4 * action_round + _TAG)
            wake.add(4 * action_round + _MARK)
        # End block: every node, sampled or not.
        end = 4 * self.rounds
        wake.update((end, end + 1, end + 2, end + 3))
        return sorted(wake)

    @classmethod
    def start_population(cls, network, ranks):
        """Draw every node's tag sample, then its pre-mark sample; the
        earlier of the two is its one action round (the later one never
        happens: the node is spoiled by then). Lays down the population's
        wakes in one pass."""
        template = network._template
        streams = network.streams
        tag = template._first_heads(streams, ranks, template.tag_probability)
        premark = template._first_heads(
            streams, ranks, template.premark_probability
        )
        tag_first = (tag >= 0) & ((premark < 0) | (tag <= premark))
        action = np.where(tag_first, tag, premark)
        columns = network.state_columns
        columns["tag_round"][ranks] = np.where(tag == action, tag, -1)
        columns["premark_round"][ranks] = np.where(
            premark == action, premark, -1
        )
        columns["action_round"][ranks] = action
        set_outputs(network, ranks, joined=np.zeros(ranks.size, dtype=bool),
                    sampled=action >= 0)
        network._schedule_population(ranks, action, template.wake_rounds)

    # ------------------------------------------------------------------
    def on_round(self, ctx):
        if ctx.round >= 4 * self.rounds:
            self._end_block_round(ctx)
            return
        algo_round, sub = divmod(ctx.round, 4)
        if sub == _STATUS:
            if self.joined and self.join_round < algo_round:
                ctx.broadcast(True)
        elif sub == _TAG:
            if algo_round == self.tag_round and not self.dominated:
                ctx.broadcast(True)
        elif sub == _MARK:
            if algo_round == self.premark_round and not self.dominated:
                self._decide_marking(ctx)
        else:  # _JOIN
            if (
                algo_round == self.premark_round
                and self.marked
                and not self.dominated
            ):
                mine = self.tagged_neighbors
                if all(theirs < mine for theirs in self.competitors):
                    self.joined = True
                    self.join_round = algo_round
                    ctx.output["joined"] = True
                    ctx.broadcast(True)

    def _decide_marking(self, ctx):
        self.estimate = (
            self.delta**self.config.alg2_tag_exponent * self.tagged_neighbors
        )
        if self.estimate <= 0:
            probability = 1.0
        else:
            probability = min(
                1.0,
                (2.0 * self.delta**self.config.alg2_mark_exponent)
                / (5.0 * self.estimate),
            )
        self.marked = bool(ctx.rng.random() < probability)
        if self.marked:
            # The count A_v suffices for neighbors to reconstruct the
            # estimate; it is an integer <= n, hence O(log n) bits.
            ctx.broadcast(self.tagged_neighbors)

    def on_receive(self, ctx, messages):
        if ctx.round >= 4 * self.rounds:
            self._end_block_receive(ctx, messages)
            return
        algo_round, sub = divmod(ctx.round, 4)
        if sub == _TAG:
            if algo_round == self.premark_round:
                self.tagged_neighbors = len(messages)
        elif sub == _MARK:
            if algo_round == self.premark_round and self.marked:
                self.competitors = [m.payload for m in messages]
        else:  # _STATUS or _JOIN carry join announcements
            if messages and not self.joined:
                self.dominated = True

    # ------------------------------------------------------------------
    # End block: status / exact counts / high flags / final joins.
    # ------------------------------------------------------------------
    def _end_block_round(self, ctx):
        step = ctx.round - 4 * self.rounds
        if step == 0:
            if self.joined:
                ctx.broadcast(True)
        elif step == 1:
            if not self.joined and not self.dominated:
                ctx.broadcast(bool(self.spoiled))
        elif step == 2:
            if not self.joined and not self.dominated:
                self.high = self.active_nonspoiled > self.high_threshold
                if self.high:
                    ctx.broadcast(True)
        else:  # step == 3
            if (
                not self.joined
                and not self.dominated
                and self.high
                and not self.saw_high_neighbor
            ):
                self.joined = True
                ctx.output["joined"] = True
                ctx.broadcast(True)

    def _end_block_receive(self, ctx, messages):
        step = ctx.round - 4 * self.rounds
        if step == 0:
            if messages and not self.joined:
                self.dominated = True
                ctx.halt()  # skips the rest of the end block
        elif step == 1:
            self.active_nonspoiled = sum(
                1 for m in messages if m.payload is False
            )
        elif step == 2:
            self.saw_high_neighbor = bool(messages)
        else:
            if messages and not self.joined:
                self.dominated = True
            ctx.output["joined"] = self.joined
            ctx.halt()

    @classmethod
    def vector_round(cls, network):
        """Engine capability hook: whole-network Lemma 3.1 sub-rounds."""
        return _Phase1Alg2VectorRound(network, network._template)


class _Phase1Alg2VectorRound(VectorRound):
    """Whole-network Lemma 3.1 sub-rounds over flat numpy columns.

    Schedule-driven like the Algorithm 1 phase (the active set of every
    round is a calendar mask via :meth:`VectorRound.pop_scheduled_awake`),
    with two extra twists the kernel must mirror exactly:

    * the only in-round randomness is the re-marking coin of a pre-marked
      node at its action round — the probability pipeline
      ``estimate = Δ^0.5 · A_v``, ``p = min(1, 2Δ^0.6 / (5·estimate))``
      runs in float64 either way, so the comparison against the node's
      next uniform draw is bit-identical;
    * domination does **not** halt during the sampling rounds (a dominated
      node keeps its remaining wake appointments and simply stops acting);
      halting happens only in the end block (step 0 listeners and the
      final step-3 teardown), which the kernel drives through the
      network's halted set so the calendar stays consistent.

    The duel at the JOIN sub-round compares the receiver's tagged-neighbor
    count against the max over the mark announcements it *heard* — kept as
    a ``rival_max`` column (−1 = silence), rebuilt into the scalar
    ``competitors`` list only when a flush lands between a MARK and its
    JOIN (the one boundary where the scalar path would read it).
    """

    def __init__(self, network, template):
        super().__init__(network)
        config = template.config
        self.rounds = template.rounds
        self.tag_factor = template.delta**config.alg2_tag_exponent
        self.mark_numerator = 2.0 * template.delta**config.alg2_mark_exponent
        self.high_threshold = template.high_threshold

    def load(self) -> None:
        arrays = self.arrays
        network = self.network
        n = arrays.n
        self.rival_max = np.full(n, -1, dtype=np.int64)
        columns = self.state_columns
        self.tag_round = columns["tag_round"].copy()
        self.premark_round = columns["premark_round"].copy()
        self.joined = columns["joined"].copy()
        self.join_round = columns["join_round"].copy()
        self.dominated = columns["dominated"].copy()
        self.tagged = columns["tagged_neighbors"].copy()
        self.marked = columns["marked"].copy()
        self.estimate = columns["estimate"].copy()
        self.active_nonspoiled = columns["active_nonspoiled"].copy()
        self.high = columns["high"].copy()
        self.saw_high = columns["saw_high_neighbor"].copy()
        # Only a built program can have heard competitors (a fresh one
        # holds an empty list).
        for node, program in network.programs.built().items():
            if program.competitors:
                self.rival_max[network._rank_of(node)] = max(
                    program.competitors
                )

    def flush_state(self) -> None:
        arrays = self.arrays
        network = self.network
        next_round = network.round_index + 1
        # ``competitors`` is read by the scalar path only at the JOIN
        # sub-round of the algorithm round whose MARK already ran.
        rebuild_a = (
            next_round // 4
            if next_round < 4 * self.rounds and next_round % 4 == _JOIN
            else None
        )
        indptr, indices = arrays.indptr, arrays.indices
        columns = self.state_columns
        columns["tag_round"][:] = self.tag_round
        columns["premark_round"][:] = self.premark_round
        columns["joined"][:] = self.joined
        columns["join_round"][:] = self.join_round
        columns["dominated"][:] = self.dominated
        columns["tagged_neighbors"][:] = self.tagged
        columns["marked"][:] = self.marked
        columns["estimate"][:] = self.estimate
        columns["active_nonspoiled"][:] = self.active_nonspoiled
        columns["high"][:] = self.high
        columns["saw_high_neighbor"][:] = self.saw_high
        if rebuild_a is not None:
            duelists = np.nonzero(
                self.marked & (self.premark_round == rebuild_a)
            )[0]
            for i in duelists:
                row = indices[indptr[i]:indptr[i + 1]]
                network.programs[arrays.nodes[i]].competitors = [
                    int(self.tagged[u])
                    for u in row
                    if self.marked[u] and self.premark_round[u] == rebuild_a
                ]

    # ------------------------------------------------------------------
    def step_round(self) -> None:
        network = self.network
        arrays = self.arrays
        awake = self.pop_scheduled_awake()
        self.charge_awake(awake)
        round_index = network.round_index
        keep = self.fault_keep() if self.faults is not None else None
        if round_index >= 4 * self.rounds:
            self._end_block(round_index - 4 * self.rounds, awake, keep)
            return
        algo_round, sub = divmod(round_index, 4)
        if sub == _STATUS:
            senders = awake & self.joined & (self.join_round < algo_round)
            self._dominate(senders, awake, keep)
        elif sub == _TAG:
            senders = awake & (self.tag_round == algo_round) & ~self.dominated
            counts = self.broadcast_wave(senders, awake, keep)
            receivers = awake & (self.premark_round == algo_round)
            self.tagged[receivers] = counts[receivers]
        elif sub == _MARK:
            deciders = (
                awake & (self.premark_round == algo_round) & ~self.dominated
            )
            idx = np.nonzero(deciders)[0]
            marked_now = np.zeros(arrays.n, dtype=bool)
            if idx.size:
                estimate = self.tag_factor * self.tagged[idx].astype(
                    np.float64
                )
                probability = np.ones(idx.size, dtype=np.float64)
                positive = estimate > 0.0
                probability[positive] = np.minimum(
                    1.0, self.mark_numerator / (5.0 * estimate[positive])
                )
                self.estimate[idx] = estimate
                self.marked[idx] = self.draws.take(idx) < probability
                marked_now[idx] = self.marked[idx]
            bits = (
                np.maximum(1, int_bit_length(self.tagged)) + 1
                if self.priced
                else None
            )
            tag_values = np.where(marked_now, self.tagged, np.int64(-1))
            if keep is None:
                self.count_broadcasts(marked_now, awake, bits)
                rival = arrays.neighbor_max(tag_values, empty=np.int64(-1))
            else:
                self.count_broadcasts(marked_now, awake, bits, keep=keep)
                rival = arrays.masked_neighbor_max(
                    tag_values, np.int64(-1), keep
                )
            self.rival_max[marked_now] = rival[marked_now]
        else:  # _JOIN
            winners = (
                awake
                & (self.premark_round == algo_round)
                & self.marked
                & ~self.dominated
                & (self.rival_max < self.tagged)
            )
            winner_idx = np.nonzero(winners)[0]
            if winner_idx.size:
                self.joined[winner_idx] = True
                self.join_round[winner_idx] = algo_round
                set_outputs(self.network, winner_idx, joined=True)
            self._dominate(winners, awake, keep)

    def _dominate(
        self,
        senders: np.ndarray,
        awake: np.ndarray,
        keep: Optional[np.ndarray],
    ) -> None:
        """Sampling-round join announcements: listeners become dominated
        (but stay on their wake schedules — no halt until the end block)."""
        heard_counts = self.broadcast_wave(senders, awake, keep)
        self.dominated |= awake & ~self.joined & (heard_counts > 0)

    def _end_block(
        self, step: int, awake: np.ndarray, keep
    ) -> None:
        arrays = self.arrays
        if step == 0:
            senders = awake & self.joined
            heard_counts = self.broadcast_wave(senders, awake, keep)
            victims = np.nonzero(
                awake & ~self.joined & (heard_counts > 0)
            )[0]
            if victims.size:
                self.dominated[victims] = True
                self.halt_ranks(victims)
        elif step == 1:
            actors = awake & ~self.joined & ~self.dominated
            spoiled = (self.tag_round >= 0) | (self.premark_round >= 0)
            # The heard-test mask (non-spoiled actors) differs from the
            # broadcast mask, so no shared CSR pass here.
            if keep is None:
                self.count_broadcasts(actors, awake, self.one_bit)
                counts = arrays.neighbor_count(actors & ~spoiled)
            else:
                self.count_broadcasts(actors, awake, self.one_bit, keep=keep)
                counts = arrays.masked_neighbor_count(
                    actors & ~spoiled, keep
                )
            self.active_nonspoiled[awake] = counts[awake]
        elif step == 2:
            actors = awake & ~self.joined & ~self.dominated
            reaches = self.active_nonspoiled > self.high_threshold
            self.high[actors] = reaches[actors]
            senders = actors & self.high
            heard_counts = self.broadcast_wave(senders, awake, keep)
            self.saw_high[awake] = heard_counts[awake] > 0
        else:  # step == 3: final joins, outputs, and teardown
            joiners = (
                awake
                & ~self.joined
                & ~self.dominated
                & self.high
                & ~self.saw_high
            )
            self.joined |= joiners
            heard_counts = self.broadcast_wave(joiners, awake, keep)
            self.dominated |= (
                awake & ~self.joined & (heard_counts > 0)
            )
            awake_idx = np.nonzero(awake)[0]
            set_outputs(self.network, awake_idx,
                        joined=self.joined[awake_idx])
            self.halt_ranks(awake_idx)


def run_lemma31_iteration(
    graph: nx.Graph | GraphArrays,
    delta: int,
    *,
    seed: int = 0,
    config: AlgorithmConfig = DEFAULT_CONFIG,
    ledger: Optional[EnergyLedger] = None,
    size_bound: Optional[int] = None,
    options: RunOptions = DEFAULT_OPTIONS,
) -> PhaseResult:
    """One Lemma 3.1 iteration on ``graph`` with degree parameter ``delta``."""
    n = size_bound if size_bound is not None else graph.number_of_nodes()
    rounds = sampling_rounds(n, delta, config)
    result, network = run_network_phase(
        graph, partial(Phase1Alg2Program, delta, rounds, config), 4 * rounds + 4, seed=seed, ledger=ledger,
        size_bound=n, options=options,
    )
    result.details = {
        "delta": delta,
        "rounds": rounds,
        "sampled_nodes": len(flagged(network, "sampled")),
        "residual_max_degree": max_degree(result.residual),
    }
    return result


def run_phase1_alg2(
    graph: nx.Graph | GraphArrays,
    *,
    seed: int = 0,
    config: AlgorithmConfig = DEFAULT_CONFIG,
    ledger: Optional[EnergyLedger] = None,
    size_bound: Optional[int] = None,
    options: RunOptions = DEFAULT_OPTIONS,
) -> PhaseResult:
    """Corollary 3.2: iterate Lemma 3.1 until the degree falls to the floor.

    Runs ``O(log log Δ)`` iterations, each contracting the degree parameter
    ``Δ → Δ^0.7``, stopping at ``Δ <= polylog(n)`` (scaled floor; the paper
    uses ``log²⁰ n``).
    """
    n = size_bound if size_bound is not None else graph.number_of_nodes()
    if ledger is None:
        ledger = EnergyLedger(graph.nodes)
    before = ledger.snapshot()

    floor = config.alg2_degree_floor(n)
    joined: Set[int] = set()
    dominated: Set[int] = set()
    current = graph_csr(graph)
    delta = max_degree(current)
    steps = []
    failures = 0
    iteration = 0
    while delta > floor and current.number_of_nodes() > 0:
        iteration += 1
        if iteration > 64:
            raise RuntimeError("Corollary 3.2 recursion failed to converge")
        step = run_lemma31_iteration(
            current,
            delta,
            seed=_derive_seed(seed, iteration),
            config=config,
            ledger=ledger,
            size_bound=n,
            options=options,
        )
        joined |= step.joined
        dominated |= step.dominated
        steps.append(step)
        assert step.residual is not None  # every iteration hands off
        current = step.residual
        target = max(1, math.ceil(delta**config.alg2_target_exponent))
        actual = max_degree(current)
        if actual > target:
            failures += 1  # low-probability event; fall back to the truth
            delta = actual
        else:
            delta = target

    metrics = phase_metrics(
        sum(step.metrics.rounds for step in steps), before, ledger,
        graph.nodes, [step.metrics for step in steps],
    )
    result = PhaseResult(
        joined=joined,
        dominated=dominated,
        remaining=set(current.nodes),
        metrics=metrics,
        details={
            "iterations": iteration,
            "degree_floor": floor,
            "final_delta": delta,
            "contraction_failures": failures,
            "per_iteration": [step.details for step in steps],
            "residual_max_degree": max_degree(current),
        },
        residual=current,
    )
    result.check_partition(set(graph.nodes))
    return result
