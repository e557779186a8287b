"""Section 4: constant node-averaged energy.

Phase I of both algorithms already has O(1) *average* energy (Section 4.1):
only ``O(n / log n)`` nodes are ever sampled, and unsampled nodes sleep.
The worst-case-energy phases II and III become affordable on average once
at most ``O(n / log² log n)`` nodes still participate. The intermediate
"Phase I-II" (Lemma 4.1) gets the graph there in two steps:

* **Lemma 4.2** — a compressed variant of the Lemma 2.1 algorithm on the
  ``Δ₂ = polylog`` residual: only ``O(log log n)`` rounds per iteration and
  truncation at degree ``polyloglog``; nodes that keep too many active
  neighbors (conditions (A)/(B)) declare themselves *failed* and retire to
  the set ``F`` (w.h.p. a tiny fraction). Every iteration ends with a
  three-round status block in which active nodes are awake, which is how
  joins, counts, and failures propagate between iterations.

* **Lemma 4.5 (substituted)** — the paper imports a sparsifier from
  [GP22, §3.2] that leaves ``O(n/2^k)`` nodes. Its internals are not in
  this paper's text, so per the reproduction's substitution rule we build
  the closest equivalent with the machinery already at hand: a full
  (untruncated) one-shot regularized-Luby cascade on the now
  polyloglog-degree graph, with ``O(log log n)`` rounds per degree-halving
  iteration. It decides all but a small remainder and keeps the one-shot,
  schedule-driven energy profile. The contract (few remaining nodes, O(1)
  average energy) is measured in experiment E4.

The composition wrappers run: Phase I → Lemma 4.2 → sparsifier → Phases
II/III on what little remains (the failed set ``F`` plus the sparsifier's
leftovers).
"""

from __future__ import annotations

import math
from functools import partial
from typing import Iterable, Optional

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
from ..graphs.properties import induced_subgraph, max_degree
from ..result import MISResult
from .config import DEFAULT_CONFIG, AlgorithmConfig, loglog2n
from .phase1_alg1 import (
    Phase1Alg1Program,
    run_phase1_alg1,
    sample_marked_rounds,
)
from .phase1_alg2 import run_phase1_alg2
from .phase2 import run_phase2
from .phase3 import _derive_seed, run_phase3
from .phase_result import PhaseResult, phase_metrics, run_network_phase
from .pipeline import combine_phases, driver_inputs, observed_phase


class Lemma42Program(NodeProgram):
    """Node program for the Lemma 4.2 degree reduction with failure sets.

    Layout: iteration ``i`` occupies ``2·R + 3`` engine rounds — ``R``
    algorithm rounds of two sub-rounds (mark, join), then a three-round
    status block (joins / active counts / failures). A sampled node is
    awake for all of its own iteration; every node attends every block.

    These hooks are the reference semantics: above the engine's auto
    floor the rounds run as whole-network numpy steps in
    :class:`_Lemma42VectorRound`, whose docstring lists the rules it must
    mirror to stay bit-identical.
    """

    def __init__(
        self,
        iterations: int,
        rounds_per_iteration: int,
        delta: int,
        config: AlgorithmConfig,
        n: int,
    ):
        self.iterations = iterations
        self.rounds_per_iteration = rounds_per_iteration
        self.stride = 2 * rounds_per_iteration + 3
        self.delta = max(1, delta)
        self.config = config
        self.n = n
        self.sampled_iteration = -1
        self.sampled_round = -1
        self.joined = False
        self.announced_join = False
        self.dominated = False
        self.failed = False
        self.saw_marked_neighbor = False
        self.spoiled_count = 0
        self.nonspoiled_count = 0

    @classmethod
    def state_schema(cls):
        return (
            StateField("sampled_iteration", np.int64, default=-1),
            StateField("sampled_round", np.int64, default=-1),
            StateField("joined", np.bool_),
            StateField("announced_join", np.bool_),
            StateField("dominated", np.bool_),
            StateField("failed", np.bool_),
            StateField("saw_marked_neighbor", np.bool_),
            StateField("spoiled_count", np.int64),
            StateField("nonspoiled_count", np.int64),
        )

    def wake_rounds(self, sampled_iteration: int):
        """Engine rounds a node sampled in ``sampled_iteration`` (``-1``:
        never) wakes at: all of its own iteration's mark/join rounds,
        plus every iteration's status block."""
        mark_join = 2 * self.rounds_per_iteration
        wake = set()
        if sampled_iteration >= 0:
            base = sampled_iteration * self.stride
            wake.update(range(base, base + mark_join))
        for iteration in range(self.iterations):
            block = iteration * self.stride + mark_join
            wake.update((block, block + 1, block + 2))
        return sorted(wake)

    @classmethod
    def start_population(cls, network, ranks):
        """Sample every node's one-shot marking round (as in Phase I of
        Algorithm 1, divisor 10) and lay down the population's wakes."""
        template = network._template
        marked = sample_marked_rounds(
            network.streams, ranks, template.iterations,
            template.rounds_per_iteration, template.delta, 10.0,
        )
        sampled = marked >= 0
        iteration, algo_round = np.divmod(
            marked, template.rounds_per_iteration
        )
        iteration[~sampled] = -1
        algo_round[~sampled] = -1
        columns = network.state_columns
        columns["sampled_iteration"][ranks] = iteration
        columns["sampled_round"][ranks] = algo_round
        unset = np.zeros(ranks.size, dtype=bool)
        set_outputs(network, ranks, joined=unset, failed=unset,
                    sampled=sampled)
        network._schedule_population(ranks, iteration, template.wake_rounds)

    # ------------------------------------------------------------------
    @property
    def active(self) -> bool:
        return not (self.joined or self.dominated or self.failed)

    def _position(self, round_index: int):
        iteration, offset = divmod(round_index, self.stride)
        in_block = offset >= 2 * self.rounds_per_iteration
        if in_block:
            return iteration, None, offset - 2 * self.rounds_per_iteration
        algo_round, sub = divmod(offset, 2)
        return iteration, (algo_round, sub), None

    def _spoiled_at(self, iteration: int) -> bool:
        """Sampled in this or an earlier iteration (its round has passed)."""
        return 0 <= self.sampled_iteration <= iteration

    def _check_failure(self, iteration: int, spoiled, nonspoiled):
        """Conditions (A)/(B) at the end of ``iteration``: too many spoiled
        or too many non-spoiled active neighbors. Takes counts or count
        arrays (the kernel's columns) alike."""
        threshold_a = (
            (iteration + 1) * self.config.avg_fail_factor * loglog2n(self.n)
        )
        threshold_b = self.delta / (2.0 ** (iteration + 1))
        return (spoiled > threshold_a) | (nonspoiled > threshold_b)

    def on_round(self, ctx):
        iteration, action, block_step = self._position(ctx.round)
        if action is not None:
            algo_round, sub = action
            mine = (
                iteration == self.sampled_iteration
                and algo_round == self.sampled_round
            )
            if sub == 0:
                if mine and self.active:
                    ctx.broadcast(True)
            else:
                if mine and self.active and not self.saw_marked_neighbor:
                    self.joined = True
                    ctx.output["joined"] = True
                    ctx.broadcast(True)
            return
        # Status block.
        if block_step == 0:
            if self.joined and not self.announced_join:
                self.announced_join = True
                ctx.broadcast(True)
        elif block_step == 1:
            if self.active:
                ctx.broadcast(bool(self._spoiled_at(iteration)))
        else:  # block_step == 2
            if self.active and self._check_failure(
                iteration, self.spoiled_count, self.nonspoiled_count
            ):
                self.failed = True
                ctx.output["failed"] = True
                ctx.broadcast(True)

    def on_receive(self, ctx, messages):
        iteration, action, block_step = self._position(ctx.round)
        if action is not None:
            algo_round, sub = action
            mine = (
                iteration == self.sampled_iteration
                and algo_round == self.sampled_round
            )
            if sub == 0:
                if mine:
                    self.saw_marked_neighbor = bool(messages)
            else:
                if messages and not self.joined:
                    self.dominated = True
            return
        if block_step == 0:
            if messages and not self.joined:
                self.dominated = True
            if self.joined and self.announced_join:
                ctx.halt()
            elif self.dominated or self.failed:
                ctx.halt()
        elif block_step == 1:
            self.spoiled_count = sum(1 for m in messages if m.payload)
            self.nonspoiled_count = sum(1 for m in messages if not m.payload)
        else:
            if self.failed:
                ctx.halt()
                return
            if iteration + 1 >= self.iterations:
                ctx.halt()

    @classmethod
    def vector_round(cls, network):
        """Engine capability hook: whole-network Lemma 4.2 rounds."""
        return _Lemma42VectorRound(network, network._template)


class _Lemma42VectorRound(VectorRound):
    """Whole-network Lemma 4.2 rounds over flat numpy columns.

    Schedule-driven like the Phase I kernels: each round's awake set is
    the wake calendar's entry (:meth:`VectorRound.pop_scheduled_awake`),
    and all randomness was consumed at start. Every round makes
    exactly one :meth:`VectorRound.count_broadcasts` call, so counters and
    trace records match the scalar delivery. Bit-identity hinges on
    mirroring the scalar rules exactly:

    * MARK: awake nodes acting this round *assign*
      ``saw_marked_neighbor = heard > 0``, whether or not they are still
      active (only active ones broadcast);
    * JOIN: listeners that hear a join become dominated but do **not**
      halt until the status block (a freshly joined node is immune);
    * block 0: joiners announce once; listeners that hear it become
      dominated, then every awake node that is joined (and announced),
      dominated or failed halts;
    * block 1: every awake node *assigns* its spoiled and non-spoiled
      counts from the surviving one-bit copies of active senders;
    * block 2: active nodes that meet
      :meth:`Lemma42Program._check_failure` fail and broadcast (the
      copies are accounted but read by nobody); failed nodes halt, and
      after the last iteration every awake node does.
    """

    def __init__(self, network, template):
        super().__init__(network)
        self.template = template

    def load(self) -> None:
        columns = self.state_columns
        self.sampled_iteration = columns["sampled_iteration"].copy()
        self.sampled_round = columns["sampled_round"].copy()
        self.joined = columns["joined"].copy()
        self.announced = columns["announced_join"].copy()
        self.dominated = columns["dominated"].copy()
        self.failed = columns["failed"].copy()
        self.saw_marked = columns["saw_marked_neighbor"].copy()
        self.spoiled_count = columns["spoiled_count"].copy()
        self.nonspoiled_count = columns["nonspoiled_count"].copy()

    def flush_state(self) -> None:
        columns = self.state_columns
        columns["joined"][:] = self.joined
        columns["announced_join"][:] = self.announced
        columns["dominated"][:] = self.dominated
        columns["failed"][:] = self.failed
        columns["saw_marked_neighbor"][:] = self.saw_marked
        columns["spoiled_count"][:] = self.spoiled_count
        columns["nonspoiled_count"][:] = self.nonspoiled_count

    # ------------------------------------------------------------------
    def step_round(self) -> None:
        awake = self.pop_scheduled_awake()
        self.charge_awake(awake)
        keep = self.fault_keep() if self.faults is not None else None
        template = self.template
        iteration, offset = divmod(self.network.round_index, template.stride)
        active = ~(self.joined | self.dominated | self.failed)
        block_step = offset - 2 * template.rounds_per_iteration
        if block_step < 0:
            algo_round, sub = divmod(offset, 2)
            acting = (
                awake
                & (self.sampled_iteration == iteration)
                & (self.sampled_round == algo_round)
            )
            if sub == 0:
                heard = self.broadcast_wave(acting & active, awake, keep)
                self.saw_marked[acting] = heard[acting] > 0
            else:
                joiners = acting & active & ~self.saw_marked
                self.joined |= joiners
                set_outputs(self.network, np.flatnonzero(joiners),
                            joined=True)
                heard = self.broadcast_wave(joiners, awake, keep)
                self.dominated |= awake & ~self.joined & (heard > 0)
        elif block_step == 0:
            senders = awake & self.joined & ~self.announced
            self.announced |= senders
            heard = self.broadcast_wave(senders, awake, keep)
            self.dominated |= awake & ~self.joined & (heard > 0)
            self.halt_ranks(np.nonzero(
                awake
                & ((self.joined & self.announced) | self.dominated
                   | self.failed)
            )[0])
        elif block_step == 1:
            self._count_status(awake & active, awake, iteration, keep)
        else:
            failing = awake & active & template._check_failure(
                iteration, self.spoiled_count, self.nonspoiled_count
            )
            self.failed |= failing
            set_outputs(self.network, np.flatnonzero(failing), failed=True)
            self.broadcast_wave(failing, awake, keep)
            if iteration + 1 >= template.iterations:
                self.halt_ranks(np.nonzero(awake)[0])
            else:
                self.halt_ranks(np.nonzero(awake & self.failed)[0])

    def _count_status(self, senders, awake, iteration, keep) -> None:
        """Block 1: one-bit "am I spoiled" broadcasts from active nodes;
        every awake receiver counts each payload value it heard."""
        spoiled = (self.sampled_iteration >= 0) & (
            self.sampled_iteration <= iteration
        )
        arrays = self.arrays
        if keep is None:
            spoiled_heard = arrays.neighbor_count(senders & spoiled)
            nonspoiled_heard = arrays.neighbor_count(senders & ~spoiled)
            self.count_broadcasts(
                senders, awake, self.one_bit,
                sender_counts=spoiled_heard + nonspoiled_heard,
            )
        else:
            spoiled_heard = arrays.masked_neighbor_count(
                senders & spoiled, keep
            )
            nonspoiled_heard = arrays.masked_neighbor_count(
                senders & ~spoiled, keep
            )
            self.count_broadcasts(senders, awake, self.one_bit, keep=keep)
        self.spoiled_count[awake] = spoiled_heard[awake]
        self.nonspoiled_count[awake] = nonspoiled_heard[awake]


def lemma42_budget(n: int, delta2: int, config: AlgorithmConfig):
    """``(iterations, rounds_per_iteration)`` of Lemma 4.2 on a graph of
    maximum degree ``delta2``: degree halvings down to the polyloglog
    truncation target, ``O(log log n)`` rounds each."""
    target = max(
        1.0, loglog2n(n) ** max(1.0, config.avg_truncation)
    )
    iterations = max(
        0, math.floor(math.log2(max(2, delta2)) - math.log2(target))
    )
    rounds_per_iteration = max(2, math.ceil(
        config.avg_round_factor * loglog2n(n)
    ))
    return iterations, rounds_per_iteration


def run_lemma42(
    graph: nx.Graph | GraphArrays,
    *,
    seed: int = 0,
    config: AlgorithmConfig = DEFAULT_CONFIG,
    ledger: Optional[EnergyLedger] = None,
    size_bound: Optional[int] = None,
    options: RunOptions = DEFAULT_OPTIONS,
) -> PhaseResult:
    """Lemma 4.2: reduce the polylog-degree graph to polyloglog degree,
    shedding a small failed set ``F`` (reported in ``details['failed']``).

    ``remaining`` is ``A ∪ F``; callers split it via the details.
    """
    n = size_bound if size_bound is not None else graph.number_of_nodes()
    delta2 = max_degree(graph)
    iterations, rounds_per_iteration = lemma42_budget(n, delta2, config)

    if iterations == 0 or graph.number_of_nodes() == 0:
        return PhaseResult.idle(
            graph.nodes,
            {"failed": set(), "reduced": set(graph.nodes),
             "iterations": 0, "delta2": delta2},
            residual=graph_csr(graph),
        )

    programs = partial(
        Lemma42Program, iterations, rounds_per_iteration, delta2, config, n
    )
    result, _ = run_network_phase(
        graph, programs, iterations * (2 * rounds_per_iteration + 3),
        seed=seed, ledger=ledger, size_bound=n, set_aside="failed",
        options=options,
    )
    reduced = set(result.residual.nodes)
    result.details = {
        "failed": result.remaining - reduced,
        "reduced": reduced,
        "iterations": iterations,
        "rounds_per_iteration": rounds_per_iteration,
        "delta2": delta2,
        "reduced_max_degree": max_degree(result.residual),
    }
    return result


def run_sparsify(
    graph: nx.Graph | GraphArrays,
    *,
    seed: int = 0,
    config: AlgorithmConfig = DEFAULT_CONFIG,
    ledger: Optional[EnergyLedger] = None,
    size_bound: Optional[int] = None,
    failed: Iterable[int] = (),
    options: RunOptions = DEFAULT_OPTIONS,
) -> PhaseResult:
    """Lemma 4.5 substitute: decide most nodes of a low-degree graph.

    A full one-shot regularized-Luby cascade (degree halving from Δ down to
    1) with only ``O(log log n)`` rounds per iteration. See the module
    docstring for why this stands in for [GP22, §3.2].

    ``failed`` is Lemma 4.2's failed set, outside ``graph``: its nodes
    slept through the cascade and wake for one status round, concurrent
    with the hand-off round, to learn whether a neighbor joined. That
    round is charged and counted in this phase.
    """
    if graph.number_of_nodes() == 0:
        result = PhaseResult.idle((), {})
        if failed:
            before = ledger.snapshot()
            ledger.charge_many(failed, 1)
            result.metrics = phase_metrics(0, before, ledger, failed)
        return result
    n = size_bound if size_bound is not None else graph.number_of_nodes()
    degree = max_degree(graph)
    iterations = math.ceil(math.log2(max(2, degree))) + 1
    rounds_per_iteration = max(
        2, math.ceil(config.sparsify_round_factor * loglog2n(n))
    )
    programs = partial(
        Phase1Alg1Program, iterations, rounds_per_iteration, max(1, degree),
        10.0,
    )
    result, _ = run_network_phase(
        graph, programs, 3 * iterations * rounds_per_iteration, seed=seed,
        ledger=ledger, size_bound=n, handoff_round=True, bystanders=failed,
        hand_off=False, options=options,
    )
    result.details = {
        "iterations": iterations,
        "rounds_per_iteration": rounds_per_iteration,
        "input_degree": degree,
        "remaining_fraction": (
            len(result.remaining) / graph.number_of_nodes()
        ),
    }
    return result


def _compose_average_energy(
    graph: nx.Graph | GraphArrays,
    seed: int,
    config: AlgorithmConfig,
    ledger: Optional[EnergyLedger],
    phase1_runner,
    name: str,
    variant: str,
    size_bound: Optional[int],
    options: RunOptions,
) -> MISResult:
    n, ledger = driver_inputs(graph, name, ledger, size_bound)
    common = dict(config=config, ledger=ledger, size_bound=n, options=options)

    phase1 = observed_phase(
        "phase1", phase1_runner, graph, seed=_derive_seed(seed, 11), **common
    )
    residual = phase1.residual
    lemma42 = observed_phase(
        "lemma42", run_lemma42, residual, seed=_derive_seed(seed, 12),
        **common,
    )
    failed = lemma42.details["failed"]
    sparsified = observed_phase(
        "sparsify", run_sparsify, lemma42.residual,
        seed=_derive_seed(seed, 13), failed=failed, **common,
    )

    # Failed nodes slept through the sparsifier but live in the same
    # residual graph: any of them adjacent to a sparsifier joiner is
    # dominated, not leftover. They learn this in the status round the
    # sparsify phase charged them (concurrent with its hand-off round).
    dominated_failed = {
        node
        for node in failed
        if any(u in sparsified.joined for u in residual.neighbors(node))
    }
    leftover = (failed - dominated_failed) | sparsified.remaining
    phase2 = observed_phase(
        "phase2",
        lambda **kwargs: run_phase2(
            induced_subgraph(residual, leftover), **kwargs
        ),
        seed=_derive_seed(seed, 14), **common,
    )
    phase3 = observed_phase(
        "phase3", run_phase3, phase2.components,
        seed=_derive_seed(seed, 15), variant=variant, **common,
    )

    phases = {
        "phase1": phase1,
        "lemma42": lemma42,
        "sparsify": sparsified,
        "phase2": phase2,
        "phase3": phase3,
    }
    return combine_phases(name, phases, ledger, {
        "failed_nodes": len(failed),
        "sparsify_leftover": len(sparsified.remaining),
        "phase2_input": len(leftover),
        "undecided": sorted(phase3.remaining),
        "phase3_failures": phase3.details.get("failures", 0),
    })


def algorithm1_constant_average_energy(
    graph: nx.Graph | GraphArrays,
    seed: int = 0,
    *,
    config: AlgorithmConfig = DEFAULT_CONFIG,
    ledger: Optional[EnergyLedger] = None,
    size_bound: Optional[int] = None,
    options: RunOptions = DEFAULT_OPTIONS,
) -> MISResult:
    """Algorithm 1 augmented per Section 4: O(1) node-averaged energy while
    keeping the Theorem 1.1 worst-case time/energy bounds.

    ``graph`` is a networkx graph or a
    :class:`~repro.congest.vectorized.GraphArrays`; every phase's networks
    run under ``options``.
    """
    return _compose_average_energy(
        graph, seed, config, ledger, run_phase1_alg1,
        "algorithm1_avg_energy", "alg1", size_bound, options,
    )


def algorithm2_constant_average_energy(
    graph: nx.Graph | GraphArrays,
    seed: int = 0,
    *,
    config: AlgorithmConfig = DEFAULT_CONFIG,
    ledger: Optional[EnergyLedger] = None,
    size_bound: Optional[int] = None,
    options: RunOptions = DEFAULT_OPTIONS,
) -> MISResult:
    """Algorithm 2 augmented per Section 4 (``graph``: a networkx graph or
    a :class:`~repro.congest.vectorized.GraphArrays`), every phase's
    networks under ``options``."""
    return _compose_average_energy(
        graph, seed, config, ledger, run_phase1_alg2,
        "algorithm2_avg_energy", "alg2", size_bound, options,
    )
