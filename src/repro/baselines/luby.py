"""Luby's randomized MIS algorithm [Lub86, ABI86] on the CONGEST engine.

This is the classic ``O(log n)``-time baseline the paper compares against:
every undecided node stays awake every round, so its *energy* complexity is
also ``Θ(log n)`` — exactly the cost the paper's algorithms attack.

We implement the degree-based variant described in Section 3 of the paper:
each round, an undecided node marks itself with probability ``1/(2 deg(v))``
(current degree); for an edge with both endpoints marked, the endpoint with
the lower (degree, id) pair loses its mark; surviving marked nodes join the
MIS and are removed together with their neighbors.

Each algorithm iteration is three CONGEST sub-rounds (mark / resolve+join /
retire), all with 1-bit or (flag, degree) messages within the ``O(log n)``
budget.
"""

from __future__ import annotations

from typing import Optional, Set, Tuple

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
from ..congest.vectorized import VectorRound, int_bit_length
from ..result import MISResult

_MARK = 0  # sub-round: marked nodes announce (mark, degree)
_RESOLVE = 1  # sub-round: mark winners join and announce
_RETIRE = 2  # sub-round: dominated nodes announce their removal

_ACTIVE = 0
_JOINED = 1
_REMOVED = 2


class LubyProgram(NodeProgram):
    """Node program for Luby's MIS.

    The three per-round scalars live in network-owned columns (see
    :meth:`state_schema`); ``active_neighbors`` stays instance-local
    because it is a shrinking *set* — it uses ``None`` as a lazy "all my
    neighbors" sentinel so an untouched node never materializes its
    neighborhood (the n=10^6 vectorized path leaves every node untouched).
    """

    def __init__(self):
        self.state = _ACTIVE
        self.active_neighbors: Optional[Set[int]] = None
        self.marked = False
        self.marked_neighbors: list = []
        self.pending_retirement = False

    @classmethod
    def state_schema(cls):
        return (
            StateField("state", np.int8),
            StateField("marked", np.bool_),
            StateField("pending_retirement", np.bool_),
        )

    @classmethod
    def start_population(cls, network, ranks):
        """Every node starts outside the MIS: one output-table write."""
        set_outputs(network, ranks, in_mis=False)

    # ------------------------------------------------------------------
    def _priority(self, degree: int, node: int) -> Tuple[int, int]:
        """Tie-break key: a marked node beats marked neighbors of lower key."""
        return (degree, node)

    def _active_degree(self, ctx) -> int:
        active = self.active_neighbors
        if active is None:
            return ctx.degree
        return len(active)

    def _active_set(self, ctx) -> Set[int]:
        active = self.active_neighbors
        if active is None:
            active = set(ctx.neighbors)
            self.active_neighbors = active
        return active

    def on_round(self, ctx):
        phase = ctx.round % 3
        if phase == _MARK:
            self._do_mark(ctx)
        elif phase == _RESOLVE:
            self._do_resolve(ctx)
        else:
            self._do_retire(ctx)

    def _do_mark(self, ctx):
        if self.state != _ACTIVE:
            return
        degree = self._active_degree(ctx)
        if degree == 0:
            self.marked = True  # isolated: joins unopposed
        else:
            self.marked = bool(ctx.rng.random() < 1.0 / (2.0 * degree))
        self.marked_neighbors = []
        if self.marked:
            ctx.broadcast((True, degree))

    def _do_resolve(self, ctx):
        if self.state != _ACTIVE or not self.marked:
            return
        mine = self._priority(self._active_degree(ctx), ctx.node)
        wins = all(
            self._priority(deg, u) < mine for u, deg in self.marked_neighbors
        )
        if wins:
            self.state = _JOINED
            ctx.output["in_mis"] = True
            ctx.output["decided_round"] = ctx.round
            ctx.broadcast(True)

    def _do_retire(self, ctx):
        if self.pending_retirement:
            ctx.broadcast(True)

    # ------------------------------------------------------------------
    def on_receive(self, ctx, messages):
        phase = ctx.round % 3
        if phase == _MARK:
            self.marked_neighbors = [
                (m.sender, m.payload[1]) for m in messages if m.payload[0]
            ]
        elif phase == _RESOLVE:
            if self.state == _JOINED:
                ctx.halt()  # announced; done forever
                return
            joiners = {m.sender for m in messages}
            if joiners:
                self._active_set(ctx).difference_update(joiners)
                if self.state == _ACTIVE:
                    self.state = _REMOVED
                    self.pending_retirement = True
                    ctx.output["decided_round"] = ctx.round
        else:  # _RETIRE
            retirees = {m.sender for m in messages}
            if retirees:
                self._active_set(ctx).difference_update(retirees)
            if self.pending_retirement:
                ctx.halt()

    @classmethod
    def vector_round(cls, network):
        """Engine capability hook: Luby rounds vectorize whole-network."""
        return _LubyVectorRound(network)


class _LubyVectorRound(VectorRound):
    """Whole-network Luby rounds over flat numpy columns.

    Exploits two invariants of the scalar program to stay bit-identical:

    * every node that dies (halts) has announced first — a joiner at its
      RESOLVE round, a retiree at its RETIRE round — and every live node
      hears every announcement (all undecided nodes are always awake), so
      at any round boundary ``active_neighbors(v) == {u in N(v): alive(u)}``
      and the active degree is one CSR segment-sum over the alive mask;
    * the active degree cannot change between a MARK round and its RESOLVE
      (deaths happen only in RESOLVE/RETIRE receive phases), so the degree
      column cached at MARK prices that cycle's payloads *and* builds the
      RESOLVE priority keys ``(degree, id)`` — encoded as
      ``degree * n + rank`` (rank order is label order, so the encoding is
      order-isomorphic to the scalar tuple compare).

    Draws match the scalar loop exactly: only ACTIVE nodes with a live
    neighbor draw, one uniform per MARK, from their own keyed streams.

    Under an active channel-fault stack (``self.faults``), the first
    invariant breaks — a dropped join/retire announcement leaves the
    receiver *believing* its neighbor is still active — so the fault path
    replicates the scalar program's belief state explicitly: ``edge_live``
    is the per-slot belief "this row still counts that neighbor", the mark
    probability and priority keys use the believed degree derived from it,
    and beliefs shrink only on announcements that actually survived the
    round's keep mask (the MARK mask is also replayed at RESOLVE, where
    the scalar path reads its stored inbox).  The clean path is untouched.
    """

    def load(self) -> None:
        arrays = self.arrays
        network = self.network
        # Vector rounds only run while the whole population is always-on
        # (the engine gates on an empty wake calendar), so membership
        # there — not just "not halted" — is what "awake every round"
        # means.
        self.alive = self.arrays.rank_mask(network._always_on)
        # Network-owned columns share the kernel's rank order; a copy
        # decouples the round loop from descriptor reads until flush.
        columns = self.state_columns
        self.state = columns["state"].copy()
        self.marked = columns["marked"].copy()
        self.pending = columns["pending_retirement"].copy()
        if self.faults is None:
            # Live-neighbor count, maintained *incrementally* from here on:
            # RESOLVE subtracts the winners' contributions and RETIRE the
            # retirees', so no later round pays a dense CSR re-count.  This
            # snapshot is correct at any engagement boundary — between MARK
            # and RESOLVE nobody has died since MARK, and between RESOLVE
            # and RETIRE the winners are already out of ``alive``.
            self.active_deg = arrays.neighbor_count(self.alive)
        else:
            self._load_beliefs()

    def _load_beliefs(self) -> None:
        """Fault path: lift each program's belief state into slot columns."""
        arrays = self.arrays
        network = self.network
        indptr, indices, nodes = arrays.indptr, arrays.indices, arrays.nodes
        edge_live = np.zeros(indices.shape[0], dtype=bool)
        next_phase = (network.round_index + 1) % 3
        mark_keep = (
            np.zeros(indices.shape[0], dtype=bool)
            if next_phase == _RESOLVE
            else None
        )
        # A program never built is a fresh one: it believes its whole
        # neighborhood active and has heard no marks.
        built = network.programs.built()
        for i, node in enumerate(nodes):
            if not self.alive[i]:
                continue
            program = built.get(node)
            start, end = int(indptr[i]), int(indptr[i + 1])
            believed = None if program is None else program.active_neighbors
            if believed is None:
                # Lazy sentinel: the node still believes its whole
                # neighborhood is active.
                edge_live[start:end] = True
            else:
                for e in range(start, end):
                    edge_live[e] = nodes[indices[e]] in believed
            if mark_keep is not None and program is not None:
                # Mid-cycle engagement between MARK and RESOLVE: the mark
                # announcements were delivered (and filtered) by the scalar
                # wrapper; replay the survivors as this cycle's MARK mask.
                received = {sender for sender, _ in program.marked_neighbors}
                for e in range(start, end):
                    mark_keep[e] = nodes[indices[e]] in received
        self.edge_live = edge_live
        self._mark_keep = mark_keep
        self.active_deg = np.bincount(
            arrays.edge_source[edge_live], minlength=arrays.n
        ).astype(np.int64, copy=False)

    def flush_state(self) -> None:
        arrays = self.arrays
        network = self.network
        alive = self.alive
        indptr, indices = arrays.indptr, arrays.indices
        nodes = arrays.nodes
        faulty = self.faults is not None
        if faulty:
            edge_live = self.edge_live
            mark_keep = self._mark_keep
        columns = self.state_columns
        columns["state"][:] = self.state
        columns["marked"][:] = self.marked
        columns["pending_retirement"][:] = self.pending
        # Reconstruct MARK-receive inboxes only when the next round is a
        # RESOLVE (the one point where the scalar path reads them), and
        # belief sets only for still-live rows — a finished run flushes in
        # O(#survivors), not O(m).
        rebuild_inbox = (network.round_index + 1) % 3 == _RESOLVE
        for i in np.nonzero(alive)[0]:
            program = network.programs[nodes[i]]
            start, end = int(indptr[i]), int(indptr[i + 1])
            row = indices[start:end]
            if faulty:
                program.active_neighbors = {
                    nodes[row[k]]
                    for k in range(end - start)
                    if edge_live[start + k]
                }
                if rebuild_inbox:
                    program.marked_neighbors = [
                        (nodes[u], int(self.active_deg[u]))
                        for k, u in enumerate(row)
                        if self.marked[u] and self.state[u] == 0
                        and (mark_keep is None or mark_keep[start + k])
                    ]
            else:
                program.active_neighbors = {
                    nodes[u] for u in row if alive[u]
                }
                if rebuild_inbox:
                    program.marked_neighbors = [
                        (nodes[u], int(self.active_deg[u]))
                        for u in row
                        if self.marked[u] and self.state[u] == 0
                    ]

    # ------------------------------------------------------------------
    def step_round(self) -> None:
        phase = self.network.round_index % 3
        self.charge_awake(self.alive)
        if phase == _MARK:
            self._mark()
        elif phase == _RESOLVE:
            self._resolve()
        else:
            self._retire()

    def _mark(self) -> None:
        arrays = self.arrays
        alive = self.alive
        faulty = self.faults is not None
        if faulty:
            # Believed degree, not live-neighbor count: dropped join/retire
            # announcements leave stale entries, exactly as in the scalar
            # program's ``active_neighbors``.
            degree = np.bincount(
                arrays.edge_source[self.edge_live], minlength=arrays.n
            ).astype(np.int64, copy=False)
            self.active_deg = degree
        else:
            # Incrementally maintained since load: equals
            # ``neighbor_count(alive)`` because RESOLVE/RETIRE subtracted
            # every death's contribution as it happened.
            degree = self.active_deg
        active = alive & (self.state == 0)
        marked = np.zeros(arrays.n, dtype=bool)
        marked[active & (degree == 0)] = True  # isolated: joins unopposed
        contenders = np.nonzero(active & (degree > 0))[0]
        if contenders.size:
            draws = self.draws.take(contenders)
            marked[contenders] = draws < 0.5 / degree[contenders]
        self.marked = marked
        bits = 6 + np.maximum(1, int_bit_length(degree)) if self.priced \
            else None
        if faulty:
            self._mark_keep = self.fault_keep()
            self.count_broadcasts(marked, alive, bits, keep=self._mark_keep)
        else:
            self.count_broadcasts(marked, alive, bits, alive_neighbors=degree)

    def _resolve(self) -> None:
        arrays = self.arrays
        alive = self.alive
        n = arrays.n
        degree = self.active_deg
        faulty = self.faults is not None
        key = degree * np.int64(n) + np.arange(n, dtype=np.int64)
        contender_key = np.where(self.marked & (self.state == 0), key, -1)
        if faulty and self._mark_keep is not None:
            # A mark that was dropped on a slot was never heard by that
            # receiver: it cannot beat the receiver there.
            rival = arrays.masked_neighbor_max(
                contender_key, np.int64(-1), self._mark_keep
            )
        else:
            rival = arrays.neighbor_max(contender_key, empty=np.int64(-1))
        winners = self.marked & (self.state == 0) & (rival < key)
        winner_idx = np.nonzero(winners)[0]
        round_index = self.network.round_index
        self.state[winner_idx] = 1
        set_outputs(self.network, winner_idx, in_mis=True,
                    decided_round=round_index)
        if faulty:
            resolve_keep = self.fault_keep()
            self.count_broadcasts(
                winners, alive, self.one_bit, keep=resolve_keep
            )
            if resolve_keep is None:
                joined_nearby = arrays.neighbor_count(winners)
                heard_slots = winners[arrays.indices]
            else:
                joined_nearby = arrays.masked_neighbor_count(
                    winners, resolve_keep
                )
                heard_slots = winners[arrays.indices] & resolve_keep
            # Belief update: only joins that were actually heard retire the
            # receiver's link to the joiner.
            self.edge_live[heard_slots] = False
        else:
            # No deaths since MARK, so the cached degree *is* this round's
            # live-neighbor count.
            self.count_broadcasts(
                winners, alive, self.one_bit, alive_neighbors=degree
            )
            joined_nearby = arrays.neighbor_count(winners)
            # The winners halt at the end of this round: retire their
            # contribution now so the count stays live.
            self.active_deg = degree - joined_nearby
        # Receive phase: non-winners that heard a join retire their link
        # and (if still competing) schedule their retirement announcement.
        heard = alive & ~winners & (joined_nearby > 0)
        removed = heard & (self.state == 0)
        self.pending[removed] = True
        self.state[removed] = 2
        set_outputs(self.network, np.flatnonzero(removed),
                    decided_round=round_index)
        alive[winner_idx] = False
        self.halt_ranks(winner_idx)

    def _retire(self) -> None:
        arrays = self.arrays
        alive = self.alive
        retirees = self.pending & alive
        if self.faults is not None:
            retire_keep = self.fault_keep()
            self.count_broadcasts(
                retirees, alive, self.one_bit, keep=retire_keep
            )
            heard_slots = retirees[arrays.indices]
            if retire_keep is not None:
                heard_slots = heard_slots & retire_keep
            self.edge_live[heard_slots] = False
        else:
            # ``active_deg`` was decremented by the winners at RESOLVE, so
            # it equals this round's live-neighbor count — saving
            # ``count_broadcasts`` its dense alive re-count; then the
            # retirees' own contributions come off for the next MARK.
            self.count_broadcasts(
                retirees, alive, self.one_bit,
                alive_neighbors=self.active_deg,
            )
            self.active_deg = self.active_deg - arrays.neighbor_count(retirees)
        retiree_idx = np.nonzero(retirees)[0]
        alive[retiree_idx] = False
        self.halt_ranks(retiree_idx)


def luby_mis(
    graph: nx.Graph,
    seed: int = 0,
    *,
    max_rounds: int = 100_000,
    ledger: Optional[EnergyLedger] = None,
    size_bound: Optional[int] = None,
    options: RunOptions = DEFAULT_OPTIONS,
) -> MISResult:
    """Run Luby's algorithm to completion and return the MIS with metrics.

    ``options`` names the engine, channel, node faults and instrument of
    the run. The ``"local"`` channel skips the CONGEST bit accounting (the baseline's
    rounds/energy are unchanged); the radio ``"broadcast"`` channel is
    unsound for Luby (adjacent marked nodes never hear each other).
    """
    network = Network(
        graph, LubyProgram, seed=seed, ledger=ledger, size_bound=size_bound,
        channel=options.channel, instrument=options.instrument,
        faults=options.faults,
    )
    metrics = network.run(max_rounds=max_rounds, engine=options.engine)
    mis = {node for node, flag in network.outputs("in_mis").items() if flag}
    return MISResult(mis=mis, metrics=metrics, algorithm="luby")
