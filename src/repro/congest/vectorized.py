"""Vectorized dense-round engine path: numpy over flat node arrays.

The engine's fast path (idle fast-forward + cached round loop) wins on
*sparse* schedules, where almost nobody is awake.  Dense always-on phases —
Luby-style duel rounds, regularized-Luby marking cascades, radio announce
slots — are the opposite regime: every undecided node is awake every round
and runs the *same* program step.  There, the per-node python dispatch
(``on_round``/``on_receive`` calls, inbox dict lookups, per-message
accounting) dominates wall-clock.

This module provides the third engine path: node state is flattened into
contiguous numpy columns (degree/mark/priority/state), the graph into a CSR
adjacency (:class:`GraphArrays`), and one :class:`VectorRound` subclass per
capable algorithm advances the *whole network* one synchronous round with
array ops — bit-identically to the scalar paths, including every node's
random draws: kernels draw the whole active set at once from the network's
keyed streams (:class:`~repro.congest.streams.NodeStreams`), which read and
bump the same per-node counters as the scalar ``ctx.rng``.

A program class opts in by overriding the :attr:`NodeProgram.vector_round`
hook with a factory ``(network) -> VectorRound``.  The network engages the
vectorized path only for a capable program class with state columns on a
compatible point-to-point channel (CONGEST or LOCAL); radio rounds are
vectorized inside :class:`~repro.congest.channels.BroadcastChannel` itself
(the per-round bincount listener scan), which needs no program capability.

State lives on the program instances between engagements: a runner
:meth:`VectorRound.load`\\ s instance state into arrays lazily at its first
round and :meth:`VectorRound.flush`\\ es arrays (and lazily-accumulated
ledger charges) back whenever the engine leaves the vectorized regime — a
scheduled wake appears, ``run_rounds`` truncates, or the run ends — so
scalar and vectorized rounds interleave bit-identically.
"""

from __future__ import annotations

import abc
import itertools
from typing import Dict, Optional

import numpy as np

#: Module-wide engagement statistics, for tests and the CI gate that the
#: vectorized path never *silently* falls back to the cached loop for an
#: algorithm that declares the capability.
_VECTOR_STATS = {"rounds": 0, "networks": 0}


def vector_stats() -> Dict[str, int]:
    """Counters of vectorized engagement since the last reset."""
    return dict(_VECTOR_STATS)


def reset_vector_stats() -> None:
    _VECTOR_STATS["rounds"] = 0
    _VECTOR_STATS["networks"] = 0


class _IdentityRank:
    """Rank map for 0..n-1 integer labels: every label is its own rank.

    Stands in for the ``{label: rank}`` dict so million-node graphs never
    pay for a million-entry dictionary just to satisfy ``rank[node]``
    call sites shared with arbitrary-label graphs.
    """

    __slots__ = ()

    def __getitem__(self, node):
        return node

    def get(self, node, default=None):
        return node


def _is_identity(nodes) -> bool:
    """Whether sorted labels are exactly 0..n-1 (each label its own rank)."""
    n = len(nodes)
    return bool(
        n
        and isinstance(nodes[0], int)
        and isinstance(nodes[-1], int)
        and nodes[0] == 0
        and nodes[-1] == n - 1
    )


class GraphArrays:
    """CSR adjacency over rank-indexed nodes.

    Node labels stay arbitrary hashable objects (grid graphs use tuples);
    all array math runs on each node's *rank* in sorted-label order, which
    is order-isomorphic to label comparison — so lexicographic tie-break
    keys like Luby's ``(degree, id)`` vectorize as ``degree * n + rank``.

    Instances are also graph-like enough to hand straight to
    :class:`~repro.congest.network.Network`: they answer
    ``number_of_nodes``/``number_of_edges``, ``nodes``, ``neighbors`` and
    membership tests, so the array-native construction path (generators'
    ``as_arrays=True`` → :meth:`from_edges`) never materializes a
    ``networkx.Graph`` of per-node adjacency dicts at all.
    """

    __slots__ = ("nodes", "_rank", "indptr", "indices", "degrees", "n",
                 "identity_ranks", "_edge_source")

    def __init__(self, graph):
        nodes = sorted(graph.nodes)
        n = len(nodes)
        identity = _is_identity(nodes)
        # Vectorized CSR build: the adjacency rows, read in sorted-label
        # order, stream straight into one flat target array, already
        # grouped by source; the shared build sorts only if some row is
        # out of order. Graphs labelled 0..n-1 (every generated family)
        # are their own rank map, so the targets need no per-entry dict
        # lookup.
        adj = graph.adj
        rows = [adj[node] for node in nodes]
        counts = np.fromiter(map(len, rows), dtype=np.int64, count=n)
        targets = itertools.chain.from_iterable(rows)
        rank = None
        if not identity:
            rank = {node: i for i, node in enumerate(nodes)}
            targets = map(rank.__getitem__, targets)
        target = np.fromiter(targets, dtype=np.int64, count=int(counts.sum()))
        source = np.repeat(np.arange(n, dtype=np.int64), counts)
        self._init_csr(nodes, source, target, n, identity, degrees=counts)
        self._rank = rank

    def _init_csr(self, nodes, source, target, n, identity,
                  degrees=None) -> None:
        """Shared CSR build from rank-indexed directed endpoint arrays.

        One sort of the combined ``source * n + target`` key groups the
        entries by source with sorted targets inside each row. Callers
        whose entries are already grouped by ascending source pass the
        row ``degrees``; the sort then runs only if one O(m) comparison
        finds a row whose targets are out of order.
        """
        key = source * n + target
        if degrees is None or bool((key[1:] <= key[:-1]).any()):
            key.sort()
            target = key % n
        if degrees is None:
            degrees = np.bincount(source, minlength=n)
        self.nodes = nodes
        self._rank = None
        self.indices = target
        self.degrees = degrees.astype(np.int64, copy=False)
        self.indptr = np.concatenate((
            np.zeros(1, dtype=np.int64), np.cumsum(self.degrees)
        ))
        self.n = n
        self.identity_ranks = identity
        self._edge_source = None  # built lazily (one np.repeat over m)

    @classmethod
    def from_edges(cls, n: int, head, tail) -> "GraphArrays":
        """Build directly from an undirected edge list on labels 0..n-1.

        ``head``/``tail`` are parallel integer arrays, one entry per
        undirected edge, without duplicates or self-loops (generators
        guarantee this). This is the array-native construction path: no
        ``networkx.Graph`` ever exists.
        """
        self = cls.__new__(cls)
        head = np.ascontiguousarray(head, dtype=np.int64)
        tail = np.ascontiguousarray(tail, dtype=np.int64)
        # ``range`` supports everything callers ask of ``nodes`` (len,
        # iteration, indexing) without a million-entry python list.
        self._init_csr(range(n), np.concatenate((head, tail)),
                       np.concatenate((tail, head)), n, True)
        return self

    @classmethod
    def from_graph(cls, graph) -> "GraphArrays":
        return cls(graph)

    def induced(self, nodes) -> "GraphArrays":
        """The subgraph induced by the labels ``nodes``, as a new CSR.

        Labels are kept, in sorted order, so ranks keep their relative
        order: rank-ordered state (random streams, state-column rows) of
        the subgraph matches what a ``networkx`` subgraph copy would give.
        Costs one pass over the kept rows' adjacency; the parent is never
        copied.
        """
        keep = self.rank_mask(nodes)
        ranks = np.flatnonzero(keep)
        k = int(ranks.size)
        lengths = self.degrees[ranks]
        # Entry positions of the kept rows, row after row.
        ends = np.cumsum(lengths)
        positions = np.arange(int(ends[-1]) if k else 0, dtype=np.int64)
        positions += np.repeat(self.indptr[ranks] - (ends - lengths), lengths)
        targets = self.indices[positions]
        inside = keep[targets]
        new_rank = np.cumsum(keep) - 1
        sub = GraphArrays.__new__(GraphArrays)
        if self.identity_ranks:
            labels = ranks.tolist()
        else:
            labels = [self.nodes[i] for i in ranks.tolist()]
        # Kept rows stay grouped and in order, and relabelling is
        # monotone, so the shared build skips its sort.
        source = np.repeat(np.arange(k, dtype=np.int64), lengths)[inside]
        sub._init_csr(
            labels,
            source,
            new_rank[targets[inside]],
            k,
            _is_identity(labels),
            degrees=np.bincount(source, minlength=k),
        )
        return sub

    def rank_mask(self, nodes) -> np.ndarray:
        """Boolean rank mask of a collection of labels (all must be nodes)."""
        mask = np.zeros(self.n, dtype=bool)
        count = len(nodes)
        if not count:
            return mask
        if self.identity_ranks:
            ranks = np.fromiter(nodes, dtype=np.int64, count=count)
            if ranks.min() < 0 or ranks.max() >= self.n:
                raise KeyError("labels outside 0..n-1")
        else:
            ranks = np.fromiter(map(self.rank.__getitem__, nodes),
                                dtype=np.int64, count=count)
        mask[ranks] = True
        return mask

    def to_networkx(self):
        """A ``networkx.Graph`` with the same labels (sorted) and edges."""
        import networkx as nx

        graph = nx.Graph()
        nodes = self.nodes
        graph.add_nodes_from(nodes)
        upper = self.indices > self.edge_source
        head = self.edge_source[upper].tolist()
        tail = self.indices[upper].tolist()
        if not self.identity_ranks:
            head = [nodes[i] for i in head]
            tail = [nodes[i] for i in tail]
        graph.add_edges_from(zip(head, tail))
        return graph

    @property
    def rank(self):
        """Label → rank mapping (identity-label graphs build no dict)."""
        rank = self._rank
        if rank is None:
            if self.identity_ranks:
                rank = _IdentityRank()
            else:
                rank = {node: i for i, node in enumerate(self.nodes)}
            self._rank = rank
        return rank

    # -- graph-like protocol (what Network and the channels consume) -----
    def number_of_nodes(self) -> int:
        return self.n

    def number_of_edges(self) -> int:
        return int(self.indices.size) // 2

    def neighbors(self, node):
        """Ascending neighbor labels of one node (a fresh list)."""
        rank = node if self.identity_ranks else self.rank[node]
        row = self.indices[self.indptr[rank]:self.indptr[rank + 1]]
        if self.identity_ranks:
            return row.tolist()
        nodes = self.nodes
        return [nodes[i] for i in row.tolist()]

    def __contains__(self, node) -> bool:
        if self.identity_ranks:
            return isinstance(node, (int, np.integer)) and 0 <= node < self.n
        return node in self.rank

    def __len__(self) -> int:
        return self.n

    @property
    def edge_source(self) -> np.ndarray:
        """Per-edge source rank (the CSR row of each ``indices`` entry)."""
        if self._edge_source is None:
            self._edge_source = np.repeat(
                np.arange(self.n, dtype=np.int64), self.degrees
            )
        return self._edge_source

    # -- segment reductions over the CSR rows ---------------------------
    def neighbor_count(self, mask: np.ndarray) -> np.ndarray:
        """Per-node count of flagged neighbors: one bincount over the
        edges *leaving flagged rows*.

        Sparse masks (the common case: this round's markers, winners,
        retirees) gather only the flagged rows' adjacency slices, so a
        round with k flagged nodes costs O(sum of their degrees) instead
        of O(m); dense masks take one boolean edge gather + bincount.
        """
        flagged = np.nonzero(mask)[0]
        if not flagged.size:
            return np.zeros(self.n, dtype=np.int64)
        if flagged.size * 8 < self.n:
            indptr, indices = self.indptr, self.indices
            targets = np.concatenate(
                [indices[indptr[i]:indptr[i + 1]] for i in flagged]
            )
        else:
            targets = self.indices[mask[self.edge_source]]
        return np.bincount(targets, minlength=self.n).astype(
            np.int64, copy=False
        )

    def neighbor_max(self, values: np.ndarray, empty) -> np.ndarray:
        """Per-node max of ``values`` over its neighbors (empty row ->
        ``empty``).

        ``np.maximum.reduceat`` is fed only the starts of non-empty rows:
        because empty rows contribute no edge values, consecutive non-empty
        starts delimit exactly one row each.
        """
        out = np.full(self.n, empty, dtype=values.dtype)
        indptr = self.indptr
        nonempty = indptr[:-1] < indptr[1:]
        if nonempty.any():
            out[nonempty] = np.maximum.reduceat(
                values[self.indices], indptr[:-1][nonempty]
            )
        return out

    # -- fault-masked variants -------------------------------------------
    # Slot convention shared with ``Channel.vector_faults``: CSR slot ``e``
    # sits in the row of receiver ``edge_source[e]`` and carries the
    # delivery from sender ``indices[e]``; ``keep[e]`` is False when a
    # fault destroyed that delivery this round.  With an all-True mask both
    # variants coincide with their clean counterparts (for the count, by
    # symmetry of the undirected slot set).

    def masked_neighbor_count(
        self, mask: np.ndarray, keep: np.ndarray
    ) -> np.ndarray:
        """Per-receiver count of flagged senders whose delivery survived."""
        selected = mask[self.indices] & keep
        if not selected.any():
            return np.zeros(self.n, dtype=np.int64)
        return np.bincount(
            self.edge_source[selected], minlength=self.n
        ).astype(np.int64, copy=False)

    def masked_neighbor_max(
        self, values: np.ndarray, empty, keep: np.ndarray
    ) -> np.ndarray:
        """Per-receiver max of surviving senders' ``values`` (else ``empty``)."""
        out = np.full(self.n, empty, dtype=values.dtype)
        indptr = self.indptr
        nonempty = indptr[:-1] < indptr[1:]
        if nonempty.any():
            edge_values = np.where(keep, values[self.indices], empty)
            out[nonempty] = np.maximum.reduceat(
                edge_values, indptr[:-1][nonempty]
            )
        return out

    def delivery_counts(
        self, senders: np.ndarray, alive: np.ndarray, keep: np.ndarray
    ) -> np.ndarray:
        """Per-sender count of copies actually received under ``keep``.

        A copy from sender ``indices[e]`` lands iff the receiving row is
        alive (awake, in the dense regime) and no fault dropped the slot.
        """
        selected = senders[self.indices] & alive[self.edge_source] & keep
        return np.bincount(
            self.indices[selected], minlength=self.n
        ).astype(np.int64, copy=False)


def graph_csr(graph) -> GraphArrays:
    """The :class:`GraphArrays` of any graph (built on first use).

    A :class:`GraphArrays` is its own CSR. A ``networkx`` graph's CSR is
    parked in its ``__networkx_cache__`` when one exists: networkx clears
    that dict on every mutation, so repeated runs over the same (static)
    graph — the phases of one solve, sweeps, benchmarks, engine
    comparisons — reuse one build, while dynamic workloads that rewire
    edges between epochs are invalidated for free.
    """
    if isinstance(graph, GraphArrays):
        return graph
    cache = getattr(graph, "__networkx_cache__", None)
    if not isinstance(cache, dict):
        return GraphArrays.from_graph(graph)
    arrays = cache.get("repro_graph_arrays")
    if arrays is None:
        arrays = GraphArrays.from_graph(graph)
        cache["repro_graph_arrays"] = arrays
    return arrays


def graph_arrays(network) -> GraphArrays:
    """The network's cached :class:`GraphArrays` (see :func:`graph_csr`).

    Shared between the vectorized round runners and the radio channel's
    bincount listener scan, so one network builds the CSR at most once.
    """
    arrays = getattr(network, "_graph_arrays", None)
    if arrays is None:
        arrays = graph_csr(network.graph)
        network._graph_arrays = arrays
    return arrays


def invalidate_graph_arrays(graph) -> None:
    """Drop a graph's cached :class:`GraphArrays`, if any.

    networkx clears ``__networkx_cache__`` on its own mutators, but code
    that rewires a graph through out-of-band paths (or merely wants a
    belt-and-braces guarantee around a batch of mutations — the dynamic
    subsystem's event application does) can call this to make sure no
    stale CSR survives. A no-op for graphs without a cache dict.
    """
    cache = getattr(graph, "__networkx_cache__", None)
    if isinstance(cache, dict):
        cache.pop("repro_graph_arrays", None)


class VectorRound(abc.ABC):
    """Base class for one algorithm's vectorized whole-network round.

    Subclasses implement :meth:`load` (state columns -> kernel arrays),
    :meth:`step_round` (one synchronous round over arrays, updating the
    network's message counters identically to the scalar delivery), and
    :meth:`flush_state` (kernel arrays -> state columns, plus any
    non-column instance state the scalar hooks read, so scalar rounds can
    resume bit-identically).

    The base class owns the shared plumbing: lazily-accumulated energy
    charges (flushed to the :class:`EnergyLedger` in node order), halts
    through the network's halted set (so the engine's wake bookkeeping
    stays consistent), trace records, and engagement statistics. Kernels
    write outputs with :func:`~repro.congest.program.set_outputs`, one
    table update per key and round, and never build a node's
    :class:`Context` or program.

    The three are abstract, so a subclass that leaves one out cannot be
    instantiated; a kernel engages only on state that flush can hand
    back (see :meth:`Network._refuse_undeclared_state`).
    """

    def __init__(self, network):
        from .channels import LocalChannel  # local import: cycle

        self.network = network
        self.arrays = graph_arrays(network)
        #: LOCAL channels price payloads at 0 bits and skip bit accounting.
        #: The check sees through fault wrappers to the base medium.
        self.priced = not isinstance(network.channel.unwrapped(), LocalChannel)
        #: Channel-fault state (per-round keep masks over CSR edge slots),
        #: or None for a clean channel. Every kernel must route its
        #: deliveries through :meth:`fault_keep` when this is set;
        #: ``tests/test_faults_matrix.py`` fails for one that does not.
        self.faults = network.channel.vector_faults(self.arrays)
        #: Per-sender price of a one-bit payload (None when unpriced).
        self.one_bit = (
            np.ones(self.arrays.n, dtype=np.int64) if self.priced else None
        )
        #: The network's schema-declared state columns (see
        #: ``repro.congest.state``). Never None here: the engine never
        #: vectorizes a network without columns, so kernels
        #: load/flush them with whole-array copies.
        self.state_columns = network.state_columns
        self.loaded = False
        self._pending_energy = np.zeros(self.arrays.n, dtype=np.int64)
        self.draws = network.streams  # kernels draw via draws.take(ranks)
        # Observation plumbing, resolved once (mirrors Network.__init__):
        # None when the network is unobserved, so every per-round check in
        # the dense loop is a single ``is not None``.
        self._instrument = network.instrument if network._observed else None
        self._profiler = network._profiler
        self._last_alive = 0
        #: Lazily-built (always_on, halted) rank masks for the batched
        #: awake-set assembly; valid for one engagement only (scalar
        #: rounds in between may change either), so :meth:`flush` drops
        #: them.
        self._sched_masks = None
        _VECTOR_STATS["networks"] += 1

    # -- subclass API ---------------------------------------------------
    @abc.abstractmethod
    def load(self) -> None: ...

    @abc.abstractmethod
    def step_round(self) -> None: ...

    @abc.abstractmethod
    def flush_state(self) -> None: ...

    # -- engine protocol ------------------------------------------------
    def step(self) -> None:
        """Advance the network exactly one synchronous round."""
        if not self.loaded:
            self.network._refuse_undeclared_state()
            self.load()
            self.loaded = True
        network = self.network
        network.round_index += 1
        network.vector_rounds += 1
        _VECTOR_STATS["rounds"] += 1
        prof = self._profiler
        if prof is not None:
            prof.begin("vector_round")
        self.step_round()
        if prof is not None:
            prof.end()
        if self._instrument is not None:
            self._instrument.on_round(
                network, network.round_index, self._last_alive
            )

    def flush(self) -> None:
        """Write accumulated state back; safe to call when not loaded."""
        if not self.loaded:
            return
        pending = self._pending_energy
        charged = np.nonzero(pending)[0]
        if charged.size:
            # Group by amount: an engagement produces only a handful of
            # distinct awake totals, so a few charge_many passes beat one
            # charge call per node.
            network = self.network
            amounts = pending[charged]
            for value in np.unique(amounts):
                network.ledger.charge_many(
                    network._labels_of(charged[amounts == value]),
                    int(value),
                )
            pending[:] = 0
        self.flush_state()
        self._sched_masks = None
        self.loaded = False

    # -- shared helpers -------------------------------------------------
    def pop_scheduled_awake(self) -> np.ndarray:
        """This round's awake set as a rank mask, consuming the calendar.

        Matches the scalar :meth:`Network.step` assembly: the current
        round's calendar entry is popped, the always-on set is unioned in
        and halted nodes are filtered out.  The filter runs over two rank
        masks built once per engagement (halts during the engagement only
        arrive through :meth:`halt_ranks`, which updates the halted mask
        in place).  The calendar is round-keyed only, so popping the
        entry is all the bookkeeping a round needs; halted nodes still in
        the entry are what the halted mask filters out.
        """
        network = self.network
        arrays = self.arrays
        masks = self._sched_masks
        if masks is None:
            masks = self._sched_masks = self._build_sched_masks()
        always_on, halted = masks
        awake = np.zeros(arrays.n, dtype=bool)
        scheduled = network._wake_calendar.pop(network.round_index, None)
        if scheduled:
            if arrays.identity_ranks:
                ranks = np.fromiter(
                    scheduled, dtype=np.int64, count=len(scheduled)
                )
            else:
                rank = arrays.rank
                ranks = np.fromiter(
                    (rank[node] for node in scheduled),
                    dtype=np.int64,
                    count=len(scheduled),
                )
            awake[ranks] = True
        awake |= always_on
        awake &= ~halted
        return awake

    def _build_sched_masks(self):
        """Snapshot (always_on, halted) as rank masks."""
        network = self.network
        arrays = self.arrays
        return arrays.rank_mask(network._always_on), arrays.rank_mask(
            network._halted
        )

    def fault_keep(self) -> Optional[np.ndarray]:
        """This round's per-slot delivery mask, or None when nothing drops."""
        faults = self.faults
        if faults is None:
            return None
        return faults.round_keep(self.network.round_index)

    def charge_awake(self, alive: np.ndarray) -> None:
        """Bill one awake round per live node (flushed to the ledger later;
        the ledger is only read after :meth:`flush`, so totals agree)."""
        self._pending_energy += alive
        if self._instrument is not None:
            # The awake count :meth:`step` reports; matches the scalar
            # engines' ``len(awake)`` because alive == awake in the dense
            # always-on regime.
            self._last_alive = int(np.count_nonzero(alive))

    def halt_ranks(self, ranks: np.ndarray) -> None:
        """Halt nodes through the network's bulk-halt pass (the effect
        per node is exactly ``Context.halt``)."""
        self.network._halt_many(self.network._labels_of(ranks))
        masks = self._sched_masks
        if masks is not None:
            masks[1][ranks] = True

    def record_trace(self, alive: np.ndarray, sent: int, delivered: int,
                     dropped: int) -> None:
        trace = self.network.trace
        if trace is not None:
            nodes = self.arrays.nodes
            awake = {nodes[i] for i in np.nonzero(alive)[0]}
            trace.record(
                self.network.round_index, awake, sent, delivered, dropped
            )

    def broadcast_wave(self, senders: np.ndarray, awake: np.ndarray,
                       keep: Optional[np.ndarray]) -> np.ndarray:
        """Account one one-bit broadcast wave; return per-receiver heard
        counts (surviving copies only when a fault mask is active — one CSR
        pass serves both the heard-test and the delivery count)."""
        if keep is None:
            heard_counts = self.arrays.neighbor_count(senders)
            self.count_broadcasts(
                senders, awake, self.one_bit, sender_counts=heard_counts
            )
        else:
            heard_counts = self.arrays.masked_neighbor_count(senders, keep)
            self.count_broadcasts(senders, awake, self.one_bit, keep=keep)
        return heard_counts

    def count_broadcasts(self, senders: np.ndarray, alive: np.ndarray,
                         bits_per_copy: Optional[np.ndarray],
                         alive_neighbors: Optional[np.ndarray] = None,
                         keep: Optional[np.ndarray] = None,
                         sender_counts: Optional[np.ndarray] = None) -> None:
        """Account a whole-neighborhood broadcast wave on the network.

        ``senders``/``alive`` are boolean rank masks; every sender ships one
        copy per *graph* neighbor, delivered iff the receiver is alive this
        round (always-on semantics: awake == alive, and no one halts before
        the delivery phase).  ``bits_per_copy`` is the per-sender payload
        price (None on unpriced channels); matches the batched CONGEST
        channel's accounting bit for bit.  ``alive_neighbors`` lets callers
        that already computed this round's live-neighbor counts skip the
        second CSR pass.  ``keep`` is this round's channel-fault slot mask:
        copies whose slot is masked out were sent (and priced) but never
        received, so they move from the delivered to the dropped counter.
        ``sender_counts`` is the receiver-side reduction
        ``neighbor_count(senders)`` — kernels that already computed it for
        their own "heard anything?" test can pass it in and the delivered
        total falls out of the undirected-edge symmetry
        ``sum_{s in senders} |N(s) ∩ alive| = sum_{v in alive} |N(v) ∩
        senders|`` with no CSR pass at all.
        """
        network = self.network
        arrays = self.arrays
        sender_idx = np.nonzero(senders & (arrays.degrees > 0))[0]
        if not sender_idx.size:
            self.record_trace(alive, 0, 0, 0)
            return
        sent = int(arrays.degrees[sender_idx].sum())
        if keep is not None:
            delivered = int(
                arrays.delivery_counts(senders, alive, keep)[sender_idx].sum()
            )
        elif sender_counts is not None:
            delivered = int(sender_counts[alive].sum())
        else:
            if alive_neighbors is None:
                alive_neighbors = arrays.neighbor_count(alive)
            delivered = int(alive_neighbors[sender_idx].sum())
        dropped = sent - delivered
        bits = None
        if self.priced and bits_per_copy is not None:
            bits = bits_per_copy[sender_idx]
            peak = int(bits.max())
            budget = network.bit_budget
            if peak > budget:
                # Raise *before* touching any counter, like the scalar
                # engines (which reject the payload at send time, before
                # the delivery phase counts anything).
                from .errors import MessageTooLargeError

                offender = int(sender_idx[bits > budget][0])
                node = arrays.nodes[offender]
                neighbor = arrays.nodes[
                    int(arrays.indices[arrays.indptr[offender]])
                ]
                raise MessageTooLargeError(node, neighbor, peak, budget)
        network.messages_sent += sent
        network.messages_delivered += delivered
        network.messages_dropped += dropped
        if bits is not None:
            network.total_message_bits += int(
                (bits * arrays.degrees[sender_idx]).sum()
            )
            peak = int(bits.max())
            if peak > network.max_message_bits:
                network.max_message_bits = peak
        self.record_trace(alive, sent, delivered, dropped)


def int_bit_length(values: np.ndarray) -> np.ndarray:
    """Vectorized ``int.bit_length`` for non-negative int64 values.

    ``frexp`` exponents equal the bit length exactly for every value
    representable in float64 without rounding (all degrees are far below
    2**53); 0 maps to 0, as ``(0).bit_length()`` does.
    """
    return np.frexp(values.astype(np.float64))[1].astype(np.int64)
