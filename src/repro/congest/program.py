"""Node-program API for the CONGEST-with-sleeping engine.

A distributed algorithm is written as a :class:`NodeProgram` subclass.
Every node of a network runs the same program, built from one
zero-argument factory (the class, or a ``functools.partial`` of it);
instances and contexts are only built for the nodes scalar code touches
(see :class:`~repro.congest.network.Network`).
Programs see only local information: their identifier, their neighbors'
identifiers, a polynomial bound ``n`` on the network size (standard in
the model), a private random stream (``ctx.rng``), and the messages
delivered to them while awake.

Sleeping semantics (Section 1.1 of the paper):

* A sleeping node performs no computation and neither sends nor receives.
  Messages addressed to it are *dropped*.
* A node cannot be woken by another node; it wakes only at rounds it
  scheduled for itself (or it is in the default always-awake mode).

Lifecycle::

    start_population(network, ranks)  # once, before round 0; default:
                                       # on_start(ctx) per node
    per node, while not halted:
        if awake this round:
            on_round(ctx)              # send messages for this round
            on_receive(ctx, msgs)      # messages delivered this round

The start is deliberately free of charge: the paper lets nodes do local
sampling and schedule computation "before the algorithm even starts"
(Section 2.1), which costs no awake rounds. Programs whose start is that
kind of sampling override ``start_population`` and start the whole
population in array passes instead of one ``on_start`` call per node.
"""

from __future__ import annotations

from collections.abc import MutableMapping
from typing import Any, Dict, Iterable, List, Optional, Tuple

import numpy as np

from .errors import SchedulingError
from .message import Message
from .state import StateField, install_descriptors
from .streams import NodeRandom

# Marker for "no whole-neighborhood broadcast pending this round".  Channels
# store a pending ``ctx.broadcast(payload)`` as a single marker assignment
# (``ctx._bcast = payload``) instead of one outbox tuple per neighbor, which
# is what makes batched broadcast delivery allocation-free on the send side.
NO_BROADCAST = object()


class OutputRow(MutableMapping):
    """One node's row of a network's output table: ``ctx.output``.

    The network keeps outputs per key (``key -> {node: value}``, see
    :meth:`Network.outputs <repro.congest.network.Network.outputs>`), so
    whole-population writes and reads are one dict operation per key;
    this view lets scalar hooks keep writing ``ctx.output[key] = value``.
    """

    __slots__ = ("_table", "_node")

    def __init__(self, table: Dict[str, Dict[Any, Any]], node: Any):
        self._table = table
        self._node = node

    def __getitem__(self, key: str) -> Any:
        return self._table[key][self._node]

    def get(self, key: str, default: Any = None) -> Any:
        column = self._table.get(key)
        return default if column is None else column.get(self._node, default)

    def __setitem__(self, key: str, value: Any) -> None:
        column = self._table.get(key)
        if column is None:
            column = self._table[key] = {}
        column[self._node] = value

    def __delitem__(self, key: str) -> None:
        del self._table[key][self._node]

    def __iter__(self):
        node = self._node
        return (key for key, column in self._table.items() if node in column)

    def __len__(self) -> int:
        return sum(1 for _ in self)

    def __repr__(self) -> str:
        return repr(dict(self))


class Context:
    """Per-node view of the network, handed to every program callback.

    A network builds one ``Context`` per node, on first use, and hands
    that same object to every callback of the node for the network's
    lifetime (``network.contexts``); no context is ever recycled.
    """

    __slots__ = (
        "_network",
        "node",
        "_neighbors",
        "_nbset",
        "n",
        "_rank",
        "_rng",
        "output",
        "_outbox",
        "_sent_to",
        "_bcast",
    )

    def __init__(self, network: Any, node: int, rank: int, n: int):
        self._network = network
        self.node = node
        # Neighbor tuples are materialized lazily: a network of 10^6 nodes
        # running the vectorized engine never touches most of them, and
        # eagerly building one python tuple + frozenset per node is an
        # O(m) memory bill the CSR adjacency already paid once.
        self._neighbors: Optional[Tuple[int, ...]] = None
        self._nbset: Optional[frozenset] = None
        self.n = n
        self._rank = rank
        self._rng: Optional[NodeRandom] = None
        self.output = OutputRow(network._output_table, node)
        self._outbox: List[Tuple[int, Any]] = []
        self._sent_to: set = set()
        self._bcast: Any = NO_BROADCAST

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def neighbors(self) -> Tuple[int, ...]:
        """This node's neighbor ids, ascending (materialized on first use)."""
        neighbors = self._neighbors
        if neighbors is None:
            neighbors = self._network._neighbors_of(self.node)
            self._neighbors = neighbors
        return neighbors

    @property
    def _neighbor_set(self) -> frozenset:
        nbset = self._nbset
        if nbset is None:
            nbset = frozenset(self.neighbors)
            self._nbset = nbset
        return nbset

    @property
    def rng(self) -> NodeRandom:
        """This node's private random stream (built on first use)."""
        rng = self._rng
        if rng is None:
            rng = self._rng = NodeRandom(self._network.streams, self._rank)
        return rng

    @property
    def degree(self) -> int:
        neighbors = self._neighbors
        if neighbors is not None:
            return len(neighbors)
        return self._network._degree_of(self.node)

    @property
    def round(self) -> int:
        """Current round index (-1 during ``on_start``)."""
        return self._network.round_index

    @property
    def halted(self) -> bool:
        return self.node in self._network._halted

    # ------------------------------------------------------------------
    # Communication
    # ------------------------------------------------------------------
    def send(self, neighbor: int, payload: Any = None) -> None:
        """Send one message to ``neighbor`` this round.

        Validation and pricing are the channel's business: the default
        :class:`~repro.congest.channels.CongestChannel` enforces the model's
        one-message-per-edge rule and the ``B``-bit budget; a
        :class:`~repro.congest.channels.LocalChannel` skips the bit
        accounting; a :class:`~repro.congest.channels.BroadcastChannel`
        rejects point-to-point sends outright (radio is a shared medium).
        """
        self._network.channel.on_send(self, neighbor, payload)

    def broadcast(self, payload: Any = None) -> None:
        """Send the same payload to every neighbor this round.

        On a radio channel this is the *transmit* primitive (one shared
        transmission, not per-neighbor messages).
        """
        self._network.channel.on_broadcast(self, payload)

    # ------------------------------------------------------------------
    # Sleep scheduling
    # ------------------------------------------------------------------
    def use_wake_schedule(self, rounds: Iterable[int]) -> None:
        """Switch to scheduled sleeping: awake only at the given rounds.

        May be called in ``on_start`` (typical: Lemma 2.5 schedules) or while
        awake, to extend the schedule with *future* rounds.
        """
        self._network._set_always_awake(self.node, False)
        current = self.round
        for wake_round in rounds:
            if wake_round <= current:
                raise SchedulingError(
                    f"node {self.node} tried to schedule round {wake_round} "
                    f"in the past (current round {current})"
                )
            self._network._schedule_wake(self.node, wake_round)

    def wake_at(self, wake_round: int) -> None:
        self.use_wake_schedule((wake_round,))

    def stay_awake(self) -> None:
        """Return to the default mode: awake every round until halting."""
        if self.node not in self._network._halted:
            self._network._set_always_awake(self.node, True)

    def halt(self) -> None:
        """Terminate this node: it sleeps forever and charges no more energy.

        Its still-scheduled wake rounds stay in the calendar; the engine
        drops halted nodes from an entry when it next looks at it.
        """
        self._network._halt_many((self.node,))

    # ------------------------------------------------------------------
    # Engine plumbing
    # ------------------------------------------------------------------
    def _drain(self) -> Tuple[List[Tuple[int, Any]], Any]:
        """Take this round's pending traffic: ``(outbox, broadcast)``.

        The two are mutually exclusive by construction: a broadcast marker
        is only set when the outbox is empty, and any later ``send`` raises
        before queueing. A node only has sent-to bookkeeping if it queued
        messages, so an empty outbox needs no reset at all (the hot case
        for silent awake rounds).
        """
        outbox = self._outbox
        if outbox:
            self._outbox = []
            self._sent_to.clear()
        bcast = self._bcast
        if bcast is not NO_BROADCAST:
            self._bcast = NO_BROADCAST
        return outbox, bcast


def set_outputs(network: Any, ranks: np.ndarray, **columns) -> None:
    """Set ``ctx.output[key] = value`` for the nodes at ``ranks``, one
    keyword per output key: a numpy array or list parallel to ``ranks``,
    or any other value, which every node at ``ranks`` gets. Writes go
    straight into the network's output table, one dict update per key."""
    labels = network._labels_of(ranks)
    table = network._output_table
    for name, values in columns.items():
        column = table.get(name)
        if column is None:
            column = table[name] = {}
        if isinstance(values, np.ndarray):
            values = values.tolist()
        if isinstance(values, list):
            column.update(zip(labels, values))
        else:
            column.update(dict.fromkeys(labels, values))


class NodeProgram:
    """Base class for distributed node programs.

    Subclasses override any of the three callbacks. State should live on the
    program instance (``self``); the engine never shares instances between
    nodes.

    Per-node state a subclass declares via :meth:`state_schema` is owned by
    the network as flat typed columns (see :mod:`repro.congest.state`):
    attribute access in the program body transparently proxies into the
    node's column row, and vector kernels read/write the columns wholesale
    instead of looping over instances. Undeclared attributes keep living in
    the instance ``__dict__`` as before.

    A program factory (``Network(graph, Class)``) must build identical
    instances on every call: the network fills the columns from one
    template instance and builds a node's own instance only when scalar
    code first asks for it, so an instance that was never built is
    exactly a fresh one with its column row. Per-node values (samples,
    schedules) belong in state columns, written by the start hook.
    """

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        # A schema-less class declares (), so this is a no-op for it.
        install_descriptors(cls)

    @classmethod
    def state_schema(cls) -> Tuple[StateField, ...]:
        """Typed per-node state columns this program wants the network to
        own (``()`` = keep everything in the instance ``__dict__``)."""
        return ()

    #: Vectorized-round capability hook. A program class whose dense
    #: rounds can be executed whole-network at a time overrides this with a
    #: factory ``(network) -> repro.congest.vectorized.VectorRound``
    #: (typically a classmethod building the kernel from the network's
    #: template program). ``None`` here means the engine always uses the
    #: scalar per-node loops. Every kernel must honour the
    #: channel's fault masks (``VectorRound.faults``), and a kernel whose
    #: program schedules wakes must assemble each round's active set from
    #: the calendar via :meth:`VectorRound.pop_scheduled_awake` — that is
    #: how sleep-scheduled phases like the paper's Phase I run dense.
    #: Providing a kernel is a promise of *bit-identical* semantics — outputs,
    #: metrics, ledger, traces, and per-node draw counters — which
    #: ``tests/test_engine_equivalence.py`` enforces for every registered
    #: algorithm.
    vector_round = None

    @classmethod
    def start_population(cls, network: Any, ranks: np.ndarray) -> None:
        """Start the nodes at ``ranks`` (ascending; the network passes
        every rank) before round 0.

        The default runs :meth:`on_start` node by node and rejects a node
        that sent, so it builds every node's program and context. A class
        with a vectorized kernel overrides it with array writes: run
        parameters come from ``network._template``, outputs go through
        :func:`set_outputs`, and state into
        ``network.state_columns[name][ranks]``, so a population that runs
        vectorized builds no program. A class
        whose start is local sampling plus a wake
        schedule overrides this to draw the population's samples with
        :meth:`NodeStreams.take <repro.congest.streams.NodeStreams.take>`
        and lay the calendar down with ``Network._schedule_population``;
        the override must leave the draw counters, calendar, outputs
        and state exactly as the per-node hooks would.
        """
        order = network._node_order
        # ``ranks`` are distinct: as many ranks as nodes is every node.
        nodes = (
            order if ranks.size == len(order)
            else [order[rank] for rank in ranks.tolist()]
        )
        programs = network.programs
        contexts = network.contexts
        for node in nodes:
            ctx = contexts[node]
            programs[node].on_start(ctx)
            if ctx._outbox or ctx._bcast is not NO_BROADCAST:
                raise SchedulingError(
                    f"node {node} tried to send during on_start"
                )

    def on_start(self, ctx: Context) -> None:
        """Free local precomputation before round 0 (no sending allowed)."""

    def on_round(self, ctx: Context) -> None:
        """Called at every awake round; use ``ctx.send``/``ctx.broadcast``."""

    def on_receive(self, ctx: Context, messages: List[Message]) -> None:
        """Called after delivery at every awake round (possibly no messages)."""
