"""Pluggable channel layer: how queued payloads become delivered messages.

A :class:`Channel` owns the three communication concerns the engine used to
hard-wire into ``Network.step``:

* **validation** — what a node may send (``on_send`` / ``on_broadcast``);
* **pricing** — what a payload costs in bits (``price``), if anything;
* **delivery** — which queued payloads reach which awake nodes
  (``deliver``), and what that does to the message/energy accounting.

Three models ship with the engine, one delivery loop each:

``CongestChannel`` (the default)
    The paper's synchronous CONGEST semantics: one ``B = O(log n)``-bit
    message per edge per round, messages to sleeping nodes dropped. A
    round is routed through flat per-edge buffers — one preallocated slot
    per directed edge, payload written by slot index, inboxes materialized
    lazily as views over the slot block of each receiver — instead of
    allocating a :class:`~repro.congest.message.Message` object per
    delivery.

``LocalChannel``
    Unbounded bandwidth (the LOCAL model): CONGEST's delivery loop with a
    zero ``price``, so no bit budget binds and ``total_message_bits``
    stays 0.

``BroadcastChannel``
    A single shared radio medium per neighborhood, half-duplex, with
    collision detection: a round's transmission (``ctx.broadcast``) reaches
    every awake listening neighbor *only if* it is the sole transmission in
    that neighborhood; two or more transmitting neighbors collide and the
    listener hears only noise (a :data:`COLLISION` message when collision
    detection is on, silence otherwise). Each collision a listener suffers
    is billed to the energy ledger (a wasted listening slot), which is the
    accounting radio-network MIS papers charge. A transmitter never pays a
    collision charge on top of its transmit slot — half-duplex means it
    cannot waste a listening slot. The listener scan is one per-round
    numpy bincount over transmitter edges.

Reference implementations — per-``Message`` CONGEST/LOCAL delivery and a
per-listener radio scan — are test oracles (``tests/oracles.py``); the
equivalence suites pin the shipped loops to them bit for bit.

Channels are selected per :class:`~repro.congest.network.Network` via
``Network(..., channel=...)`` — a name from :data:`CHANNELS`, an instance,
or a zero-argument factory. ``run_algorithm(channel=...)`` puts one choice
into the run's :class:`~repro.congest.network.RunOptions`, and the driver
hands it to every network a multi-phase algorithm builds.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Set, Tuple, Union

from .errors import (
    ChannelError,
    DuplicateMessageError,
    MessageTooLargeError,
    NotANeighborError,
)
from .message import Message, payload_bits_cached
from .program import NO_BROADCAST, Context


class _CollisionSignal:
    """Singleton payload a collision-detecting radio hears instead of data."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "COLLISION"


COLLISION = _CollisionSignal()

#: The message a listener receives when ≥2 neighbors transmit at once and
#: collision detection is enabled. ``sender`` is -1: no single node is the
#: sender of noise.
COLLISION_MESSAGE = Message(sender=-1, payload=COLLISION)


class Channel:
    """Interface between node programs and the network's delivery fabric.

    A channel instance binds to one :class:`Network` at a time via
    :meth:`bind` (which must reset all per-network state, so the same
    instance may be reused across the sequential networks of a multi-phase
    algorithm). The engine calls :meth:`deliver` once per round between the
    send phase and the receive phase, and :meth:`finish_round` after the
    receive phase has consumed the inboxes.
    """

    #: Registry name; subclasses override.
    name = "abstract"

    def __init__(self) -> None:
        self._network = None

    # -- lifecycle ------------------------------------------------------
    def bind(self, network) -> None:
        """Attach to ``network``, resetting any per-network state."""
        self._network = network

    # -- send-side hooks (called from Context) --------------------------
    def price(self, payload: Any) -> int:
        """Bits this payload costs on this channel (0 = unaccounted)."""
        raise NotImplementedError

    def on_send(self, ctx: Context, neighbor: int, payload: Any) -> None:
        """Validate and queue one point-to-point send."""
        raise NotImplementedError

    def on_broadcast(self, ctx: Context, payload: Any) -> None:
        """Validate and queue one whole-neighborhood broadcast."""
        raise NotImplementedError

    # -- round delivery -------------------------------------------------
    def deliver(self, ordered: List[int], awake: Set[int]) -> Dict[int, Any]:
        """Drain every awake node's queue; return ``{receiver: inbox}``.

        The returned inboxes must be sequences of
        :class:`~repro.congest.message.Message`-compatible objects ordered
        by ascending sender id (the engine drains senders in sorted order
        and each sender can reach a given receiver at most once per round).
        Implementations update the bound network's message counters.
        """
        raise NotImplementedError

    def finish_round(self) -> None:
        """Reclaim round-scoped delivery state (after ``on_receive``)."""

    # -- wrapper introspection ------------------------------------------
    def unwrapped(self) -> "Channel":
        """The base medium beneath any fault/decorator wrappers.

        Plain channels are their own base; wrappers (see
        :mod:`repro.faults.channels`) delegate through their inner channel
        so radio-safety checks and engine-capability tests see the real
        delivery semantics regardless of fault layers.
        """
        return self

    def vector_obstacle(self) -> Optional[str]:
        """Why the vectorized engine cannot model this channel, or None.

        The dense-round kernels implement point-to-point delivery only, so
        every channel but CONGEST/LOCAL declines; wrappers answer for
        their whole stack.
        """
        return (
            f"channel {self.name!r} has no vectorized point-to-point delivery"
        )

    def vector_faults(self, arrays):
        """Per-round edge-drop state for the vectorized engine, or ``None``.

        Fault wrappers answer with an object exposing
        ``round_keep(round_index) -> Optional[bool ndarray]`` over the CSR
        edge slots of ``arrays``; plain channels have no faults.
        """
        return None


class _InboxView:
    """One receiver's inbox, lazily materialized from flat slot buffers.

    Until a program actually reads the messages, the view is just three
    integers — so a program that only needs ``len(messages)`` or
    ``if messages:`` never allocates a single ``Message``. Iteration and
    indexing materialize (and cache) the list.

    Views are only valid within the round that produced them: the backing
    buffers are recycled by ``finish_round``. Programs that stash messages
    across rounds must copy (``list(messages)``) — which materializes, so
    the copy stays valid. A first read *after* the round raises instead of
    silently returning recycled buffer contents (each view carries the
    round serial it was minted in).
    """

    __slots__ = ("_channel", "_start", "_end", "_count", "_messages",
                 "_serial")

    def __init__(self, channel: "CongestChannel", start: int, end: int,
                 count: int):
        self._channel = channel
        self._start = start
        self._end = end
        self._count = count
        self._serial = channel._round_serial
        self._messages: Optional[List[Message]] = None

    def _materialize(self) -> List[Message]:
        messages = self._messages
        if messages is None:
            channel = self._channel
            if channel._round_serial != self._serial:
                raise ChannelError(
                    "inbox view read after its round ended; the backing "
                    "delivery buffers have been recycled — copy the "
                    "messages (list(messages)) within on_receive if you "
                    "need them later"
                )
            payloads = channel._payloads
            senders = channel._slot_senders
            start, end = self._start, self._end
            if self._count == end - start:
                # Dense inbox (every neighbor sent — the broadcast-storm
                # case): no occupancy checks needed.
                messages = [
                    Message(senders[slot], payloads[slot])
                    for slot in range(start, end)
                ]
            else:
                occupied = channel._occupied
                messages = [
                    Message(senders[slot], payloads[slot])
                    for slot in range(start, end)
                    if occupied[slot]
                ]
            self._messages = messages
        return messages

    def __len__(self) -> int:
        return self._count

    def __bool__(self) -> bool:
        return self._count > 0

    def __iter__(self):
        return iter(self._materialize())

    def __getitem__(self, index):
        return self._materialize()[index]

    def __eq__(self, other) -> bool:
        if isinstance(other, _InboxView):
            other = other._materialize()
        return self._materialize() == other

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"InboxView({self._materialize()!r})"


class CongestChannel(Channel):
    """Point-to-point CONGEST delivery with the ``B``-bit budget, routed
    through flat per-edge slot buffers."""

    name = "congest"

    def __init__(self):
        super().__init__()
        # Monotonic across the channel's whole lifetime, *never* reset by
        # bind(): an _InboxView minted against one network must not read
        # the recycled buffers of a later network the same channel
        # instance is re-bound to (multi-phase drivers reuse instances).
        self._round_serial = 0

    # -- lifecycle ------------------------------------------------------
    def bind(self, network) -> None:
        self._network = network
        self._round_serial += 1
        # The per-directed-edge slot structures are O(m) python objects —
        # built lazily at the first scalar delivery instead of here, so
        # a run that stays on the vectorized dense-round path (which never
        # routes a scalar delivery) never pays for them at all. That is
        # the difference between "loads in seconds" and "loads in gigabytes"
        # at n = 10^6.
        self._slots_ready = False

    def _build_slots(self) -> None:
        # One slot per directed edge, grouped contiguously by receiver and
        # ordered by sender within each block — so a receiver's inbox is a
        # slice of the flat arrays, already in sorted-sender order. The
        # sender of each slot never changes, so it is stored once here and
        # never written on the hot path.
        network = self._network
        graph = network.graph
        block: Dict[int, Tuple[int, int]] = {}
        slot_senders: List[int] = []
        out_slots: Dict[int, Dict[int, int]] = {node: {} for node in
                                                graph.nodes}
        cursor = 0
        for receiver in network._node_order:
            start = cursor
            for sender in network._neighbors_of(receiver):
                out_slots[sender][receiver] = cursor
                slot_senders.append(sender)
                cursor += 1
            block[receiver] = (start, cursor)
        self._block = block
        self._slot_senders = slot_senders
        self._out_slots = out_slots
        # Per-sender broadcast plan: (receiver, slot) pairs in neighbor
        # order, so a whole-neighborhood broadcast is one tight loop with
        # no per-message dict lookups.
        self._out_pairs: Dict[int, List[Tuple[int, int]]] = {
            sender: sorted(
                ((receiver, slot) for receiver, slot in slots.items()),
            )
            for sender, slots in out_slots.items()
        }
        self._payloads: List[Any] = [None] * cursor
        self._occupied = bytearray(cursor)
        self._dirty: List[int] = []
        self._slots_ready = True

    # -- send side ------------------------------------------------------
    #: A plain function, not a method wrapping one: :meth:`deliver` hoists
    #: ``self.price`` and calls it per distinct payload.
    price = staticmethod(payload_bits_cached)

    def on_send(self, ctx: Context, neighbor: int, payload: Any) -> None:
        if neighbor not in ctx._neighbor_set:
            raise NotANeighborError(ctx.node, neighbor)
        if ctx._bcast is not NO_BROADCAST or neighbor in ctx._sent_to:
            raise DuplicateMessageError(ctx.node, neighbor, ctx.round)
        bits = self.price(payload)
        if bits > self._network.bit_budget:
            raise MessageTooLargeError(
                ctx.node, neighbor, bits, self._network.bit_budget
            )
        ctx._sent_to.add(neighbor)
        ctx._outbox.append((neighbor, payload))

    def on_broadcast(self, ctx: Context, payload: Any) -> None:
        if not ctx.neighbors:
            return
        if ctx._outbox or ctx._bcast is not NO_BROADCAST:
            # Mixed with earlier sends: fall back to the per-neighbor path,
            # which raises the exact errors the seed semantics raised.
            for neighbor in ctx.neighbors:
                self.on_send(ctx, neighbor, payload)
            return
        bits = self.price(payload)
        if bits > self._network.bit_budget:
            raise MessageTooLargeError(
                ctx.node, ctx.neighbors[0], bits, self._network.bit_budget
            )
        ctx._bcast = payload

    def vector_obstacle(self) -> Optional[str]:
        return None

    # -- delivery -------------------------------------------------------
    def deliver(self, ordered: List[int], awake: Set[int]) -> Dict[int, Any]:
        if not self._slots_ready:
            self._build_slots()
        network = self._network
        contexts = network.contexts
        halted = network._halted
        payloads_flat = self._payloads
        occupied = self._occupied
        dirty = self._dirty
        out_pairs = self._out_pairs
        out_slots = self._out_slots
        price = self.price
        counts: Dict[int, int] = {}
        sent = delivered = dropped = 0
        bits_total = 0
        max_bits = network.max_message_bits
        missing = object()
        for node in ordered:
            ctx = contexts[node]
            outbox, bcast = ctx._drain()
            if bcast is not NO_BROADCAST:
                pairs = out_pairs[node]
                sent += len(pairs)
                bits = price(bcast)
                bits_total += bits * len(pairs)
                if bits > max_bits:
                    max_bits = bits
                for receiver, slot in pairs:
                    if receiver in awake and receiver not in halted:
                        payloads_flat[slot] = bcast
                        occupied[slot] = 1
                        dirty.append(slot)
                        counts[receiver] = counts.get(receiver, 0) + 1
                        delivered += 1
                    else:
                        dropped += 1
            elif outbox:
                slots = out_slots[node]
                last_payload = missing
                bits = 0
                for receiver, payload in outbox:
                    sent += 1
                    if payload is not last_payload:
                        bits = price(payload)
                        last_payload = payload
                    bits_total += bits
                    if bits > max_bits:
                        max_bits = bits
                    if receiver in awake and receiver not in halted:
                        slot = slots[receiver]
                        payloads_flat[slot] = payload
                        occupied[slot] = 1
                        dirty.append(slot)
                        counts[receiver] = counts.get(receiver, 0) + 1
                        delivered += 1
                    else:
                        dropped += 1
        network.messages_sent += sent
        network.messages_delivered += delivered
        network.messages_dropped += dropped
        network.total_message_bits += bits_total
        network.max_message_bits = max_bits
        block = self._block
        inboxes: Dict[int, Any] = {}
        for receiver, count in counts.items():
            start, end = block[receiver]
            inboxes[receiver] = _InboxView(self, start, end, count)
        return inboxes

    def finish_round(self) -> None:
        self._round_serial += 1
        if not self._slots_ready:
            return
        dirty = self._dirty
        if dirty:
            occupied = self._occupied
            payloads = self._payloads
            for slot in dirty:
                occupied[slot] = 0
                payloads[slot] = None
            dirty.clear()


class LocalChannel(CongestChannel):
    """Unbounded-bandwidth point-to-point delivery (the LOCAL model).

    Same topology, sleeping semantics and delivery loop as CONGEST, but
    payloads are free: with a zero ``price`` the bit budget never binds
    and ``total_message_bits`` stays 0, while the one-message-per-edge
    rule still holds.
    """

    name = "local"

    @staticmethod
    def price(payload: Any) -> int:
        return 0


class BroadcastChannel(Channel):
    """A shared radio medium per neighborhood, half-duplex, with collisions.

    Semantics per round:

    * a node transmits by calling ``ctx.broadcast(payload)``; point-to-point
      ``ctx.send`` raises :class:`ChannelError` (radio has no addressing),
      as does a second transmission in the same round;
    * a transmitting node hears nothing this round (half-duplex);
    * an awake listening node with exactly one transmitting neighbor
      receives that payload; with two or more, the transmissions *collide*:
      the listener receives :data:`COLLISION_MESSAGE` if
      ``collision_detection`` is on (it can tell noise from silence) and
      nothing otherwise, and is billed ``collision_cost`` extra energy
      units for the wasted listening slot;
    * sleeping and halted nodes hear nothing, as in every channel.

    ``messages_sent`` counts transmissions (one per transmitter per round,
    regardless of neighborhood size); ``messages_delivered`` counts clean
    receptions; ``messages_dropped`` counts receptions lost to collisions.
    The CONGEST bit budget still applies to transmitted payloads.
    """

    name = "broadcast"

    def __init__(self, collision_detection: bool = True,
                 collision_cost: int = 1):
        super().__init__()
        self.collision_detection = collision_detection
        self.collision_cost = collision_cost

    def price(self, payload: Any) -> int:
        return payload_bits_cached(payload)

    def on_send(self, ctx: Context, neighbor: int, payload: Any) -> None:
        raise ChannelError(
            f"node {ctx.node}: the broadcast channel is a shared medium "
            f"with no addressing; use ctx.broadcast(payload) to transmit"
        )

    def on_broadcast(self, ctx: Context, payload: Any) -> None:
        if ctx._bcast is not NO_BROADCAST:
            raise ChannelError(
                f"node {ctx.node} already transmitted in round {ctx.round}"
            )
        bits = self.price(payload)
        if bits > self._network.bit_budget:
            raise MessageTooLargeError(
                ctx.node, ctx.node, bits, self._network.bit_budget
            )
        ctx._bcast = payload

    def deliver(self, ordered: List[int], awake: Set[int]) -> Dict[int, Any]:
        network = self._network
        contexts = network.contexts
        transmitters: Dict[int, Any] = {}
        max_bits = network.max_message_bits
        for node in ordered:
            _, bcast = contexts[node]._drain()
            if bcast is not NO_BROADCAST:
                transmitters[node] = bcast
                network.messages_sent += 1
                bits = payload_bits_cached(bcast)
                network.total_message_bits += bits
                if bits > max_bits:
                    max_bits = bits
        network.max_message_bits = max_bits
        if not transmitters:
            return {}
        return self._listen(transmitters, awake)

    def _listen(self, transmitters: Dict[int, Any],
                awake: Set[int]) -> Dict[int, List[Message]]:
        """One bincount over transmitter edges replaces all listener scans.

        ``counts[i]`` is the number of transmitting neighbors of rank
        ``i``; listeners with count 1 receive, count >= 2 collide.  The
        weighted bincount recovers the unique sender of a clean reception
        without a second adjacency pass. Only ranks with signal are then
        visited, so a round costs O(sum of transmitter degrees) plus
        O(listeners who hear anything) — independent of listener degree.

        A node transmitting into a >= 2-transmitter neighborhood pays its
        transmit slot only, never an additional collision charge
        (half-duplex: it cannot listen, so it cannot waste a listening
        slot).
        """
        import numpy as np

        from .vectorized import graph_arrays

        network = self._network
        halted = network._halted
        ledger = network.ledger
        inboxes: Dict[int, List[Message]] = {}
        arrays = graph_arrays(network)
        rank = arrays.rank
        indptr, indices = arrays.indptr, arrays.indices
        transmitter_ranks = np.fromiter(
            (rank[node] for node in transmitters),
            dtype=np.int64,
            count=len(transmitters),
        )
        targets = np.concatenate(
            [indices[indptr[i]:indptr[i + 1]] for i in transmitter_ranks]
        )
        if not targets.size:
            return inboxes
        counts = np.bincount(targets, minlength=arrays.n)
        sender_of = np.bincount(
            targets,
            weights=np.repeat(
                transmitter_ranks.astype(np.float64),
                arrays.degrees[transmitter_ranks],
            ),
            minlength=arrays.n,
        )
        delivered = dropped = collisions = 0
        nodes = arrays.nodes
        for i in np.nonzero(counts)[0]:
            node = nodes[i]
            if node in transmitters or node not in awake:
                continue  # half-duplex / asleep: hears nothing
            if node in halted:
                continue
            heard = int(counts[i])
            if heard == 1:
                sender = nodes[int(sender_of[i])]
                inboxes[node] = [Message(sender, transmitters[sender])]
                delivered += 1
            else:
                dropped += heard
                collisions += 1
                if self.collision_cost:
                    ledger.charge(node, self.collision_cost)
                if self.collision_detection:
                    inboxes[node] = [COLLISION_MESSAGE]
        network.messages_delivered += delivered
        network.messages_dropped += dropped
        network.collisions += collisions
        return inboxes


#: Named channel factories for CLI flags and task tuples. Each call returns
#: a fresh instance, so one spec string can configure many networks.
CHANNELS: Dict[str, Callable[[], Channel]] = {
    "congest": CongestChannel,
    "local": LocalChannel,
    "broadcast": BroadcastChannel,
    "broadcast-no-cd": lambda: BroadcastChannel(collision_detection=False),
}

ChannelSpec = Union[str, Channel, Callable[[], Channel], None]

def make_channel(spec: ChannelSpec) -> Channel:
    """Resolve a channel spec (name, instance, factory, or None) to an
    instance ready to be bound to one network.

    ``None`` is a fresh :class:`CongestChannel`.
    """
    if spec is None:
        return CongestChannel()
    if isinstance(spec, Channel):
        return spec
    if isinstance(spec, str):
        try:
            factory = CHANNELS[spec]
        except KeyError:
            if "(" in spec or ":" in spec:
                # Compound fault-wrapper grammar, e.g.
                # ``lossy(drop=0.1):congest``. Imported lazily: the faults
                # package builds on this module.
                from ..faults.spec import parse_channel_spec

                return parse_channel_spec(spec)
            raise KeyError(
                f"unknown channel {spec!r}; have {sorted(CHANNELS)} "
                f"(or a fault spec such as 'lossy(drop=0.1):congest')"
            ) from None
        return factory()
    if callable(spec):
        channel = spec()
        if not isinstance(channel, Channel):
            raise TypeError(
                f"channel factory returned {type(channel).__name__}, "
                f"not a Channel"
            )
        return channel
    raise TypeError(f"cannot interpret {spec!r} as a channel")
