"""Composable fault-injecting channel wrappers.

Every wrapper decorates an inner :class:`~repro.congest.channels.Channel`
and post-processes the inboxes it delivers, so the clean channel semantics
(pricing, budget checks, collision scans, counters) stay in exactly one
place.  Wrappers compose: ``lossy(corrupt(jam(broadcast)))`` is a radio
medium that is jammed on some rounds, flips bits on reception, and then
drops messages iid — and :meth:`Channel.unwrapped` still reports the base
medium so radio-safety checks and the vectorized engine see through the
whole stack.

Fault randomness is *independent of algorithm randomness* and stateless
per round: each wrapper derives its draws from
``SeedSequence([fault_seed, round_index])``, so the fault pattern of round
``r`` does not depend on which earlier rounds were simulated (idle rounds
are fast-forwarded by some engines) nor on the channel's bind history.
Zero-rate wrappers draw nothing at all and are bit-identical to the
unwrapped channel — a contract the fault test-suite and the ``BENCH_7``
overhead gate both enforce.

The vectorized engine asks a channel for its fault state via
:meth:`Channel.vector_faults`; wrappers answer with a per-round boolean
*keep* mask over the CSR edge-slot arrays (slot ``e`` of row ``r`` masks
the delivery ``indices[e] -> r``), composed across the wrapper stack by
logical AND.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from ..congest.channels import (
    COLLISION_MESSAGE,
    BroadcastChannel,
    Channel,
    make_channel,
)
from ..congest.errors import ChannelError
from ..congest.message import Message
from ..congest.program import NO_BROADCAST

__all__ = [
    "CORRUPTED",
    "AdversarialJammer",
    "CorruptingChannel",
    "FaultChannel",
    "LossyChannel",
]


class _CorruptedSignal:
    """Sentinel payload for corrupted messages with no flippable bits."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):  # pragma: no cover - debugging aid
        return "<CORRUPTED>"


#: Replacement payload when a corrupted value has no representable bit flip
#: (``None`` beacons, exotic payload types).  Receivers that pattern-match on
#: payload shape will treat it as garbage, which is the point.
CORRUPTED = _CorruptedSignal()


def _validate_probability(name: str, value: float) -> float:
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be a probability in [0, 1], got {value!r}")
    return value


def _validate_seed(seed: int) -> int:
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool):
        raise ValueError(f"fault seed must be an integer, got {seed!r}")
    if seed < 0:
        raise ValueError(f"fault seed must be non-negative, got {seed}")
    return int(seed)


class FaultChannel(Channel):
    """Base class for fault wrappers: delegate everything, then perturb.

    Subclasses override :meth:`deliver` (and optionally
    :meth:`_vector_state`) and leave pricing/validation/counters to the
    wrapped channel.  ``inner`` may be a channel instance, a registry name,
    or ``None`` for the wrapper's default base medium.
    """

    #: Short grammar label; also the head keyword in channel-spec strings.
    kind = "fault"
    #: Default inner channel spec when ``inner`` is None.
    default_inner = "congest"

    def __init__(self, inner: Any = None, *, seed: int = 0):
        super().__init__()
        if inner is None:
            inner = self.default_inner
        self.inner = inner if isinstance(inner, Channel) else make_channel(inner)
        self.seed = _validate_seed(seed)
        self.name = f"{self.spec_label()}:{self.inner.name}"
        self._network = None

    # -- spec/grammar introspection ------------------------------------
    def spec_label(self) -> str:
        """The wrapper's own label, e.g. ``lossy(drop=0.1,seed=7)``."""
        params = ",".join(f"{k}={v}" for k, v in self._spec_params())
        return f"{self.kind}({params})" if params else self.kind

    def _spec_params(self) -> List[tuple]:
        return []

    #: Whether this wrapper can perturb anything at its configured rates.
    #: Subclasses override with their rate checks; inactive wrappers have
    #: their ``deliver`` aliased straight through at bind time.
    @property
    def active(self) -> bool:
        return True

    # -- delegation -----------------------------------------------------
    def bind(self, network) -> None:
        self._network = network
        self.inner.bind(network)
        # Hot-path aliasing: per-message hooks (price/on_send/on_broadcast)
        # and per-round finish_round are pure delegation, so point them at
        # the inner channel's bound methods — this removes one Python
        # frame per message per wrapper layer (the inner channel has
        # already bound, so a stack collapses to the innermost methods).
        self.price = self.inner.price
        self.on_send = self.inner.on_send
        self.on_broadcast = self.inner.on_broadcast
        self.finish_round = self.inner.finish_round
        if not self.active:
            # Zero-rate transparency, for free: an inactive wrapper's
            # deliver is definitionally the inner deliver (rates are
            # immutable after construction), so alias it too and the
            # wrapped fast path costs nothing per round.
            self.deliver = self.inner.deliver

    def price(self, payload: Any) -> int:
        return self.inner.price(payload)

    def on_send(self, ctx, neighbor, payload) -> None:
        self.inner.on_send(ctx, neighbor, payload)

    def on_broadcast(self, ctx, payload) -> None:
        self.inner.on_broadcast(ctx, payload)

    def deliver(self, ordered, awake):
        return self.inner.deliver(ordered, awake)

    def finish_round(self) -> None:
        self.inner.finish_round()

    def unwrapped(self) -> Channel:
        return self.inner.unwrapped()

    def vector_obstacle(self) -> Optional[str]:
        return self.inner.vector_obstacle()

    # -- fault randomness ----------------------------------------------
    def _round_rng(self, round_index: int) -> np.random.Generator:
        """A stateless per-round generator, independent of algorithm RNG."""
        return np.random.default_rng(np.random.SeedSequence([self.seed, round_index]))

    # -- vectorized-engine hook ----------------------------------------
    def vector_faults(self, arrays):
        """Compose this wrapper's edge-drop state with the inner stack's."""
        inner = self.inner.vector_faults(arrays)
        own = self._vector_state(arrays)
        if inner is None:
            return own
        if own is None:
            return inner
        return _ComposedFaultState([own, inner])

    def _vector_state(self, arrays):
        return None

    # -- shared accounting helpers -------------------------------------
    def _count_fault_drops(self, lost: int) -> None:
        network = self._network
        network.messages_delivered -= lost
        network.messages_dropped += lost


class LossyChannel(FaultChannel):
    """iid per-message drops plus whole-round burst loss.

    Each delivered message survives with probability ``1 - drop``;
    additionally, with probability ``burst`` per round the *entire* round's
    traffic is lost (a fade / partition blink).  Dropped messages were
    still sent and priced — only delivery fails — so ``messages_dropped``
    and the bit counters stay consistent with the sleeping-model rule that
    a transmission costs the sender regardless of reception.
    """

    kind = "lossy"

    def __init__(self, inner: Any = None, *, drop: float = 0.0,
                 burst: float = 0.0, seed: int = 0):
        self.drop = _validate_probability("drop", drop)
        self.burst = _validate_probability("burst", burst)
        super().__init__(inner, seed=seed)
        #: Messages this wrapper destroyed (scalar paths only; vectorized
        #: runs account drops directly in the network counters).
        self.fault_drops = 0
        self.burst_rounds = 0

    def _spec_params(self):
        return [("drop", self.drop), ("burst", self.burst), ("seed", self.seed)]

    @property
    def active(self) -> bool:
        return self.drop > 0.0 or self.burst > 0.0

    def deliver(self, ordered, awake):
        inboxes = self.inner.deliver(ordered, awake)
        if not self.active or not inboxes:
            # Zero-rate wrappers must be bit-identical to the bare channel:
            # no RNG draw, no inbox copying.
            return inboxes
        rng = self._round_rng(self._network.round_index)
        if self.burst and rng.random() < self.burst:
            lost = sum(
                sum(1 for m in inbox if m is not COLLISION_MESSAGE)
                for inbox in inboxes.values()
            )
            self._count_fault_drops(lost)
            self.fault_drops += lost
            self.burst_rounds += 1
            return {}
        if not self.drop:
            return inboxes
        out: Dict[Any, List[Message]] = {}
        lost = 0
        # Receivers are visited in sorted order so the fault pattern is a
        # pure function of (seed, round, inbox shape), not dict history.
        for receiver in sorted(inboxes):
            messages = list(inboxes[receiver])
            keep = rng.random(len(messages)) >= self.drop
            kept = [
                m for m, k in zip(messages, keep)
                if k or m is COLLISION_MESSAGE
            ]
            lost += len(messages) - len(kept)
            if kept:
                out[receiver] = kept
        if lost:
            self._count_fault_drops(lost)
            self.fault_drops += lost
        return out

    def _vector_state(self, arrays):
        if not self.active:
            return None
        return _EdgeDropState(arrays, seed=self.seed, drop=self.drop,
                              burst=self.burst)


class CorruptingChannel(FaultChannel):
    """Bit-flip corruption: each delivered message is corrupted iid.

    Corruption flips one uniformly-chosen bit of an integer payload,
    negates a boolean, corrupts one element of a tuple, and replaces
    unflippable payloads (``None`` beacons and friends) with the
    :data:`CORRUPTED` sentinel.  A flipped bit never exceeds the original
    value's bit length, so a corrupted message still fits the CONGEST
    budget it was priced under.

    The dense-round kernels never read payloads, so they cannot corrupt
    one: an active wrapper keeps the vectorized engine off (auto mode runs
    the scalar loop, forced mode raises), and only the zero-rate wrapper
    vectorizes.
    """

    kind = "corrupt"

    def __init__(self, inner: Any = None, *, flip: float = 0.0, seed: int = 0):
        self.flip = _validate_probability("flip", flip)
        super().__init__(inner, seed=seed)
        self.corruptions = 0

    def _spec_params(self):
        return [("flip", self.flip), ("seed", self.seed)]

    @property
    def active(self) -> bool:
        return self.flip > 0.0

    @staticmethod
    def corrupt_payload(payload: Any, rng: np.random.Generator) -> Any:
        if isinstance(payload, bool):
            return not payload
        if isinstance(payload, int):
            width = max(1, payload.bit_length())
            return payload ^ (1 << int(rng.integers(width)))
        if isinstance(payload, tuple) and payload:
            index = int(rng.integers(len(payload)))
            items = list(payload)
            items[index] = CorruptingChannel.corrupt_payload(items[index], rng)
            return tuple(items)
        return CORRUPTED

    def deliver(self, ordered, awake):
        inboxes = self.inner.deliver(ordered, awake)
        if not self.active or not inboxes:
            return inboxes
        rng = self._round_rng(self._network.round_index)
        out: Dict[Any, Sequence[Message]] = {}
        for receiver in sorted(inboxes):
            messages = list(inboxes[receiver])
            hits = rng.random(len(messages)) < self.flip
            if hits.any():
                for i, hit in enumerate(hits):
                    message = messages[i]
                    if not hit or message is COLLISION_MESSAGE:
                        continue
                    messages[i] = Message(
                        message.sender,
                        self.corrupt_payload(message.payload, rng),
                    )
                    self.corruptions += 1
            out[receiver] = messages
        return out

    def vector_obstacle(self) -> Optional[str]:
        if self.active:
            return (
                f"an active {self.spec_label()} wrapper rewrites payloads, "
                f"which the dense-round kernels never read"
            )
        return super().vector_obstacle()


class AdversarialJammer(FaultChannel):
    """Round/region jamming attack on a radio (:class:`BroadcastChannel`).

    On a jammed round, every awake listener inside the jammed region hears
    only noise: its inbox is destroyed, the round counts as a collision,
    and — because listening costs energy in the radio model — the
    collision cost is billed to its ledger.  Transmitters are unaffected
    (they were not listening), matching the standard jamming model where
    the adversary attacks *reception*.

    Jammed rounds are chosen by an explicit ``rounds`` set and/or an iid
    per-round ``rate``; the region is either an explicit node set or a
    seeded random ``fraction`` of the nodes picked at bind time (``None``
    means the whole network).
    """

    kind = "jam"
    default_inner = "broadcast"

    def __init__(self, inner: Any = None, *, rate: float = 0.0,
                 rounds: Sequence[int] = (), region: Optional[Sequence] = None,
                 fraction: Optional[float] = None, seed: int = 0):
        self.rate = _validate_probability("rate", rate)
        self.rounds = frozenset(int(r) for r in rounds)
        if any(r < 0 for r in self.rounds):
            raise ValueError("jammed rounds must be non-negative")
        if region is not None and fraction is not None:
            raise ValueError("pass either an explicit region or a fraction, not both")
        self.fraction = (
            None if fraction is None else _validate_probability("fraction", fraction)
        )
        self._explicit_region = None if region is None else frozenset(region)
        super().__init__(inner, seed=seed)
        self._region: Optional[frozenset] = self._explicit_region
        self._base: Optional[BroadcastChannel] = None
        self.jammed_rounds = 0
        self.jam_hits = 0

    def _spec_params(self):
        params = [("rate", self.rate)]
        if self.rounds:
            params.append(("rounds", sorted(self.rounds)))
        if self.fraction is not None:
            params.append(("fraction", self.fraction))
        params.append(("seed", self.seed))
        return params

    @property
    def active(self) -> bool:
        return self.rate > 0.0 or bool(self.rounds)

    def bind(self, network) -> None:
        super().bind(network)
        base = self.unwrapped()
        if not isinstance(base, BroadcastChannel):
            raise ChannelError(
                f"AdversarialJammer attacks a radio medium, but the base "
                f"channel is {base.name!r}; wrap a BroadcastChannel"
            )
        self._base = base
        if self.fraction is not None:
            nodes = sorted(network.graph.nodes)
            count = int(round(self.fraction * len(nodes)))
            rng = np.random.default_rng(np.random.SeedSequence([self.seed]))
            picked = rng.choice(len(nodes), size=count, replace=False)
            self._region = frozenset(nodes[i] for i in picked)

    def is_jammed(self, round_index: int) -> bool:
        if round_index in self.rounds:
            return True
        if self.rate:
            return bool(self._round_rng(round_index).random() < self.rate)
        return False

    def deliver(self, ordered, awake):
        if not self.active:
            return self.inner.deliver(ordered, awake)
        network = self._network
        if not self.is_jammed(network.round_index):
            return self.inner.deliver(ordered, awake)
        # Transmitter peek must happen before the inner channel drains the
        # pending-broadcast markers.
        contexts = network.contexts
        transmitters = {
            node for node in ordered
            if contexts[node]._bcast is not NO_BROADCAST
        }
        inboxes = self.inner.deliver(ordered, awake)
        region = self._region
        base = self._base
        self.jammed_rounds += 1
        for node in ordered:
            if node in transmitters:
                continue
            if region is not None and node not in region:
                continue
            if node in network._halted:
                continue
            inbox = inboxes.pop(node, None)
            if inbox and inbox[0] is COLLISION_MESSAGE:
                # Already hearing a genuine collision (counted and billed by
                # the base channel); jamming adds nothing on top.
                inboxes[node] = inbox
                continue
            if inbox:
                self._count_fault_drops(len(inbox))
            network.collisions += 1
            self.jam_hits += 1
            if base.collision_cost:
                network.ledger.charge(node, base.collision_cost)
            if base.collision_detection:
                inboxes[node] = [COLLISION_MESSAGE]
        return inboxes


class _EdgeDropState:
    """Per-round keep masks over CSR edge slots for one lossy wrapper.

    Slot ``e`` lies in the row of receiver ``edge_source[e]`` and masks the
    delivery from sender ``indices[e]``; masks are drawn slot-major from the
    same stateless per-round stream family the scalar wrapper uses (the
    *patterns* differ — scalar draws follow inbox shapes — which is fine:
    cross-engine bit-identity is only promised at zero rates).
    """

    def __init__(self, arrays, *, seed: int, drop: float, burst: float):
        self.arrays = arrays
        self.seed = seed
        self.drop = drop
        self.burst = burst

    def round_keep(self, round_index: int) -> Optional[np.ndarray]:
        """Keep mask for this round, or ``None`` when nothing is dropped."""
        rng = np.random.default_rng(
            np.random.SeedSequence([self.seed, round_index])
        )
        if self.burst and rng.random() < self.burst:
            return np.zeros(self.arrays.indices.shape[0], dtype=bool)
        if not self.drop:
            return None
        return rng.random(self.arrays.indices.shape[0]) >= self.drop


class _ComposedFaultState:
    """AND-composition of the keep masks of a wrapper stack."""

    def __init__(self, states):
        self.states = states

    def round_keep(self, round_index: int) -> Optional[np.ndarray]:
        keep: Optional[np.ndarray] = None
        for state in self.states:
            mask = state.round_keep(round_index)
            if mask is None:
                continue
            keep = mask if keep is None else (keep & mask)
        return keep
