"""Reference implementations the shipped engine and channels are pinned to.

``src/`` ships one round loop per engine mode and one delivery path per
channel model. The simpler paths they replaced live on here, as oracles
the equivalence suites and the benchmark gates compare against:

* the **step-every-round loop** — ``Network.run``/``run_rounds`` with
  idle rounds stepped one :meth:`~repro.congest.Network.step` at a time
  instead of fast-forwarded (the naive seed engine: same step sequence,
  per-round trace records and instrument events);
* the **per-Message CONGEST and LOCAL loops** — one
  :class:`~repro.congest.message.Message` per delivery, priced per
  message, in place of the slot buffers and lazy inbox views;
* the **per-listener radio scan** — an O(deg) membership test per awake
  listener in place of the per-round bincount.

Engine matrices name the loop oracle ``"legacy"`` (:func:`engine_path`),
and channel matrices name the channel oracles by :data:`ORACLE_CHANNELS`
keys (:func:`channel_spec`), so parametrized test ids read as before.
Not a test module (pytest only collects ``test_*.py``).
"""

from contextlib import contextmanager
from typing import Dict, List

from repro.congest import (
    BroadcastChannel,
    CongestChannel,
    LocalChannel,
    Network,
    engine_mode,
)
from repro.congest.channels import COLLISION_MESSAGE
from repro.congest.message import Message
from repro.congest.program import NO_BROADCAST

# -- the step-every-round engine loop -------------------------------------


def _step_idle_rounds(network, target_round):
    """Stand-in for ``Network._skip_idle_to``: step each idle round."""
    while network.round_index < target_round:
        network.step()


@contextmanager
def stepped_idle_rounds():
    """Make every ``Network`` step idle rounds instead of skipping them."""
    skip = Network._skip_idle_to
    Network._skip_idle_to = _step_idle_rounds
    try:
        yield
    finally:
        Network._skip_idle_to = skip


@contextmanager
def legacy_engine():
    """Run every network inside on the step-every-round oracle: the
    cached scalar loop (never vectorized) with no idle fast-forward."""
    with engine_mode("fast"), stepped_idle_rounds():
        yield


@contextmanager
def engine_path(mode):
    """``engine_mode(mode)``, with ``"legacy"`` naming the loop oracle."""
    scope = legacy_engine() if mode == "legacy" else engine_mode(mode)
    with scope:
        yield


def run_legacy(network, **kwargs):
    """``network.run(...)`` on the step-every-round oracle."""
    with legacy_engine():
        return network.run(**kwargs)


def run_rounds_legacy(network, rounds):
    """``network.run_rounds(rounds)`` on the step-every-round oracle."""
    with legacy_engine():
        return network.run_rounds(rounds)


# -- per-Message point-to-point delivery ----------------------------------


class PerMessageCongestChannel(CongestChannel):
    """CONGEST delivered one ``Message`` at a time: the seed engine's
    delivery loop, pricing every message on its own."""

    def deliver(self, ordered, awake) -> Dict[int, List[Message]]:
        network = self._network
        contexts = network.contexts
        inboxes: Dict[int, List[Message]] = {}
        max_bits = network.max_message_bits
        for node in ordered:
            outbox, bcast = contexts[node]._drain()
            if bcast is not NO_BROADCAST:
                outbox = [(r, bcast) for r in contexts[node].neighbors]
            for receiver, payload in outbox:
                network.messages_sent += 1
                bits = self.price(payload)
                network.total_message_bits += bits
                if bits > max_bits:
                    max_bits = bits
                if receiver in awake and not contexts[receiver]._halted:
                    inboxes.setdefault(receiver, []).append(
                        Message(node, payload)
                    )
                    network.messages_delivered += 1
                else:
                    network.messages_dropped += 1
        network.max_message_bits = max_bits
        return inboxes


class PerMessageLocalChannel(LocalChannel):
    """LOCAL delivered one ``Message`` at a time (zero-bit pricing)."""

    deliver = PerMessageCongestChannel.deliver


# -- per-listener radio scan ----------------------------------------------


class ScalarScanBroadcastChannel(BroadcastChannel):
    """The radio medium with an O(deg) membership scan per listener."""

    def _listen(self, transmitters, awake):
        network = self._network
        contexts = network.contexts
        ledger = network.ledger
        inboxes: Dict[int, List[Message]] = {}
        for node in sorted(awake):
            if node in transmitters:
                continue  # half-duplex: transmitters cannot listen
            ctx = contexts[node]
            if ctx._halted:
                continue
            heard = [u for u in ctx.neighbors if u in transmitters]
            if not heard:
                continue
            if len(heard) == 1:
                sender = heard[0]
                inboxes[node] = [Message(sender, transmitters[sender])]
                network.messages_delivered += 1
            else:
                network.messages_dropped += len(heard)
                network.collisions += 1
                if self.collision_cost:
                    ledger.charge(node, self.collision_cost)
                if self.collision_detection:
                    inboxes[node] = [COLLISION_MESSAGE]
        return inboxes


#: Channel oracles by the names the test matrices use for them.
ORACLE_CHANNELS = {
    "congest-per-message": PerMessageCongestChannel,
    "local-per-message": PerMessageLocalChannel,
    "broadcast-scalar": ScalarScanBroadcastChannel,
}


def channel_spec(name):
    """A channel spec for ``name``: an oracle factory or the name itself."""
    return ORACLE_CHANNELS.get(name, name)
