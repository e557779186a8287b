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
  listener in place of the per-round bincount;
* the **per-node starts** of the Phase I and Lemma 4.2 programs — one
  ``on_start`` per node, sampling with ``ctx.rng`` and scheduling with
  ``ctx.use_wake_schedule``, in place of their population start hooks
  (:func:`per_node_start`).

Engine matrices name the loop oracle ``"legacy"`` (:func:`engine_path`
yields the engine to pass for it), and channel matrices name the channel
oracles by :data:`ORACLE_CHANNELS` keys (:func:`channel_spec`), so
parametrized test ids read as before.
Not a test module (pytest only collects ``test_*.py``).
"""

from contextlib import contextmanager
from typing import Dict, List

from repro.congest import (
    BroadcastChannel,
    CongestChannel,
    LocalChannel,
    Network,
    NodeProgram,
)
from repro.congest.channels import COLLISION_MESSAGE
from repro.congest.message import Message
from repro.congest.program import NO_BROADCAST
from repro.schedule import schedule_for_round

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
def engine_path(mode):
    """Yield the engine to pass (``run(engine=...)``,
    ``run_algorithm(engine=...)``) for ``mode``. ``"legacy"`` names the
    step-every-round oracle: the cached scalar loop (``"fast"``, never
    vectorized) with idle rounds stepped while the block runs."""
    if mode == "legacy":
        with stepped_idle_rounds():
            yield "fast"
    else:
        yield mode


def run_legacy(network, **kwargs):
    """``network.run(...)`` on the step-every-round oracle."""
    with stepped_idle_rounds():
        return network.run(engine="fast", **kwargs)


def run_rounds_legacy(network, rounds):
    """``network.run_rounds(rounds)`` on the step-every-round oracle."""
    with stepped_idle_rounds():
        return network.run_rounds(rounds, engine="fast")


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
                if receiver in awake and receiver not in network._halted:
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
            if node in network._halted:
                continue
            heard = [u for u in contexts[node].neighbors if u in transmitters]
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


# -- per-node population starts -------------------------------------------


def sample_marked_round(rng, iterations, rounds_per_iteration, delta,
                        mark_divisor):
    """One node's one-shot marking round (-1: never), one geometric draw
    per iteration until it lands inside the iteration's round budget."""
    for iteration in range(iterations):
        probability = min(1.0, (2.0**iteration) / (mark_divisor * delta))
        if probability <= 0.0:
            continue
        gap = int(rng.geometric(probability))
        if gap <= rounds_per_iteration:
            return iteration * rounds_per_iteration + (gap - 1)
    return -1


def phase1_alg1_on_start(self, ctx):
    """``Phase1Alg1Program``'s start for one node."""
    ctx.output["joined"] = False
    ctx.output["sampled"] = False
    self.marked_round = sample_marked_round(
        ctx.rng, self.iterations, self.rounds_per_iteration, self.delta,
        self.mark_divisor,
    )
    if self.marked_round < 0:
        ctx.use_wake_schedule([])  # sleeps through the entire phase
        return
    ctx.output["sampled"] = True
    schedule = schedule_for_round(self.total_rounds, self.marked_round)
    wake_rounds = []
    for algo_round in schedule:
        wake_rounds.append(3 * algo_round)  # status
        if algo_round == self.marked_round:
            wake_rounds.append(3 * algo_round + 1)  # mark
        wake_rounds.append(3 * algo_round + 2)  # join
    ctx.use_wake_schedule(sorted(set(wake_rounds)))


def lemma42_on_start(self, ctx):
    """``Lemma42Program``'s start for one node."""
    ctx.output["joined"] = False
    ctx.output["failed"] = False
    ctx.output["sampled"] = False
    marked_round = sample_marked_round(
        ctx.rng, self.iterations, self.rounds_per_iteration, self.delta,
        10.0,
    )
    wake = set()
    if marked_round >= 0:
        self.sampled_iteration, self.sampled_round = divmod(
            marked_round, self.rounds_per_iteration
        )
        ctx.output["sampled"] = True
        base = self.sampled_iteration * self.stride
        wake.update(range(base, base + 2 * self.rounds_per_iteration))
    for iteration in range(self.iterations):
        block = iteration * self.stride + 2 * self.rounds_per_iteration
        wake.update((block, block + 1, block + 2))
    ctx.use_wake_schedule(sorted(wake))


def _first_heads(self, rng, probability):
    if probability <= 0.0:
        return -1
    gap = int(rng.geometric(min(1.0, probability)))
    return gap - 1 if gap <= self.rounds else -1


def phase1_alg2_on_start(self, ctx):
    """``Phase1Alg2Program``'s start for one node: the tag sample, then
    the pre-mark sample."""
    ctx.output["joined"] = False
    ctx.output["sampled"] = False
    self.tag_round = _first_heads(self, ctx.rng, self.tag_probability)
    self.premark_round = _first_heads(self, ctx.rng, self.premark_probability)
    candidates = [r for r in (self.tag_round, self.premark_round) if r >= 0]
    self.action_round = min(candidates) if candidates else -1
    # A later sampling of the other type never happens (the node is
    # spoiled after its first action round).
    if self.tag_round != self.action_round:
        self.tag_round = -1
    if self.premark_round != self.action_round:
        self.premark_round = -1
    wake = set()
    if self.action_round >= 0:
        ctx.output["sampled"] = True
        for entry in schedule_for_round(self.rounds, self.action_round):
            wake.add(4 * entry)  # status
            wake.add(4 * entry + 3)  # join
        wake.add(4 * self.action_round + 1)  # tag
        wake.add(4 * self.action_round + 2)  # mark
    end = 4 * self.rounds  # end block: every node, sampled or not
    wake.update((end, end + 1, end + 2, end + 3))
    ctx.use_wake_schedule(sorted(wake))


#: Per-node start hooks of the programs whose population start is an
#: array pass, by class name.
ON_START_ORACLES = {
    "Phase1Alg1Program": phase1_alg1_on_start,
    "Lemma42Program": lemma42_on_start,
    "Phase1Alg2Program": phase1_alg2_on_start,
}


@contextmanager
def per_node_start(cls):
    """Start ``cls`` populations node by node: the base class's
    ``start_population`` loop over the class's :data:`ON_START_ORACLES`
    hook."""
    saved = cls.__dict__["start_population"]
    cls.start_population = NodeProgram.__dict__["start_population"]
    cls.on_start = ON_START_ORACLES[cls.__name__]
    try:
        yield
    finally:
        cls.start_population = saved
        del cls.on_start
