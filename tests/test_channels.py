"""Unit tests for the pluggable channel layer (congest/channels.py)."""

from functools import partial

import networkx as nx
import pytest

from repro import graphs
from repro.baselines import luby_mis, radio_decay_mis
from repro.analysis import verify_mis
from repro.congest import (
    CHANNELS,
    COLLISION,
    Channel,
    ChannelError,
    CongestChannel,
    EnergyLedger,
    LocalChannel,
    MessageTooLargeError,
    Network,
    NodeProgram,
    RunOptions,
    make_channel,
)

from oracles import channel_spec


class Scripted(NodeProgram):
    """Node ``v`` transmits per ``scripts[v]`` (``{round: payload}``) and
    unicasts per ``unicasts[v]`` (``{round: (receiver, payload)}``);
    every node records everything it hears."""

    def __init__(self, scripts=None, unicasts=None):
        self.scripts = scripts or {}
        self.unicasts = unicasts or {}
        self.heard = {}

    def on_round(self, ctx):
        script = self.scripts.get(ctx.node, {})
        if ctx.round in script:
            ctx.broadcast(script[ctx.round])
        unicast = self.unicasts.get(ctx.node, {})
        if ctx.round in unicast:
            receiver, payload = unicast[ctx.round]
            ctx.send(receiver, payload)

    def on_receive(self, ctx, messages):
        self.heard[ctx.round] = [(m.sender, m.payload) for m in messages]


def _run_rounds(graph, program, rounds, channel, **kwargs):
    network = Network(graph, program, channel=channel, **kwargs)
    network.run_rounds(rounds)
    return network


def _heard(network, node, round_index=0):
    return network.programs[node].heard[round_index]


class TestMakeChannel:
    def test_registry_names_resolve(self):
        for name in CHANNELS:
            assert isinstance(make_channel(name), Channel)

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError, match="unknown channel"):
            make_channel("pigeon")

    def test_instance_passes_through(self):
        channel = LocalChannel()
        assert make_channel(channel) is channel

    def test_default_is_batched_congest(self):
        channel = make_channel(None)
        assert type(channel) is CongestChannel

    def test_bad_spec_rejected(self):
        with pytest.raises(TypeError):
            make_channel(42)


class TestLocalChannel:
    def test_unbounded_bandwidth(self):
        """A payload far beyond the CONGEST budget sails through LOCAL."""
        graph = nx.path_graph(2)
        huge = "x" * 10_000  # 80k bits >> B
        program = partial(Scripted, {0: {0: huge}})
        network = _run_rounds(graph, program, 1, "local")
        assert _heard(network, 1) == [(0, huge)]
        assert network.total_message_bits == 0  # unpriced by design

        with pytest.raises(MessageTooLargeError):
            _run_rounds(graph, program, 1, "congest")

    def test_same_outputs_as_congest(self):
        """LOCAL changes accounting, never delivery: Luby runs identically."""
        graph = graphs.make_family("gnp_log_degree", 48, seed=3)
        local = luby_mis(graph, seed=3, options=RunOptions(channel="local"))
        congest = luby_mis(
            graph, seed=3, options=RunOptions(channel="congest")
        )
        assert local.mis == congest.mis
        assert local.rounds == congest.rounds
        assert local.max_energy == congest.max_energy
        assert local.metrics.messages_sent == congest.metrics.messages_sent
        assert local.metrics.total_message_bits == 0
        assert congest.metrics.total_message_bits > 0


class TestBroadcastChannel:
    def test_single_transmission_heard_cleanly(self):
        graph = nx.path_graph(3)  # 0 - 1 - 2
        program = partial(Scripted, {0: {0: "hi"}})
        network = _run_rounds(graph, program, 1, "broadcast")
        assert _heard(network, 1) == [(0, "hi")]
        assert _heard(network, 2) == []  # not a neighbor of 0
        assert network.messages_sent == 1  # one transmission, not per edge
        assert network.messages_delivered == 1
        assert network.collisions == 0

    def test_collision_detected_and_billed(self):
        graph = nx.star_graph(2)  # center 0, leaves 1 and 2
        program = partial(Scripted, {1: {0: "a"}, 2: {0: "b"}})
        ledger = EnergyLedger(graph.nodes)
        network = _run_rounds(
            graph, program, 1, "broadcast", ledger=ledger
        )
        (sender, payload), = _heard(network, 0)
        assert sender == -1 and payload is COLLISION
        assert network.collisions == 1
        assert network.messages_delivered == 0
        assert network.messages_dropped == 2
        # 1 awake round + 1 collision billed; leaves pay only the round.
        assert ledger.awake_rounds(0) == 2
        assert ledger.awake_rounds(1) == 1
        assert ledger.awake_rounds(2) == 1

    def test_collision_without_detection_is_silence(self):
        graph = nx.star_graph(2)
        program = partial(Scripted, {1: {0: "a"}, 2: {0: "b"}})
        ledger = EnergyLedger(graph.nodes)
        network = _run_rounds(
            graph, program, 1, "broadcast-no-cd", ledger=ledger
        )
        assert _heard(network, 0) == []  # can't tell noise from silence
        assert network.collisions == 1  # ...but the medium still collided
        assert ledger.awake_rounds(0) == 2  # and the slot is still wasted

    def test_half_duplex_transmitters_hear_nothing(self):
        graph = nx.path_graph(2)
        program = partial(Scripted, {0: {0: "a"}, 1: {0: "b"}})
        network = _run_rounds(graph, program, 1, "broadcast")
        assert _heard(network, 0) == []
        assert _heard(network, 1) == []
        assert network.collisions == 0  # nobody was listening

    def test_sleeping_nodes_hear_nothing(self):
        class Sleeper(Scripted):
            def on_start(self, ctx):
                if ctx.node == 1:
                    ctx.wake_at(5)

        graph = nx.path_graph(2)
        network = _run_rounds(
            graph, partial(Sleeper, {0: {0: "a"}}), 2, "broadcast"
        )
        assert network.programs[1].heard == {}

    def test_unicast_send_rejected(self):
        graph = nx.path_graph(2)
        program = partial(Scripted, unicasts={0: {0: (1, "x")}})
        with pytest.raises(ChannelError, match="shared medium"):
            _run_rounds(graph, program, 1, "broadcast")

    def test_double_transmission_rejected(self):
        class Twice(NodeProgram):
            def on_round(self, ctx):
                ctx.broadcast("a")
                ctx.broadcast("b")

        graph = nx.path_graph(2)
        with pytest.raises(ChannelError, match="already transmitted"):
            _run_rounds(graph, Twice, 1, "broadcast")

    def test_bit_budget_still_enforced(self):
        graph = nx.path_graph(2)
        program = partial(Scripted, {0: {0: "x" * 10_000}})
        with pytest.raises(MessageTooLargeError):
            _run_rounds(graph, program, 1, "broadcast")

    def test_metrics_carry_collisions(self):
        graph = nx.star_graph(2)
        program = partial(Scripted, {1: {0: "a"}, 2: {0: "b"}})
        network = _run_rounds(graph, program, 1, "broadcast")
        assert network.metrics().collisions == 1


class TestInboxView:
    def _delivered_view(self):
        graph = nx.star_graph(3)  # leaves 1..3 all send to center 0
        scripts = {v: {0: f"p{v}"} for v in (1, 2, 3)}

        captured = {}

        class Capture(Scripted):
            def on_receive(self, ctx, messages):
                if ctx.node == 0:
                    captured["inbox"] = messages
                super().on_receive(ctx, messages)

        network = _run_rounds(graph, partial(Capture, scripts), 1, "congest")
        return captured["inbox"], network.programs[0]

    def test_sequence_protocol(self):
        inbox, center = self._delivered_view()
        assert len(inbox) == 3
        assert bool(inbox)
        assert [m.sender for m in inbox] == [1, 2, 3]  # sorted-sender order
        assert inbox[0].payload == "p1"
        assert inbox == [type(inbox[0])(s, f"p{s}") for s in (1, 2, 3)]
        assert center.heard[0] == [(1, "p1"), (2, "p2"), (3, "p3")]

    def test_len_without_materialization(self):
        """Counting messages must not build Message objects."""
        graph = nx.star_graph(2)
        lengths = {}

        class CountOnly(Scripted):
            def on_receive(self, ctx, messages):
                if ctx.node == 0:
                    lengths[ctx.node] = len(messages)

        program = partial(CountOnly, {1: {0: "a"}, 2: {0: "b"}})
        _run_rounds(graph, program, 1, "congest")
        assert lengths[0] == 2


class TestRadioDecayMIS:
    @pytest.mark.parametrize("seed", range(3))
    def test_radio_mis_end_to_end(self, seed):
        graph = graphs.make_family("gnp_log_degree", 96, seed=seed)
        ledger = EnergyLedger(graph.nodes)
        result = radio_decay_mis(graph, seed=seed, ledger=ledger)
        report = verify_mis(graph, result.mis)
        assert report.independent
        assert report.maximal
        assert result.metrics.collisions > 0  # real contention happened
        # Collisions are billed: ledger total exceeds pure awake-rounds by
        # exactly the collision count.
        assert result.metrics.collisions == result.details["collisions"]

    def test_runs_on_reliable_channels_too(self):
        graph = graphs.make_family("gnp_log_degree", 64, seed=1)
        result = radio_decay_mis(
            graph, seed=1, options=RunOptions(channel="congest")
        )
        report = verify_mis(graph, result.mis)
        assert report.independent and report.maximal
        assert result.metrics.collisions == 0


class TestStaleViewGuard:
    def test_stale_unmaterialized_view_raises(self):
        """Reading a stashed inbox view after its round must fail loudly,
        not silently serve recycled buffers."""
        stashed = {}

        class Stasher(NodeProgram):
            def on_round(self, ctx):
                ctx.broadcast("beat")

            def on_receive(self, ctx, messages):
                if ctx.round == 0 and ctx.node == 0:
                    stashed["inbox"] = messages  # kept without reading
                if ctx.round >= 1:
                    ctx.halt()

        graph = nx.path_graph(2)
        _run_rounds(graph, Stasher, 2, "congest")
        with pytest.raises(ChannelError, match="recycled"):
            list(stashed["inbox"])

    def test_copy_within_round_survives(self):
        copies = {}

        class Copier(NodeProgram):
            def on_round(self, ctx):
                ctx.broadcast(ctx.round)

            def on_receive(self, ctx, messages):
                if ctx.round == 0 and ctx.node == 0:
                    copies["inbox"] = list(messages)  # materializes now
                if ctx.round >= 1:
                    ctx.halt()

        graph = nx.path_graph(2)
        _run_rounds(graph, Copier, 2, "congest")
        assert [(m.sender, m.payload) for m in copies["inbox"]] == [(1, 0)]


def _radio_unsafe_algorithms():
    from repro.harness import ALGORITHMS, RADIO_SAFE_ALGORITHMS

    return sorted(set(ALGORITHMS) - RADIO_SAFE_ALGORITHMS)


class TestRadioSafety:
    @pytest.mark.parametrize(
        "channel", ["broadcast", "lossy(drop=0.1,seed=1):broadcast"]
    )
    @pytest.mark.parametrize("algorithm", _radio_unsafe_algorithms())
    @pytest.mark.parametrize("entry", ["run_algorithm", "run_dynamic"])
    def test_point_to_point_algorithm_refused_on_broadcast(
        self, entry, algorithm, channel
    ):
        """Every algorithm outside the radio-safe set is refused on the
        radio medium, also behind a fault wrapper (``unwrapped()``), by
        the static and the dynamic entry point alike."""
        from repro.harness import run_algorithm, run_dynamic_workload

        graph = graphs.make_family("grid", 25, seed=0)
        with pytest.raises(ValueError, match="unsound on the shared radio"):
            if entry == "run_algorithm":
                run_algorithm(algorithm, graph, channel=channel)
            else:
                run_dynamic_workload(
                    "link_flap", algorithm, n=25, epochs=1,
                    options=RunOptions(channel=channel),
                )

    def test_radio_safe_and_reliable_combos_allowed(self):
        from repro.harness import run_algorithm

        graph = graphs.make_family("grid", 25, seed=0)
        run_algorithm("radio_decay", graph, channel="broadcast")
        run_algorithm("luby", graph, channel="local")


class TestBroadcastCollisionAccounting:
    """Regression pins for the radio energy/collision bookkeeping.

    The dangerous edge case: a node that transmits *and* sits in a
    >= 2-transmitter neighborhood must be billed its transmit slot only —
    half-duplex means it never listens, so it can never be charged an
    additional collision (double-billing). Pinned on a hand-built 3-node
    graph for both the bincount listener scan (default) and the scalar
    reference scan.
    """

    @pytest.mark.parametrize("channel", ["broadcast", "broadcast-scalar"])
    def test_listener_between_two_transmitters(self, channel):
        # Triangle: 1 and 2 transmit, 0 listens and suffers one collision.
        graph = nx.complete_graph(3)
        program = partial(Scripted, {1: {0: "a"}, 2: {0: "b"}})
        network = _run_rounds(graph, program, 1, channel_spec(channel))
        metrics = network.metrics()
        assert metrics.collisions == 1
        assert metrics.messages_sent == 2
        assert metrics.messages_delivered == 0
        assert metrics.messages_dropped == 2
        # 0: awake + one wasted listening slot; 1, 2: transmit slot only
        # (each also has a >= 2-transmitter neighborhood, but half-duplex
        # transmitters cannot waste a listening slot).
        assert network.ledger.snapshot() == {0: 2, 1: 1, 2: 1}
        assert _heard(network, 1) == []  # transmitters hear nothing
        assert _heard(network, 2) == []
        assert _heard(network, 0) == [(-1, COLLISION)]

    @pytest.mark.parametrize("channel", ["broadcast", "broadcast-scalar"])
    def test_all_transmit_no_collision_charges(self, channel):
        # Every node transmits: nobody listens, so no collisions at all.
        graph = nx.complete_graph(3)
        program = partial(Scripted, {v: {0: f"p{v}"} for v in graph.nodes})
        network = _run_rounds(graph, program, 1, channel_spec(channel))
        metrics = network.metrics()
        assert metrics.collisions == 0
        assert metrics.messages_sent == 3
        assert metrics.messages_delivered == 0
        assert metrics.messages_dropped == 0
        assert network.ledger.snapshot() == {0: 1, 1: 1, 2: 1}

    @pytest.mark.parametrize("channel", ["broadcast", "broadcast-scalar"])
    def test_clean_reception_next_to_a_collision(self, channel):
        # Path 0-1-2-3 with 1 and 3 transmitting: 0 hears 1 cleanly, 2
        # collides; per-node billing stays exact.
        graph = nx.path_graph(4)
        program = partial(Scripted, {1: {0: "x"}, 3: {0: "y"}})
        network = _run_rounds(graph, program, 1, channel_spec(channel))
        metrics = network.metrics()
        assert metrics.collisions == 1
        assert metrics.messages_sent == 2
        assert metrics.messages_delivered == 1
        assert metrics.messages_dropped == 2
        assert network.ledger.snapshot() == {0: 1, 1: 1, 2: 2, 3: 1}
        assert _heard(network, 0) == [(1, "x")]
        assert _heard(network, 2) == [(-1, COLLISION)]

    @pytest.mark.parametrize("seed", range(3))
    def test_vectorized_scan_matches_scalar_reference(self, seed):
        """End-to-end radio MIS: bincount scan == scalar scan, bit for
        bit, on outputs, metrics, and per-node ledgers."""
        graph = graphs.make_family("gnp_log_degree", 96, seed=seed)
        runs = {}
        for channel in ("broadcast", "broadcast-scalar"):
            ledger = EnergyLedger(graph.nodes)
            result = radio_decay_mis(
                graph, seed=seed, ledger=ledger,
                options=RunOptions(channel=channel_spec(channel)),
            )
            runs[channel] = (result, ledger.snapshot())
        vectorized, scalar = runs["broadcast"], runs["broadcast-scalar"]
        assert vectorized[0].mis == scalar[0].mis
        assert vectorized[0].metrics == scalar[0].metrics
        assert vectorized[1] == scalar[1]
