"""Tests for engine tracing and sleep diagrams."""

from functools import partial

import networkx as nx
import pytest

from repro import graphs
from repro.baselines import LubyProgram
from repro.congest import (
    ChannelError,
    CongestChannel,
    Network,
    NodeProgram,
)

from oracles import engine_path


class CountdownProgram(NodeProgram):
    def __init__(self, rounds):
        self.rounds = rounds

    def on_round(self, ctx):
        if ctx.round + 1 >= self.rounds:
            ctx.halt()


class TestNetworkTrace:
    def _traced_run(self, rounds=4, n=3):
        graph = graphs.path(n)
        network = Network(graph, partial(CountdownProgram, rounds), trace=True)
        network.run()
        return network

    def test_disabled_by_default(self):
        graph = graphs.path(2)
        network = Network(graph, partial(CountdownProgram, 1))
        network.run()
        assert network.trace is None

    def test_records_every_round(self):
        network = self._traced_run(rounds=4)
        assert network.trace.rounds == 4

    def test_awake_counts(self):
        network = self._traced_run(rounds=3, n=5)
        assert network.trace.awake_counts() == [5, 5, 5]

    def test_wake_rounds_of_node(self):
        network = self._traced_run(rounds=3)
        assert network.trace.wake_rounds_of(0) == [0, 1, 2]

    def test_message_totals(self):
        graph = graphs.gnp(30, 0.15, seed=0)
        network = Network(graph, LubyProgram, trace=True)
        network.run()
        totals = network.trace.message_totals()
        assert totals["sent"] == network.messages_sent
        assert totals["delivered"] == network.messages_delivered

    def test_sleep_diagram_shape(self):
        network = self._traced_run(rounds=5, n=3)
        diagram = network.trace.sleep_diagram([0, 1, 2])
        lines = diagram.splitlines()
        assert len(lines) == 4  # header + one row per node
        assert "#####" in lines[1]

    def test_sleep_diagram_downsamples(self):
        network = self._traced_run(rounds=50, n=2)
        diagram = network.trace.sleep_diagram([0], width=10)
        row = diagram.splitlines()[1]
        assert row.count("#") == 10

    def test_sleep_diagram_empty(self):
        graph = graphs.path(2)
        network = Network(graph, partial(CountdownProgram, 1), trace=True)
        assert "no rounds" in network.trace.sleep_diagram([0])

    def test_scheduled_sleep_visible(self):
        class Sleeper(NodeProgram):
            def on_start(self, ctx):
                if ctx.node == 1:
                    ctx.use_wake_schedule([2])

            def on_round(self, ctx):
                if ctx.node == 1 or ctx.round >= 3:
                    ctx.halt()

        graph = graphs.path(2)
        network = Network(graph, Sleeper, trace=True)
        network.run()
        assert network.trace.wake_rounds_of(1) == [2]


class TestIdleSpanRoundTrip:
    """Compact idle spans must expand to exactly the per-round view the
    legacy engine records (satellite of the channel-layer PR)."""

    def _synthetic_pair(self):
        """The same execution recorded both ways: fast (spans) and legacy
        (one explicit record per round, idle rounds absent from records
        only when truly empty — the legacy engine records every round)."""
        from repro.congest import NetworkTrace

        fast = NetworkTrace()
        legacy = NetworkTrace()
        # Round 0: nodes {0, 1} awake, 2 sent / 1 delivered / 1 dropped.
        for trace in (fast, legacy):
            trace.record(0, {0, 1}, 2, 1, 1)
        # Rounds 1..4 idle.
        fast.record_idle(1, 4)
        for r in range(1, 5):
            legacy.record(r, set(), 0, 0, 0)
        # Round 5: node 2 awake.
        for trace in (fast, legacy):
            trace.record(5, {2}, 0, 0, 0)
        # Rounds 6..6: a single-round span.
        fast.record_idle(6, 6)
        legacy.record(6, set(), 0, 0, 0)
        # Round 7: all awake.
        for trace in (fast, legacy):
            trace.record(7, {0, 1, 2}, 3, 3, 0)
        return fast, legacy

    def test_derived_views_match(self):
        fast, legacy = self._synthetic_pair()
        assert fast.rounds == legacy.rounds == 8
        assert fast.awake_counts() == legacy.awake_counts()
        for node in (0, 1, 2):
            assert fast.wake_rounds_of(node) == legacy.wake_rounds_of(node)
        assert fast.message_totals() == legacy.message_totals()
        assert fast.sleep_diagram([0, 1, 2]) == legacy.sleep_diagram([0, 1, 2])

    def test_span_validation(self):
        import pytest

        from repro.congest import NetworkTrace

        with pytest.raises(ValueError):
            NetworkTrace().record_idle(5, 4)

    def test_engine_round_trip_fast_vs_legacy(self):
        """A real gappy run: the engine's compact spans reproduce the legacy
        per-round trace through every derived view."""

        class Gappy(NodeProgram):
            def on_start(self, ctx):
                ctx.use_wake_schedule([2 + 5 * (ctx.node % 2), 20, 33])

            def on_round(self, ctx):
                if ctx.neighbors:
                    ctx.send(ctx.neighbors[0], True)

            def on_receive(self, ctx, messages):
                if ctx.round >= 33:
                    ctx.halt()

        def run(engine):
            graph = graphs.path(4)
            network = Network(graph, Gappy, trace=True)
            with engine_path(engine) as path:
                network.run(engine=path)
            return network.trace

        fast, legacy = run("fast"), run("legacy")
        assert fast.idle_spans and not legacy.idle_spans  # genuinely compact
        assert fast.rounds == legacy.rounds
        assert fast.awake_counts() == legacy.awake_counts()
        for node in range(4):
            assert fast.wake_rounds_of(node) == legacy.wake_rounds_of(node)
        assert fast.message_totals() == legacy.message_totals()
        assert fast.sleep_diagram(range(4)) == legacy.sleep_diagram(range(4))


class TestStaleInboxViewsAcrossFastForward:
    """Fast-forwarded idle stretches must not resurrect old inbox views.

    A lazy ``_InboxView`` is only valid within the round that minted it:
    the backing slot buffers are recycled at ``finish_round``. The fast
    path skips idle rounds entirely, so a view captured before an idle
    stretch and first *read* at the post-stretch wake must raise — on the
    fast-forwarding engine exactly as on the legacy per-round loop — and
    a view must never survive the channel being re-bound to a new network.
    """

    class _Stasher(NodeProgram):
        def __init__(self):
            self.stashed = None
            self.error = None

        def on_round(self, ctx):
            if ctx.round == 0 and ctx.neighbors:
                ctx.send(ctx.neighbors[0], "ping")

        def on_receive(self, ctx, messages):
            if ctx.round == 0:
                self.stashed = messages  # lazy view, not yet materialized
                ctx.use_wake_schedule([40])  # force a long idle stretch
            elif ctx.round == 40:
                try:
                    list(self.stashed)
                except Exception as error:  # noqa: BLE001 - recorded
                    self.error = error
                ctx.halt()

    @pytest.mark.parametrize("engine", ["fast", "legacy"])
    def test_view_from_before_idle_stretch_raises(self, engine):
        graph = nx.path_graph(2)
        network = Network(graph, self._Stasher)
        with engine_path(engine) as path:
            network.run(engine=path)
        assert network.metrics().rounds == 41
        for node, program in network.programs.items():
            assert program.stashed is not None, node
            assert isinstance(program.error, ChannelError), (
                f"node {node}: stale inbox view survived the idle "
                f"fast-forward (engine={engine})"
            )

    def test_view_does_not_survive_channel_rebind(self):
        """Multi-phase drivers reuse channel instances across networks; a
        view minted against the first network must raise after rebind
        instead of reading the second network's recycled buffers."""
        graph = nx.path_graph(2)
        channel = CongestChannel()
        captured = {}

        class CaptureOnce(NodeProgram):
            def on_round(self, ctx):
                if ctx.round == 0 and ctx.neighbors:
                    ctx.send(ctx.neighbors[0], 1)

            def on_receive(self, ctx, messages):
                captured.setdefault(ctx.node, messages)
                ctx.halt()

        first = Network(graph, CaptureOnce, channel=channel)
        first.run()
        assert set(captured) == {0, 1}

        # Same channel instance, fresh network: round serial keeps rising.
        second = Network(graph, CaptureOnce, channel=channel)
        stale = captured[0]
        with pytest.raises(ChannelError, match="read after its round"):
            list(stale)
