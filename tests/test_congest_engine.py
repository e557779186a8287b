"""Integration tests for the CONGEST-with-sleeping engine semantics."""

import networkx as nx
import pytest

from repro.congest import (
    DuplicateMessageError,
    EnergyLedger,
    MessageTooLargeError,
    Network,
    NodeProgram,
    NotANeighborError,
    SchedulingError,
    SimulationLimitError,
)


def path_graph(n=4):
    return nx.path_graph(n)


class HaltImmediately(NodeProgram):
    def on_round(self, ctx):
        ctx.output["ran"] = True
        ctx.halt()


class BroadcastOnce(NodeProgram):
    def on_round(self, ctx):
        if ctx.round == 0:
            ctx.broadcast(True)

    def on_receive(self, ctx, messages):
        ctx.output.setdefault("heard", set()).update(m.sender for m in messages)
        if ctx.round >= 1:
            ctx.halt()


class TestBasicExecution:
    def test_all_nodes_run_and_halt(self):
        network = Network(path_graph(), HaltImmediately)
        metrics = network.run()
        assert metrics.rounds == 1
        assert all(network.outputs("ran").values())

    def test_broadcast_delivered_same_round(self):
        network = Network(path_graph(3), BroadcastOnce)
        network.run()
        heard = network.outputs("heard")
        assert heard[1] == {0, 2}
        assert heard[0] == {1}

    def test_energy_counts_awake_rounds_only(self):
        metrics = Network(path_graph(), HaltImmediately).run()
        assert metrics.max_energy == 1
        assert metrics.average_energy == 1.0

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            Network(nx.Graph(), HaltImmediately)

    @pytest.mark.parametrize(
        "programs",
        [{0: HaltImmediately(), 1: HaltImmediately()},
         [HaltImmediately(), HaltImmediately()],
         HaltImmediately()],
        ids=["dict", "list", "instance"],
    )
    def test_non_factory_programs_rejected(self, programs):
        with pytest.raises(TypeError, match="zero-argument program factory"):
            Network(path_graph(2), programs)


class SleepyReceiver(NodeProgram):
    """Node 0 broadcasts in round 0; node 1 sleeps round 0, wakes round 1."""

    def on_start(self, ctx):
        if ctx.node == 1:
            ctx.use_wake_schedule([1])

    def on_round(self, ctx):
        if ctx.node == 0 and ctx.round == 0:
            ctx.broadcast("hello")

    def on_receive(self, ctx, messages):
        ctx.output.setdefault("got", []).extend(m.payload for m in messages)
        if ctx.node == 0 and ctx.round >= 1:
            ctx.halt()


class TestSleepingSemantics:
    def test_message_to_sleeping_node_is_dropped(self):
        graph = nx.path_graph(2)
        network = Network(graph, SleepyReceiver)
        metrics = network.run()
        assert network.outputs("got")[1] in (None, [])
        assert metrics.messages_dropped == 1

    def test_sleeping_node_charges_no_energy(self):
        graph = nx.path_graph(2)
        network = Network(graph, SleepyReceiver)
        network.run()
        # Node 1 was awake only in its single scheduled round.
        assert network.ledger.awake_rounds(1) == 1

    def test_scheduling_in_the_past_rejected(self):
        class BadScheduler(NodeProgram):
            def on_round(self, ctx):
                ctx.use_wake_schedule([0])  # current round is 0

        with pytest.raises(SchedulingError):
            Network(path_graph(2), BadScheduler).run()

    def test_sending_during_on_start_rejected(self):
        class EagerSender(NodeProgram):
            def on_start(self, ctx):
                if ctx.neighbors:
                    ctx.send(ctx.neighbors[0], True)

        with pytest.raises(SchedulingError):
            Network(path_graph(2), EagerSender).run()

    def test_halted_node_never_wakes_again(self):
        class HaltThenSchedule(NodeProgram):
            def on_round(self, ctx):
                ctx.output["rounds"] = ctx.output.get("rounds", 0) + 1
                if ctx.node == 0:
                    ctx.halt()
                elif ctx.round >= 2:
                    ctx.halt()

        network = Network(path_graph(2), HaltThenSchedule)
        network.run()
        assert network.outputs("rounds")[0] == 1
        assert network.outputs("rounds")[1] == 3


class TestCongestConstraints:
    def test_oversized_message_rejected(self):
        class BigTalker(NodeProgram):
            def on_round(self, ctx):
                ctx.send(ctx.neighbors[0], "x" * 10_000)

        with pytest.raises(MessageTooLargeError):
            Network(path_graph(2), BigTalker).run()

    def test_duplicate_edge_message_rejected(self):
        class DoubleSender(NodeProgram):
            def on_round(self, ctx):
                ctx.send(ctx.neighbors[0], 1)
                ctx.send(ctx.neighbors[0], 2)

        with pytest.raises(DuplicateMessageError):
            Network(path_graph(2), DoubleSender).run()

    def test_non_neighbor_rejected(self):
        class LongRangeSender(NodeProgram):
            def on_round(self, ctx):
                if ctx.node == 0:
                    ctx.send(3, True)  # nodes 0 and 3 are not adjacent
                ctx.halt()

        with pytest.raises(NotANeighborError):
            Network(path_graph(4), LongRangeSender).run()

    def test_max_message_bits_tracked(self):
        network = Network(path_graph(3), BroadcastOnce)
        metrics = network.run()
        assert metrics.max_message_bits == 1
        assert metrics.messages_sent == 4


class TestDeterminism:
    def test_same_seed_same_run(self):
        class CoinFlipper(NodeProgram):
            def on_round(self, ctx):
                ctx.output["coin"] = int(ctx.rng.integers(0, 2**30))
                ctx.halt()

        g = path_graph(5)
        net1 = Network(g, CoinFlipper, seed=42)
        net1.run()
        net2 = Network(g, CoinFlipper, seed=42)
        net2.run()
        assert net1.outputs("coin") == net2.outputs("coin")

    def test_different_seed_different_run(self):
        class CoinFlipper(NodeProgram):
            def on_round(self, ctx):
                ctx.output["coin"] = int(ctx.rng.integers(0, 2**30))
                ctx.halt()

        g = path_graph(5)
        net1 = Network(g, CoinFlipper, seed=1)
        net1.run()
        net2 = Network(g, CoinFlipper, seed=2)
        net2.run()
        assert net1.outputs("coin") != net2.outputs("coin")

    def test_per_node_rngs_are_independent(self):
        class CoinFlipper(NodeProgram):
            def on_round(self, ctx):
                ctx.output["coin"] = int(ctx.rng.integers(0, 2**30))
                ctx.halt()

        net = Network(path_graph(8), CoinFlipper, seed=7)
        net.run()
        coins = list(net.outputs("coin").values())
        assert len(set(coins)) > 1


class TestRunControl:
    def test_simulation_limit_raises(self):
        class Forever(NodeProgram):
            pass  # always awake, never halts

        graph = path_graph(2)
        network = Network(graph, Forever)
        with pytest.raises(SimulationLimitError):
            network.run(max_rounds=10)

    def test_run_rounds_exact(self):
        class Forever(NodeProgram):
            pass

        graph = path_graph(2)
        network = Network(graph, Forever)
        metrics = network.run_rounds(5)
        assert metrics.rounds == 5
        assert metrics.max_energy == 5

    def test_idle_gap_rounds_charge_nothing(self):
        class LateWaker(NodeProgram):
            def on_start(self, ctx):
                ctx.use_wake_schedule([10])

            def on_round(self, ctx):
                ctx.output["woke_at"] = ctx.round
                ctx.halt()

        network = Network(path_graph(2), LateWaker)
        metrics = network.run()
        assert metrics.rounds == 11
        assert metrics.max_energy == 1
        assert network.outputs("woke_at") == {0: 10, 1: 10}

    def test_shared_ledger_accumulates_across_networks(self):
        graph = path_graph(2)
        ledger = EnergyLedger(graph.nodes)
        Network(graph, HaltImmediately, ledger=ledger).run()
        Network(graph, HaltImmediately, ledger=ledger).run()
        assert ledger.max_energy() == 2

    def test_size_bound_overrides_budget_base(self):
        graph = path_graph(2)
        small = Network(graph, HaltImmediately)
        big = Network(graph, HaltImmediately, size_bound=2**20)
        assert big.bit_budget > small.bit_budget
