"""Direct tests of the node Context API."""


from repro import graphs
from repro.congest import EnergyLedger, Network, NodeProgram


class Recorder(NodeProgram):
    def __init__(self):
        self.rounds_seen = []

    def on_round(self, ctx):
        self.rounds_seen.append(ctx.round)
        if len(self.rounds_seen) >= 3:
            ctx.halt()


class TestContextBasics:
    def test_degree_and_neighbors(self):
        graph = graphs.star(4)
        observed = {}

        class Inspect(NodeProgram):
            def on_round(self, ctx):
                observed[ctx.node] = (ctx.degree, ctx.neighbors)
                ctx.halt()

        Network(graph, Inspect).run()
        assert observed[0] == (3, (1, 2, 3))
        assert observed[1] == (1, (0,))

    def test_round_is_minus_one_in_on_start(self):
        seen = {}

        class StartRound(NodeProgram):
            def on_start(self, ctx):
                seen[ctx.node] = ctx.round

            def on_round(self, ctx):
                ctx.halt()

        graph = graphs.path(2)
        Network(graph, StartRound).run()
        assert set(seen.values()) == {-1}

    def test_output_dict_accessible_after_run(self):
        class Writer(NodeProgram):
            def on_round(self, ctx):
                ctx.output["value"] = ctx.node * 2
                ctx.halt()

        graph = graphs.path(3)
        network = Network(graph, Writer)
        network.run()
        assert network.outputs("value") == {0: 0, 1: 2, 2: 4}

    def test_outputs_default(self):
        class Silent(NodeProgram):
            def on_round(self, ctx):
                ctx.halt()

        graph = graphs.path(2)
        network = Network(graph, Silent)
        network.run()
        assert network.outputs("missing", default=-1) == {0: -1, 1: -1}


class TestWakeControl:
    def test_stay_awake_after_schedule(self):
        """A node can return to always-awake mode mid-run."""
        woke = []

        class NapThenWork(NodeProgram):
            def on_start(self, ctx):
                ctx.use_wake_schedule([3])

            def on_round(self, ctx):
                woke.append(ctx.round)
                if ctx.round == 3:
                    ctx.stay_awake()
                elif ctx.round >= 5:
                    ctx.halt()

        graph = graphs.empty_graph(1)
        network = Network(graph, NapThenWork)
        network.run()
        assert woke == [3, 4, 5]

    def test_wake_at_single_round(self):
        class OneShot(NodeProgram):
            def on_start(self, ctx):
                ctx.wake_at(2)

            def on_round(self, ctx):
                ctx.output["at"] = ctx.round

        graph = graphs.empty_graph(1)
        network = Network(graph, OneShot)
        network.run()
        assert network.outputs("at")[0] == 2

    def test_halted_property(self):
        class CheckHalt(NodeProgram):
            def on_round(self, ctx):
                assert not ctx.halted
                ctx.halt()
                assert ctx.halted

        graph = graphs.empty_graph(1)
        Network(graph, CheckHalt).run()

    def test_stay_awake_noop_after_halt(self):
        class HaltThenStay(NodeProgram):
            def on_round(self, ctx):
                ctx.halt()
                ctx.stay_awake()  # must not resurrect the node

        graph = graphs.empty_graph(1)
        ledger = EnergyLedger(graph.nodes)
        network = Network(graph, HaltThenStay, ledger=ledger)
        network.run()
        assert ledger.awake_rounds(0) == 1

    def test_rescheduling_extends_wakes(self):
        class Chain(NodeProgram):
            def __init__(self):
                self.count = 0

            def on_start(self, ctx):
                ctx.use_wake_schedule([1])

            def on_round(self, ctx):
                self.count += 1
                if self.count < 3:
                    ctx.use_wake_schedule([ctx.round + 2])

        graph = graphs.empty_graph(1)
        ledger = EnergyLedger(graph.nodes)
        network = Network(graph, Chain, ledger=ledger)
        network.run()
        assert ledger.awake_rounds(0) == 3
