"""Property tests for the engine's energy charging: the ledger must count
exactly the rounds each node was awake, no more, no less."""

from functools import partial

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import graphs
from repro.congest import EnergyLedger, Network, NodeProgram


class ScheduledSleeper(NodeProgram):
    """Wakes exactly at its node's preset list of rounds
    (``schedules[node]``) and records each wake."""

    def __init__(self, schedules):
        self.schedules = schedules
        self.observed = []

    def on_start(self, ctx):
        self.wake_rounds = sorted(set(self.schedules[ctx.node]))
        ctx.use_wake_schedule(self.wake_rounds)

    def on_round(self, ctx):
        self.observed.append(ctx.round)


@settings(max_examples=60, deadline=None)
@given(
    schedules=st.lists(
        st.lists(st.integers(min_value=0, max_value=40), max_size=8),
        min_size=2,
        max_size=6,
    )
)
def test_ledger_matches_observed_wakes(schedules):
    graph = graphs.clique(len(schedules))
    ledger = EnergyLedger(graph.nodes)
    network = Network(
        graph, partial(ScheduledSleeper, schedules), ledger=ledger
    )
    network.run()
    programs = network.programs
    for v in graph.nodes:
        assert ledger.awake_rounds(v) == len(programs[v].observed)
        assert programs[v].observed == programs[v].wake_rounds


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=8),
    halt_round=st.integers(min_value=0, max_value=10),
)
def test_halting_stops_charging(n, halt_round):
    class HaltAt(NodeProgram):
        def on_round(self, ctx):
            if ctx.round >= halt_round:
                ctx.halt()

    graph = graphs.empty_graph(n)
    ledger = EnergyLedger(graph.nodes)
    network = Network(graph, HaltAt, ledger=ledger)
    network.run()
    for v in graph.nodes:
        assert ledger.awake_rounds(v) == halt_round + 1


def test_metrics_round_count_includes_idle_gaps():
    class LateWaker(NodeProgram):
        def on_start(self, ctx):
            ctx.use_wake_schedule([7])

        def on_round(self, ctx):
            ctx.halt()

    graph = graphs.empty_graph(2)
    network = Network(graph, LateWaker)
    metrics = network.run()
    assert metrics.rounds == 8
    assert metrics.total_energy == 2
