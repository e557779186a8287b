"""Cross-check: the engine-observed wake rounds of Phase I participants
must be exactly the rounds their Lemma 2.5 schedule dictates."""

from functools import partial

from repro import graphs
from repro.congest import Network
from repro.core.config import DEFAULT_CONFIG
from repro.core.phase1_alg1 import Phase1Alg1Program
from repro.graphs.properties import max_degree
from repro.schedule import schedule_for_round


def test_phase1_wakes_match_schedule():
    n = 500
    graph = graphs.gnp_expected_degree(n, 200.0, seed=0)
    delta = max_degree(graph)
    iterations = DEFAULT_CONFIG.phase1_iterations(n, delta)
    rounds = DEFAULT_CONFIG.phase1_rounds_per_iteration(n)
    assert iterations >= 1
    total = iterations * rounds

    make = partial(Phase1Alg1Program, iterations, rounds, delta, 10.0)
    network = Network(graph, make, seed=0, trace=True)
    network.run_rounds(3 * total)

    checked = 0
    for node, program in network.programs.items():
        observed = network.trace.wake_rounds_of(node)
        if program.marked_round < 0:
            assert observed == []
            continue
        schedule = schedule_for_round(total, program.marked_round)
        expected = set()
        for entry in schedule:
            expected.add(3 * entry)  # status sub-round
            expected.add(3 * entry + 2)  # join sub-round
            if entry == program.marked_round:
                expected.add(3 * entry + 1)  # mark sub-round
        # A dominated node halts early: its observed wakes are a prefix.
        assert set(observed) <= expected
        if not program.dominated:
            assert set(observed) == expected
        checked += 1
    assert checked >= 1  # some nodes were sampled


def test_phase1_energy_equals_wake_count():
    n = 400
    graph = graphs.gnp_expected_degree(n, 160.0, seed=1)
    delta = max_degree(graph)
    iterations = DEFAULT_CONFIG.phase1_iterations(n, delta)
    rounds = DEFAULT_CONFIG.phase1_rounds_per_iteration(n)
    make = partial(Phase1Alg1Program, iterations, rounds, delta, 10.0)
    network = Network(graph, make, seed=0, trace=True)
    network.run_rounds(3 * iterations * rounds)
    for node in graph.nodes:
        assert network.ledger.awake_rounds(node) == len(
            network.trace.wake_rounds_of(node)
        )
