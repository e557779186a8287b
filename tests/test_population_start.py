"""Population starts against the per-node reference starts.

The Phase I programs of both algorithms and Lemma 4.2's program start a
whole population in array passes (``NodeProgram.start_population``). Each
must leave a network exactly as its per-node ``on_start`` oracle
(``tests/oracles.py``) does: the same wake calendar and always-on set, the
same per-rank draw counters, outputs, state columns and instance
attributes. The calendar is round-keyed only and drops halted nodes
lazily; the engine tests at the bottom pin that a run still ends where
the step-every-round oracle ends.
"""

from functools import partial

import networkx as nx
import numpy as np
import pytest

from repro import graphs
from repro.congest import Network
from repro.congest.errors import SchedulingError
from repro.core.average_energy import Lemma42Program
from repro.core.config import DEFAULT_CONFIG
from repro.core.phase1_alg1 import Phase1Alg1Program
from repro.core.phase1_alg2 import Phase1Alg2Program
from repro.graphs.properties import max_degree

from oracles import engine_path, per_node_start

CLASSES = {
    "Phase1Alg1Program": Phase1Alg1Program,
    "Lemma42Program": Lemma42Program,
    "Phase1Alg2Program": Phase1Alg2Program,
}


def _factories(graph):
    """Per class, a program factory: budgets that sample a good share of
    nodes at test sizes (the default config gives zero Phase I
    iterations there)."""
    n = graph.number_of_nodes()
    delta = max(2, max_degree(graph))
    return {
        "Phase1Alg1Program": partial(Phase1Alg1Program, 4, 8, delta, 10.0),
        "Lemma42Program": partial(
            Lemma42Program, 3, 4, delta, DEFAULT_CONFIG, n
        ),
        "Phase1Alg2Program": partial(
            Phase1Alg2Program, delta, 6, DEFAULT_CONFIG
        ),
    }


#: Phase I tuning parameters ``(iterations, rounds_per_iteration, delta,
#: mark_divisor)`` at the edges of the sampler: a fixed Δ, a steep
#: divisor, a marker that fires with probability 1 in the first round (no
#: draws at all) and a budget with no rounds.
PHASE1_EDGE_CASES = {
    "fixed-delta": (4, 8, 12, 10.0),
    "steep": (3, 5, 7, 2.0),
    "p=1": (2, 6, 1, 0.5),
    "no-rounds": (0, 6, 5, 10.0),
}

GRAPHS = {
    "gnp-40": lambda: graphs.make_family("gnp_log_degree", 40, seed=3),
    "gnp-150": lambda: graphs.make_family("gnp_log_degree", 150, seed=4),
    "csr-150": lambda: graphs.make_family(
        "gnp_log_degree", 150, seed=4, as_arrays=True
    ),
    "grid-5x6": lambda: nx.grid_2d_graph(5, 6),
    "grid-9x9": lambda: nx.grid_2d_graph(9, 9),
}


def _state(network):
    """Everything a start may touch, in comparable form."""
    order = network._node_order
    programs = [network.programs[node] for node in order]
    columns = network.state_columns
    return {
        "calendar": {
            wake_round: set(entry)
            for wake_round, entry in network._wake_calendar.items()
        },
        "heap": sorted(set(network._wake_heap)),
        "always_on": set(network._always_on),
        "halted": set(network._halted),
        "counters": network.streams.counters.tolist(),
        "outputs": [network.contexts[node].output for node in order],
        "columns": (
            None if columns is None
            else {name: column.tobytes() for name, column in columns.items()}
        ),
        "attributes": [
            {
                key: value for key, value in vars(program).items()
                if not key.startswith("_state")
            }
            for program in programs
        ],
    }


def _started(graph, make, cls):
    """Two networks of the program factory ``make``, started by the
    population hook and by the per-node oracle."""
    states = []
    for reference in (False, True):
        network = Network(graph, make, seed=7)
        if reference:
            with per_node_start(cls):
                network.start()
        else:
            network.start()
        states.append(_state(network))
    return states


@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
@pytest.mark.parametrize("program", sorted(CLASSES))
def test_population_start_matches_per_node_start(program, graph_name):
    graph = GRAPHS[graph_name]()
    cls = CLASSES[program]
    population, reference = _started(graph, _factories(graph)[program], cls)
    assert population == reference
    # The comparison is not vacuous: some node sampled, and the calendar
    # holds wakes.
    assert any(output["sampled"] for output in population["outputs"])
    assert population["calendar"]
    assert population["columns"] is not None


@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
@pytest.mark.parametrize("case", sorted(PHASE1_EDGE_CASES))
def test_phase1_edge_parameters_match_per_node_start(case, graph_name):
    make = partial(Phase1Alg1Program, *PHASE1_EDGE_CASES[case])
    graph = GRAPHS[graph_name]()
    population, reference = _started(graph, make, Phase1Alg1Program)
    assert population == reference
    sampled = [output["sampled"] for output in population["outputs"]]
    if case == "p=1":
        # Everyone marks in round 0 without drawing.
        assert all(sampled)
        assert not any(population["counters"])
    elif case == "no-rounds":
        assert not any(sampled)
        assert not population["calendar"]
    else:
        assert any(sampled)


def test_past_round_raises_scheduling_error():
    graph = graphs.make_family("gnp_log_degree", 40, seed=3)
    make = partial(Phase1Alg1Program, 4, 8, 5, 10.0)
    network = Network(graph, make, seed=7)
    network.start()
    network.run_rounds(3)
    ranks = np.array([0, 1])
    with pytest.raises(SchedulingError, match="round 2 in the past"):
        network._schedule_population(ranks, ranks, lambda key: [5, 2])


# -- the lazily pruned calendar in the engines ----------------------------


def _halting_runs(graph, make):
    """Run one population to completion on every engine path; return
    (rounds, outputs, ledger) per path and the last calendar round."""
    runs = {}
    last_wake = None
    for engine in ("legacy", "fast", "vectorized"):
        network = Network(graph, make, seed=11)
        network.start()
        last_wake = max(network._wake_calendar)
        with engine_path(engine) as path:
            metrics = network.run(engine=path)
        assert not network.has_pending_work(), engine
        if engine == "vectorized":
            assert network.vector_rounds > 0
        runs[engine] = (
            metrics, network.outputs("joined"), network.ledger.snapshot()
        )
    return runs, last_wake


def test_halted_nodes_do_not_extend_the_run():
    """On a clique the first Phase I joiner dominates every other sampled
    node, which halts with later rounds still in the calendar; the run
    must end at the joiner's last wake on every path."""
    graph = graphs.clique(96)
    runs, last_wake = _halting_runs(
        graph, lambda: Phase1Alg1Program(3, 16, 95, 2.0)
    )
    assert runs["fast"] == runs["legacy"]
    assert runs["vectorized"] == runs["legacy"]
    assert runs["legacy"][0].rounds < last_wake + 1


def test_lemma42_halts_before_later_blocks():
    """Lemma 4.2 nodes halt in an early status block while their later
    blocks are still scheduled; every path must agree on where the run
    ends, and leave no pending work."""
    graph = graphs.make_family("gnp_log_degree", 96, seed=3)
    n = graph.number_of_nodes()
    runs, _ = _halting_runs(
        graph, lambda: Lemma42Program(3, 4, 4, DEFAULT_CONFIG, n)
    )
    assert runs["fast"] == runs["legacy"]
    assert runs["vectorized"] == runs["legacy"]
