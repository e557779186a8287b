"""Tests for the Ghaffari-2016 MIS program (single- and multi-execution)."""

from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import graphs
from repro.analysis import verify_mis
from repro.baselines import (
    ACTIVE,
    JOINED,
    GhaffariProgram,
    ghaffari_mis,
    ghaffari_shatter,
)
from repro.congest import Network


class TestGhaffariBaseline:
    def test_path_valid(self):
        g = graphs.path(12)
        result = ghaffari_mis(g, seed=0)
        assert verify_mis(g, result.mis).valid

    def test_clique_valid(self):
        g = graphs.clique(9)
        result = ghaffari_mis(g, seed=2)
        assert len(result.mis) == 1

    def test_empty_graph(self):
        g = graphs.empty_graph(4)
        result = ghaffari_mis(g, seed=0)
        assert result.mis == {0, 1, 2, 3}

    def test_gnp_valid(self):
        g = graphs.gnp(80, 0.08, seed=3)
        result = ghaffari_mis(g, seed=1)
        assert verify_mis(g, result.mis).valid

    def test_determinism(self):
        g = graphs.gnp(50, 0.1, seed=5)
        assert ghaffari_mis(g, seed=7).mis == ghaffari_mis(g, seed=7).mis

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            GhaffariProgram(executions=0)
        with pytest.raises(ValueError):
            GhaffariProgram(iterations=-1)


class TestShattering:
    def test_budgeted_run_halts_on_time(self):
        g = graphs.gnp(100, 0.1, seed=0)
        joined, undecided, network = ghaffari_shatter(g, iterations=5, seed=0)
        assert network.metrics().rounds <= 2 * 5 + 2

    def test_partition_is_consistent(self):
        g = graphs.gnp(100, 0.1, seed=1)
        joined, undecided, _ = ghaffari_shatter(g, iterations=8, seed=0)
        assert joined.isdisjoint(undecided)
        report = verify_mis(g, joined)
        assert report.independent

    def test_zero_iterations_decides_nothing(self):
        g = graphs.path(6)
        joined, undecided, network = ghaffari_shatter(g, iterations=0, seed=0)
        assert joined == set()
        assert undecided == set(g.nodes)
        assert network.metrics().max_energy == 0
        # Every node reports the initial status, read off the template:
        # the start builds no program.
        assert network.outputs("status") == dict.fromkeys(g.nodes, (ACTIVE,))
        assert network.programs.built() == {}

    def test_more_iterations_fewer_undecided(self):
        g = graphs.gnp(200, 0.05, seed=2)
        _, undecided_short, _ = ghaffari_shatter(g, iterations=2, seed=0)
        _, undecided_long, _ = ghaffari_shatter(g, iterations=30, seed=0)
        assert len(undecided_long) <= len(undecided_short)

    def test_long_budget_decides_everything_on_small_graph(self):
        g = graphs.gnp(40, 0.15, seed=3)
        joined, undecided, _ = ghaffari_shatter(g, iterations=120, seed=1)
        assert not undecided
        assert verify_mis(g, joined).valid


class TestParallelExecutions:
    def _run(self, graph, executions, iterations, seed=0):
        make = partial(GhaffariProgram, iterations=iterations,
                       executions=executions)
        network = Network(graph, make, seed=seed)
        network.run(max_rounds=10 * iterations + 16)
        return network.programs

    def test_each_execution_is_independent_set(self):
        g = graphs.gnp(40, 0.2, seed=4)
        executions = 8
        programs = self._run(g, executions, iterations=60)
        for e in range(executions):
            mis_e = {v for v, p in programs.items() if p.status[e] == JOINED}
            assert verify_mis(g, mis_e).independent

    def test_executions_differ(self):
        g = graphs.gnp(60, 0.15, seed=5)
        programs = self._run(g, executions=6, iterations=60, seed=9)
        sets = {
            frozenset(v for v, p in programs.items() if p.status[e] == JOINED)
            for e in range(6)
        }
        assert len(sets) > 1

    def test_at_least_one_execution_completes(self):
        """The Phase III argument: some execution decides every node."""
        g = graphs.gnp(30, 0.2, seed=6)
        executions = 10
        programs = self._run(g, executions, iterations=80, seed=3)
        complete = [
            e
            for e in range(executions)
            if all(p.status[e] != ACTIVE for p in programs.values())
        ]
        assert complete

    def test_bit_vector_messages_fit_budget(self):
        g = graphs.gnp(40, 0.2, seed=7)
        executions = 8
        make = partial(GhaffariProgram, iterations=40, executions=executions)
        network = Network(g, make, seed=0)
        network.run(max_rounds=500)
        assert network.max_message_bits <= 3 * executions


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=30),
    p=st.floats(min_value=0.0, max_value=0.5),
    graph_seed=st.integers(min_value=0, max_value=100),
    run_seed=st.integers(min_value=0, max_value=100),
)
def test_ghaffari_always_valid_mis(n, p, graph_seed, run_seed):
    graph = graphs.gnp(n, p, seed=graph_seed)
    result = ghaffari_mis(graph, seed=run_seed)
    assert verify_mis(graph, result.mis).valid
