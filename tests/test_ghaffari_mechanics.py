"""White-box tests of the Ghaffari-2016 desire-level mechanics."""

from functools import partial

from repro import graphs
from repro.baselines import ACTIVE, JOINED, REMOVED, GhaffariProgram
from repro.congest import Network


def run(graph, iterations, executions=1, seed=0):
    make = partial(
        GhaffariProgram, iterations=iterations, executions=executions
    )
    network = Network(graph, make, seed=seed)
    network.run(max_rounds=10 * iterations + 20)
    return network.programs, network


class TestDesireDynamics:
    def test_initial_desire_half(self):
        program = GhaffariProgram()
        assert list(program.desire) == [0.5]

    def test_desire_capped_at_half(self):
        """Doubling never exceeds 1/2."""
        g = graphs.empty_graph(2)  # no neighbors: desires only double
        programs, _ = run(g, iterations=6)
        for program in programs.values():
            assert all(d <= 0.5 for d in program.desire)

    def test_desire_floor(self):
        """Halving never underflows the numeric floor."""
        g = graphs.clique(6)
        programs, _ = run(g, iterations=30)
        for program in programs.values():
            assert all(d >= 2.0**-60 for d in program.desire)

    def test_isolated_node_joins_quickly(self):
        g = graphs.empty_graph(1)
        programs, network = run(g, iterations=50)
        assert programs[0].status[0] == JOINED
        # With p=1/2 and no competition, expected ~2 iterations.
        assert programs[0].join_round[0] >= 0

    def test_join_round_recorded(self):
        g = graphs.gnp(20, 0.2, seed=1)
        programs, _ = run(g, iterations=60)
        for program in programs.values():
            if program.status[0] == JOINED:
                assert program.join_round[0] >= 0
            else:
                # -1 is the "never joined" sentinel.
                assert program.join_round[0] == -1


class TestStatusMachine:
    def test_statuses_partition(self):
        g = graphs.gnp(40, 0.2, seed=2)
        programs, _ = run(g, iterations=80)
        for program in programs.values():
            assert program.status[0] in (ACTIVE, JOINED, REMOVED)

    def test_removed_nodes_have_joined_neighbor(self):
        g = graphs.gnp(40, 0.2, seed=3)
        programs, _ = run(g, iterations=80)
        joined = {v for v, p in programs.items() if p.status[0] == JOINED}
        for v, program in programs.items():
            if program.status[0] == REMOVED:
                assert any(u in joined for u in g.neighbors(v))

    def test_no_adjacent_joiners(self):
        g = graphs.gnp(40, 0.25, seed=4)
        programs, _ = run(g, iterations=80)
        joined = {v for v, p in programs.items() if p.status[0] == JOINED}
        for v in joined:
            assert not any(u in joined for u in g.neighbors(v))


class TestMultiExecutionIsolation:
    def test_executions_have_independent_states(self):
        g = graphs.gnp(30, 0.2, seed=5)
        programs, _ = run(g, iterations=60, executions=4, seed=6)
        # Desire vectors across executions should diverge somewhere.
        diverged = any(
            len(set(p.desire)) > 1 for p in programs.values()
        )
        assert diverged

    def test_per_execution_independence_invariant(self):
        g = graphs.gnp(30, 0.25, seed=7)
        executions = 5
        programs, _ = run(g, iterations=60, executions=executions, seed=8)
        for e in range(executions):
            joined = {
                v for v, p in programs.items() if p.status[e] == JOINED
            }
            for v in joined:
                assert not any(u in joined for u in g.neighbors(v))
