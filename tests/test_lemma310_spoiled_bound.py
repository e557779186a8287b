"""Lemma 3.10: each node has at most ~4·Δ^0.6 sampled (spoilable) neighbors.

We observe the sampling directly from the Phase-1-of-Algorithm-2 programs:
the bound is what keeps the residual degree at ``8·Δ^0.6`` after the final
sweep removes the high-degree independent set.
"""

from functools import partial

import pytest

from repro import graphs
from repro.congest import Network
from repro.core.config import DEFAULT_CONFIG
from repro.core.phase1_alg2 import Phase1Alg2Program, sampling_rounds


def run_programs(graph, delta, seed=0):
    n = graph.number_of_nodes()
    rounds = sampling_rounds(n, delta, DEFAULT_CONFIG)
    make = partial(Phase1Alg2Program, delta, rounds, DEFAULT_CONFIG)
    network = Network(graph, make, seed=seed, size_bound=n)
    network.run_rounds(4 * rounds + 4)
    return network.programs


class TestSpoiledNeighborBound:
    @pytest.mark.parametrize("delta", [100, 200, 300])
    def test_sampled_neighbors_bounded(self, delta):
        n = max(400, 4 * delta)
        graph = graphs.planted_max_degree(n, delta, seed=delta)
        programs = run_programs(graph, delta)
        sampled = {
            v for v, p in programs.items() if p.action_round >= 0
        }
        bound = 1.5 * 4 * delta**0.6  # Lemma 3.10's 4Δ^0.6, 50% slack
        worst = max(
            sum(1 for u in graph.neighbors(v) if u in sampled)
            for v in graph.nodes
        )
        assert worst <= bound

    def test_each_node_acts_at_most_once(self):
        delta = 150
        graph = graphs.planted_max_degree(600, delta, seed=1)
        programs = run_programs(graph, delta)
        for program in programs.values():
            roles = [
                r for r in (program.tag_round, program.premark_round)
                if r >= 0
            ]
            if roles:
                # both roles, if present, coincide with the action round
                assert all(r == program.action_round for r in roles)

    def test_sampling_probability_shape(self):
        """The fraction of sampled nodes tracks R·(Δ^-0.5 + Δ^-0.6/2)."""
        delta = 200
        n = 800
        graph = graphs.planted_max_degree(n, delta, seed=2)
        programs = run_programs(graph, delta)
        sampled = sum(
            1 for p in programs.values() if p.action_round >= 0
        )
        rounds = sampling_rounds(n, delta, DEFAULT_CONFIG)
        expected = n * rounds * (delta**-0.5 + 0.5 * delta**-0.6)
        assert sampled <= 2.5 * expected
        assert sampled >= expected / 4
