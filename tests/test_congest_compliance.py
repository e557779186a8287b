"""CONGEST compliance: every engine-run algorithm must respect the
``B = O(log n)``-bit message budget, and the bit claims the paper makes for
individual phases must hold (1-bit marks, K-bit execution vectors,
O(log n)-bit counters)."""

from functools import partial

from repro import graphs
from repro.baselines import (
    GhaffariProgram,
    ghaffari_mis,
    luby_mis,
    regularized_luby_mis,
)
from repro.congest import Network, default_bit_budget
from repro.core import run_lemma31_iteration, run_phase1_alg1, run_phase2


class TestBudgets:
    def test_luby_messages_tiny(self):
        g = graphs.gnp_expected_degree(200, 20.0, seed=0)
        result = luby_mis(g, seed=0)
        # (mark flag, degree) pairs: a few dozen bits.
        assert result.metrics.max_message_bits <= default_bit_budget(200)

    def test_regularized_luby_single_bit(self):
        g = graphs.gnp_expected_degree(150, 20.0, seed=1)
        result = regularized_luby_mis(g, seed=0)
        assert result.metrics.max_message_bits <= 1

    def test_ghaffari_single_execution_bits(self):
        g = graphs.gnp_expected_degree(150, 15.0, seed=2)
        result = ghaffari_mis(g, seed=0)
        assert result.metrics.max_message_bits <= 3  # one framed bit

    def test_phase1_alg1_single_bit(self):
        g = graphs.gnp_expected_degree(400, 160.0, seed=3)
        result = run_phase1_alg1(g, seed=0, size_bound=400)
        assert result.metrics.max_message_bits <= 1

    def test_phase1_alg2_log_bits(self):
        """The A_v counters are the biggest payloads: O(log n) bits."""
        g = graphs.planted_max_degree(400, 100, seed=4)
        result = run_lemma31_iteration(g, 100, seed=0, size_bound=400)
        assert result.metrics.max_message_bits <= default_bit_budget(400)

    def test_phase2_within_budget(self):
        g = graphs.gnp_expected_degree(300, 16.0, seed=5)
        result = run_phase2(g, seed=0, size_bound=300)
        assert result.metrics.max_message_bits <= default_bit_budget(300)

    def test_parallel_executions_fill_but_fit_budget(self):
        """Θ(log n) executions × ~3 bits must still fit B = Θ(log n)."""
        n = 1024
        g = graphs.gnp(40, 0.2, seed=6)
        executions = 10  # = log2(1024)
        make = partial(GhaffariProgram, iterations=30, executions=executions)
        network = Network(g, make, seed=0, size_bound=n)
        network.run(max_rounds=400)
        assert network.max_message_bits <= default_bit_budget(n)
        assert network.max_message_bits >= executions  # actually multi-bit

    def test_budget_scales_with_size_bound(self):
        assert default_bit_budget(2**20) > default_bit_budget(2**10)
