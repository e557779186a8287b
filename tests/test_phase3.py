"""Tests for Phase III (Lemma 2.7): merge + parallel executions + selection."""

import hashlib

import networkx as nx
import pytest

from repro import graphs
from repro.analysis import is_independent_set, verify_mis
from repro.cluster import singleton_clusters
from repro.congest import EnergyLedger
from repro.core import run_phase2, run_phase3
from repro.core.config import DEFAULT_CONFIG
from repro.harness import run_algorithm


def components_of(graph, size_bound=None, seed=0):
    """Build phase-3 inputs from a graph via phase 2's clustering."""
    n = size_bound or graph.number_of_nodes()
    result = run_phase2(graph, seed=seed, size_bound=n)
    return result


class TestPhase3Basics:
    def test_empty_components(self):
        result = run_phase3([], seed=0, size_bound=100)
        assert result.joined == set()
        assert result.details["components"] == 0

    def test_single_component_decided(self):
        g = graphs.clique(6)
        state = singleton_clusters(g)
        result = run_phase3([state], seed=0, size_bound=1000)
        assert len(result.joined) == 1
        assert result.remaining == set()
        result.check_partition(set(g.nodes))

    def test_path_component(self):
        g = graphs.path(15)
        state = singleton_clusters(g)
        result = run_phase3([state], seed=0, size_bound=1000)
        assert verify_mis(g, result.joined).valid

    def test_multiple_components_in_parallel(self):
        g1 = graphs.path(8)
        g2 = nx.relabel_nodes(graphs.cycle(6), {i: 100 + i for i in range(6)})
        states = [singleton_clusters(g1), singleton_clusters(g2)]
        result = run_phase3(states, seed=0, size_bound=1000)
        assert verify_mis(g1, result.joined & set(g1.nodes)).valid
        assert verify_mis(g2, result.joined & set(g2.nodes)).valid

    def test_rounds_are_max_not_sum(self):
        """Components run in parallel: rounds should not scale with count."""
        single = [singleton_clusters(graphs.path(8))]
        many = [
            singleton_clusters(
                nx.relabel_nodes(
                    graphs.path(8), {i: 100 * k + i for i in range(8)}
                )
            )
            for k in range(1, 6)
        ]
        r1 = run_phase3(single, seed=0, size_bound=1000)
        r2 = run_phase3(many, seed=0, size_bound=1000)
        assert r2.metrics.rounds <= 2 * r1.metrics.rounds + 40

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            run_phase3([], seed=0, size_bound=10, variant="alg3")


class TestVariants:
    def test_alg2_variant_also_valid(self):
        g = graphs.gnp(40, 0.15, seed=1)
        comp = max(nx.connected_components(g), key=lambda c: (len(c), min(c)))
        sub = g.subgraph(comp).copy()
        state = singleton_clusters(sub)
        result = run_phase3([state], seed=0, size_bound=1000, variant="alg2")
        assert verify_mis(sub, result.joined & comp).valid


class TestEndToEndWithPhase2:
    def test_phase2_to_phase3_pipeline(self):
        n = 600
        g = graphs.gnp_expected_degree(n, 24.0, seed=2)
        ledger = EnergyLedger(g.nodes)
        p2 = run_phase2(g, seed=0, ledger=ledger, size_bound=n)
        p3 = run_phase3(
            p2.components, seed=1, ledger=ledger, size_bound=n
        )
        mis = p2.joined | p3.joined
        if not p3.remaining:  # no component failures
            assert verify_mis(g, mis).valid
        else:
            assert is_independent_set(g, mis)

    def test_failures_are_rare(self):
        failures = 0
        for seed in range(5):
            n = 400
            g = graphs.gnp_expected_degree(n, 20.0, seed=seed)
            p2 = run_phase2(g, seed=seed, size_bound=n)
            p3 = run_phase3(p2.components, seed=seed, size_bound=n)
            failures += p3.details["failures"]
        assert failures == 0

    def test_energy_stays_small(self):
        """Phase III energy: O(1) per merge iteration + execution block."""
        n = 600
        g = graphs.gnp_expected_degree(n, 24.0, seed=3)
        p2 = run_phase2(g, seed=0, size_bound=n)
        ledger = EnergyLedger(g.nodes)
        p3 = run_phase3(p2.components, seed=0, ledger=ledger, size_bound=n)
        if p2.components:
            iterations = DEFAULT_CONFIG.phase3_iterations(
                max(len(c.graph) for c in p2.components)
            )
            # executions block: 2 rounds/iteration; merge: bounded constant
            # per Borůvka iteration; selection: a few tree ops.
            assert p3.metrics.max_energy <= 2 * iterations + 40 * 10


class TestNodeLabels:
    """Phase III seeds each component by a label-independent integer
    (``SeedSequence`` takes only non-negative ints); runs on other labels
    are covered by ``test_smoke_matrix.py``."""

    #: Records of the paper's drivers on non-negative-int labels, where the
    #: component key is the least label itself: (MIS size, SHA-256 prefix
    #: of the sorted MIS, rounds, total energy, max energy). Phase III
    #: seeds at least one component on all but two of these runs.
    PINNED = {
        ("algorithm1", "gnp_log_degree", 1):
            (35, "88771d5a333ed027", 37, 921, 37),
        ("algorithm1", "gnp_log_degree", 2):
            (41, "1a5bfb90a020124b", 39, 849, 39),
        ("algorithm1", "geometric", 1):
            (10, "14de3cc76293f729", 51, 1762, 47),
        ("algorithm1", "geometric", 2):
            (8, "31724b83fec44bcb", 12, 1002, 12),
        ("algorithm1", "grid", 1):
            (36, "ef37d57c16282947", 115, 1040, 69),
        ("algorithm1", "grid", 2):
            (43, "b572449e448fbecf", 35, 771, 33),
        ("algorithm2", "gnp_log_degree", 1):
            (38, "9a9a80dc3ff688d4", 39, 825, 37),
        ("algorithm2", "gnp_log_degree", 2):
            (39, "50317f3841ab3abd", 47, 1237, 41),
        ("algorithm2", "geometric", 1):
            (11, "e2996ed452626244", 18, 1192, 18),
        ("algorithm2", "geometric", 2):
            (11, "6abab5016a1d9180", 41, 1342, 39),
        ("algorithm2", "grid", 1):
            (42, "3da02ef66d05b46b", 31, 534, 31),
        ("algorithm2", "grid", 2):
            (39, "865a11c45b49ba9d", 139, 1474, 71),
    }

    @pytest.mark.parametrize("algorithm, family, seed", sorted(PINNED))
    def test_int_labelled_records_are_pinned(self, algorithm, family, seed):
        """Keying components by rank applies to other labels only: on
        non-negative ints every seed, and so every record, is unchanged."""
        g = graphs.make_family(family, 120, seed=seed)
        result = run_algorithm(algorithm, g, seed=seed)
        mis = sorted(result.mis)
        digest = hashlib.sha256(repr(mis).encode()).hexdigest()[:16]
        m = result.metrics
        assert (len(mis), digest, result.rounds, m.total_energy,
                m.max_energy) == self.PINNED[algorithm, family, seed]
