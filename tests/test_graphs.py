"""Tests for graph generators and property helpers."""

import networkx as nx
import pytest

from repro import graphs


class TestGenerators:
    def test_empty_graph_has_no_edges(self):
        g = graphs.empty_graph(5)
        assert g.number_of_nodes() == 5
        assert g.number_of_edges() == 0

    def test_path_and_cycle(self):
        assert graphs.path(4).number_of_edges() == 3
        assert graphs.cycle(4).number_of_edges() == 4

    def test_cycle_too_small_rejected(self):
        with pytest.raises(ValueError):
            graphs.cycle(2)

    def test_star_degrees(self):
        g = graphs.star(10)
        assert graphs.max_degree(g) == 9
        assert g.number_of_nodes() == 10

    def test_clique_edge_count(self):
        g = graphs.clique(6)
        assert g.number_of_edges() == 15

    def test_grid_nodes_are_ints(self):
        g = graphs.grid_2d(3, 4)
        assert g.number_of_nodes() == 12
        assert all(isinstance(v, int) for v in g.nodes)

    def test_balanced_tree_size(self):
        g = graphs.balanced_tree(2, 3)
        assert g.number_of_nodes() == 15

    def test_caterpillar_structure(self):
        g = graphs.caterpillar(spine=3, legs_per_node=2)
        assert g.number_of_nodes() == 9
        assert nx.is_tree(g)

    def test_gnp_determinism(self):
        g1 = graphs.gnp(50, 0.1, seed=3)
        g2 = graphs.gnp(50, 0.1, seed=3)
        assert set(g1.edges) == set(g2.edges)

    def test_gnp_seed_changes_graph(self):
        g1 = graphs.gnp(50, 0.2, seed=1)
        g2 = graphs.gnp(50, 0.2, seed=2)
        assert set(g1.edges) != set(g2.edges)

    def test_gnp_bad_probability_rejected(self):
        with pytest.raises(ValueError):
            graphs.gnp(10, 1.5)

    def test_gnp_keeps_isolated_nodes(self):
        g = graphs.gnp(30, 0.0, seed=0)
        assert g.number_of_nodes() == 30

    def test_gnp_expected_degree(self):
        g = graphs.gnp_expected_degree(400, 10.0, seed=1)
        mean_degree = 2 * g.number_of_edges() / g.number_of_nodes()
        assert 5.0 < mean_degree < 15.0

    def test_random_regular_is_regular(self):
        g = graphs.random_regular(20, 4, seed=5)
        assert set(d for _, d in g.degree) == {4}

    @pytest.mark.parametrize("n,degree", [(51, 48), (58, 52), (24, 16),
                                          (12, 11)])
    def test_dense_random_regular_is_regular(self, n, degree):
        """Above (n-1)/2 the graph is the complement of a sparse regular
        one: still exactly ``degree``-regular on the nodes 0..n-1."""
        g = graphs.random_regular(n, degree, seed=3)
        assert sorted(g.nodes) == list(range(n))
        assert set(d for _, d in g.degree) == {degree}
        assert g.number_of_edges() == n * degree // 2

    def test_random_regular_parity_rejected(self):
        with pytest.raises(ValueError):
            graphs.random_regular(5, 3)

    def test_random_geometric_default_radius_connects(self):
        g = graphs.random_geometric(200, seed=4)
        assert nx.is_connected(g)

    def test_barabasi_albert_heavy_tail(self):
        g = graphs.barabasi_albert(300, 3, seed=2)
        assert graphs.max_degree(g) > 10

    def test_barabasi_albert_small_n_falls_back_to_clique(self):
        g = graphs.barabasi_albert(3, 3, seed=0)
        assert g.number_of_edges() == 3

    def test_disjoint_cliques(self):
        g = graphs.disjoint_cliques(4, 5)
        sizes = graphs.component_sizes(g)
        assert sizes == [5, 5, 5, 5]

    def test_planted_max_degree(self):
        g = graphs.planted_max_degree(100, 9, seed=0)
        assert graphs.max_degree(g) <= 9

    def test_family_registry(self):
        for name in graphs.FAMILIES:
            g = graphs.make_family(name, 64, seed=0)
            assert g.number_of_nodes() >= 1

    def test_unknown_family_rejected(self):
        with pytest.raises(KeyError):
            graphs.make_family("nope", 10)


class TestProperties:
    def test_max_degree_empty(self):
        assert graphs.max_degree(nx.Graph()) == 0

    def test_component_sizes_sorted(self):
        g = graphs.disjoint_cliques(2, 3)
        g.add_node(99)
        assert graphs.component_sizes(g) == [3, 3, 1]

    def test_remove_closed_neighborhoods(self):
        g = graphs.star(5)  # hub 0, leaves 1..4
        residual = graphs.remove_closed_neighborhoods(g, {0})
        assert residual.number_of_nodes() == 0

    def test_remove_closed_neighborhoods_partial(self):
        g = graphs.path(5)
        residual = graphs.remove_closed_neighborhoods(g, {0})
        assert set(residual.nodes) == {2, 3, 4}

    def test_closed_neighborhood(self):
        g = graphs.path(4)
        assert graphs.closed_neighborhood(g, {1}) == {0, 1, 2}

    def test_degrees_within(self):
        g = graphs.clique(4)
        degs = graphs.degrees_within(g, {0, 1, 2})
        assert degs == {0: 2, 1: 2, 2: 2}

    def test_eccentricity_upper_bound_path(self):
        g = graphs.path(10)
        bound = graphs.eccentricity_upper_bound(g)
        assert bound >= 9  # true diameter
        assert bound <= 18  # 2x bound

    def test_induced_subgraph_is_detached(self):
        g = graphs.path(4)
        sub = graphs.induced_subgraph(g, {0, 1})
        g.add_edge(0, 99)
        g.add_edge(1, 3)
        assert 99 not in sub
        assert list(sub.nodes) == [0, 1]
        assert sub.neighbors(1) == [0]
