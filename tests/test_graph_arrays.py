"""CSR adjacency (:class:`GraphArrays`): builds, inductions, label mapping.

``GraphArrays(g).induced(S)`` is the hand-off between the paper's phases,
so it must equal the CSR of the networkx subgraph copy it replaces, field
by field, on every kind of labelling.
"""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import graphs
from repro.baselines.luby import LubyProgram
from repro.congest.network import ENGINE_MODES, Network
from repro.congest.vectorized import GraphArrays, graph_csr
from repro.harness import run_algorithm

from oracles import engine_path


def assert_same_csr(actual: GraphArrays, expected: GraphArrays) -> None:
    assert list(actual.nodes) == list(expected.nodes)
    assert np.array_equal(actual.indptr, expected.indptr)
    assert np.array_equal(actual.indices, expected.indices)
    assert np.array_equal(actual.degrees, expected.degrees)
    assert actual.identity_ranks == expected.identity_ranks
    assert actual.n == expected.n


def assert_induction_matches_copy(graph: nx.Graph, subset) -> None:
    induced = GraphArrays(graph).induced(subset)
    assert_same_csr(induced, GraphArrays(graph.subgraph(subset).copy()))


def _labelled(relabel) -> nx.Graph:
    graph = graphs.gnp_expected_degree(40, 5.0, seed=2)
    graph.add_nodes_from([40, 41])  # isolated
    return nx.relabel_nodes(graph, relabel)


LABELLINGS = {
    "identity": lambda v: v,
    "arbitrary": lambda v: 1000 - 7 * v,
    "tuple": lambda v: (v % 3, v // 3),
}


class TestBuild:
    @pytest.mark.parametrize("labelling", sorted(LABELLINGS))
    def test_rows_are_sorted_neighbor_ranks(self, labelling):
        graph = _labelled(LABELLINGS[labelling])
        arrays = GraphArrays(graph)
        nodes = sorted(graph.nodes)
        assert list(arrays.nodes) == nodes
        assert arrays.number_of_edges() == graph.number_of_edges()
        for rank, node in enumerate(nodes):
            row = arrays.indices[arrays.indptr[rank]:arrays.indptr[rank + 1]]
            assert [nodes[i] for i in row] == sorted(graph.neighbors(node))
            assert arrays.degrees[rank] == graph.degree(node)
            assert arrays.neighbors(node) == sorted(graph.neighbors(node))

    def test_insertion_order_does_not_matter(self):
        graph = graphs.gnp_expected_degree(60, 6.0, seed=4)
        shuffled = nx.Graph()
        order = np.random.default_rng(0).permutation(60).tolist()
        shuffled.add_nodes_from(order)
        shuffled.add_edges_from((v, u) for u, v in reversed(list(graph.edges)))
        assert_same_csr(GraphArrays(shuffled), GraphArrays(graph))

    @pytest.mark.parametrize("labelling", sorted(LABELLINGS) + ["string"])
    def test_unsorted_rows_match_sorted_build(self, labelling):
        """Adjacency rows that arrive out of order (edges added in
        descending order) take the sorting build; rows that arrive in
        order skip the sort. Both must give the same arrays."""
        relabel = LABELLINGS.get(labelling, lambda v: f"n{v:03d}")
        base = graphs.gnp_expected_degree(50, 6.0, seed=7)
        edges = sorted(
            tuple(sorted((relabel(u), relabel(v)))) for u, v in base.edges
        )
        labels = sorted(relabel(v) for v in base.nodes)
        ascending, descending = nx.Graph(), nx.Graph()
        ascending.add_nodes_from(labels)
        ascending.add_edges_from(edges)
        descending.add_nodes_from(labels)
        descending.add_edges_from(reversed(edges))
        assert all(
            list(ascending.adj[v]) == sorted(ascending.adj[v]) for v in labels
        )
        assert any(
            list(descending.adj[v]) != sorted(descending.adj[v])
            for v in labels
        )
        assert_same_csr(GraphArrays(descending), GraphArrays(ascending))
        if labelling == "identity":
            head, tail = map(np.array, zip(*edges))
            assert_same_csr(
                GraphArrays(ascending), GraphArrays.from_edges(50, head, tail)
            )

    def test_matches_edge_list_build(self):
        graph = graphs.gnp_expected_degree(80, 8.0, seed=5)
        head, tail = map(np.array, zip(*graph.edges))
        assert_same_csr(
            GraphArrays(graph), GraphArrays.from_edges(80, head, tail)
        )

    def test_graph_csr_caches_on_networkx_graph(self):
        graph = graphs.path(5)
        assert graph_csr(graph) is graph_csr(graph)
        graph.add_edge(4, 5)  # networkx clears its cache on mutation
        assert graph_csr(graph).n == 6
        arrays = GraphArrays(graph)
        assert graph_csr(arrays) is arrays

    def test_to_networkx_round_trip(self):
        graph = _labelled(LABELLINGS["tuple"])
        back = GraphArrays(graph).to_networkx()
        assert list(back.nodes) == sorted(graph.nodes)
        assert nx.utils.graphs_equal(back, graph)


class TestInduced:
    @pytest.mark.parametrize("labelling", sorted(LABELLINGS))
    def test_matches_subgraph_copy(self, labelling):
        graph = _labelled(LABELLINGS[labelling])
        nodes = sorted(graph.nodes)
        assert_induction_matches_copy(graph, set(nodes[::2]))
        assert_induction_matches_copy(graph, set(nodes[5:30]))

    @pytest.mark.parametrize("labelling", sorted(LABELLINGS))
    def test_empty_and_full_subsets(self, labelling):
        graph = _labelled(LABELLINGS[labelling])
        assert_induction_matches_copy(graph, set())
        assert_induction_matches_copy(graph, set(graph.nodes))

    def test_isolated_nodes_kept(self):
        graph = _labelled(LABELLINGS["arbitrary"])
        isolated = {1000 - 7 * 40, 1000 - 7 * 41}
        assert_induction_matches_copy(graph, isolated | {1000})
        induced = GraphArrays(graph).induced(isolated)
        assert induced.number_of_edges() == 0
        assert induced.n == 2

    def test_prefix_of_identity_labels_stays_identity(self):
        arrays = GraphArrays(graphs.path(10))
        assert arrays.induced(range(4)).identity_ranks
        assert not arrays.induced({1, 2, 3}).identity_ranks

    def test_induction_of_induction(self):
        graph = graphs.gnp_expected_degree(50, 8.0, seed=6)
        first = set(range(0, 50, 3)) | set(range(20, 40))
        second = set(range(20, 50, 2)) & first
        nested = GraphArrays(graph).induced(first).induced(second)
        assert_same_csr(nested, GraphArrays(graph.subgraph(second).copy()))

    def test_unknown_label_raises(self):
        arrays = GraphArrays(graphs.path(4))
        with pytest.raises(KeyError):
            arrays.induced({7})
        with pytest.raises(KeyError):
            GraphArrays(_labelled(LABELLINGS["tuple"])).induced({(9, 9)})

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=0, max_value=30),
        p=st.floats(min_value=0.0, max_value=1.0),
        graph_seed=st.integers(min_value=0, max_value=10_000),
        subset_seed=st.integers(min_value=0, max_value=10_000),
        offset=st.integers(min_value=-5, max_value=5),
    )
    def test_random_graphs_and_subsets(self, n, p, graph_seed, subset_seed,
                                       offset):
        graph = nx.relabel_nodes(
            nx.gnp_random_graph(n, p, seed=graph_seed), lambda v: v + offset
        )
        rng = np.random.default_rng(subset_seed)
        subset = {v for v in graph.nodes if rng.random() < 0.5}
        assert_induction_matches_copy(graph, subset)


class TestLabelledNetworks:
    """Scalar rounds on a CSR whose labels are not 0..n-1."""

    def test_neighbors_are_labels(self):
        arrays = GraphArrays.from_graph(nx.path_graph([10, 20, 30, 40, 50]))
        network = Network(arrays, LubyProgram)
        assert network._neighbors_of(20) == (10, 30)
        assert network._neighbors_of(10) == (20,)

    @pytest.mark.parametrize("engine", [*ENGINE_MODES, "legacy"])
    def test_luby_on_every_engine(self, engine):
        graph = nx.path_graph([10, 20, 30, 40, 50])
        reference = run_algorithm("luby", graph, 1)
        with engine_path(engine) as path:
            result = run_algorithm(
                "luby", GraphArrays.from_graph(graph), 1, engine=path
            )
        assert result.mis == reference.mis
        assert result.rounds == reference.rounds
        assert result.max_energy == reference.max_energy
