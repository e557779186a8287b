"""Tests for MIS verification, including hypothesis property tests."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import graphs
from repro.analysis import (
    greedy_completion,
    is_independent_set,
    is_maximal_independent_set,
    uncovered_nodes,
    verify_mis,
)
from repro.congest.vectorized import GraphArrays


class TestIndependence:
    def test_empty_set_is_independent(self):
        assert is_independent_set(graphs.path(3), set())

    def test_adjacent_pair_not_independent(self):
        assert not is_independent_set(graphs.path(3), {0, 1})

    def test_alternating_path_is_independent(self):
        assert is_independent_set(graphs.path(5), {0, 2, 4})

    def test_unknown_node_raises(self):
        with pytest.raises(KeyError):
            is_independent_set(graphs.path(3), {7})


class TestMaximality:
    def test_alternating_path_is_maximal(self):
        assert is_maximal_independent_set(graphs.path(5), {0, 2, 4})

    def test_submaximal_detected(self):
        report = verify_mis(graphs.path(5), {0})
        assert report.independent
        assert not report.maximal
        assert set(report.uncovered_nodes) == {2, 3, 4}

    def test_conflict_detected(self):
        report = verify_mis(graphs.path(3), {0, 1})
        assert not report.independent
        assert report.conflicting_edges == [(0, 1)]

    def test_isolated_nodes_must_be_included(self):
        g = graphs.empty_graph(3)
        assert not is_maximal_independent_set(g, {0, 1})
        assert is_maximal_independent_set(g, {0, 1, 2})

    def test_star_hub_alone_is_maximal(self):
        g = graphs.star(6)
        assert is_maximal_independent_set(g, {0})

    def test_star_leaves_are_maximal(self):
        g = graphs.star(6)
        assert is_maximal_independent_set(g, set(range(1, 6)))


class TestGreedyCompletion:
    def test_completes_empty_set(self):
        g = graphs.path(5)
        completed = greedy_completion(g, set())
        assert is_maximal_independent_set(g, completed)

    def test_preserves_given_nodes(self):
        g = graphs.path(5)
        completed = greedy_completion(g, {2})
        assert 2 in completed
        assert is_maximal_independent_set(g, completed)

    def test_rejects_dependent_input(self):
        with pytest.raises(ValueError):
            greedy_completion(graphs.path(3), {0, 1})


@st.composite
def random_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=30))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    p = draw(st.floats(min_value=0.0, max_value=1.0))
    return graphs.gnp(n, p, seed=seed)


@settings(max_examples=100, deadline=None)
@given(graph=random_graphs())
def test_greedy_completion_always_yields_valid_mis(graph):
    completed = greedy_completion(graph, set())
    report = verify_mis(graph, completed)
    assert report.valid


@settings(max_examples=100, deadline=None)
@given(graph=random_graphs())
def test_uncovered_nodes_consistency(graph):
    """A set is maximal iff it is independent and covers everything."""
    mis = greedy_completion(graph, set())
    assert uncovered_nodes(graph, mis) == []
    if mis:
        # Dropping any single member un-covers at least that member.
        victim = next(iter(mis))
        reduced = mis - {victim}
        assert victim in set(uncovered_nodes(graph, reduced)) | {
            u for v in reduced for u in graph.neighbors(v)
        }


LABELS = {
    "identity": lambda v: v,
    "shifted": lambda v: 3 * v + 1,
    "string": lambda v: f"v{v:02d}",
}


@settings(max_examples=150, deadline=None)
@given(
    graph=random_graphs(),
    labelling=st.sampled_from(sorted(LABELS)),
    picks=st.lists(st.integers(min_value=0, max_value=29), max_size=30),
    unknown=st.booleans(),
)
def test_array_check_matches_dict_walk(graph, labelling, picks, unknown):
    """A ``GraphArrays`` input is checked on its CSR arrays, a networkx
    input by walking its adjacency; both report the same conflicts,
    uncovered nodes and verdicts, and both reject unknown labels."""
    relabel = LABELS[labelling]
    graph = nx.relabel_nodes(graph, relabel)
    n = graph.number_of_nodes()
    candidate = {relabel(v % n) for v in picks}
    if unknown:
        candidate.add(relabel(n + 5))
        with pytest.raises(KeyError):
            verify_mis(graph, candidate)
        with pytest.raises(KeyError):
            verify_mis(GraphArrays(graph), candidate)
        return
    walked = verify_mis(graph, candidate)
    arrays = verify_mis(GraphArrays(graph), candidate)
    assert arrays.independent == walked.independent
    assert arrays.maximal == walked.maximal
    assert arrays.valid == walked.valid
    assert sorted(arrays.conflicting_edges) == sorted(walked.conflicting_edges)
    assert arrays.uncovered_nodes == sorted(walked.uncovered_nodes)
    assert arrays.conflicting_edges == sorted(arrays.conflicting_edges)
