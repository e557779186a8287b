"""Keyed per-node random streams (``repro.congest.streams``).

The stream is the contract that lets scalar hooks and vector kernels share
randomness: draw ``k`` of rank ``r`` depends only on (seed, r, k), and
both access paths read and bump one counter per rank.
"""

from __future__ import annotations

import math

import networkx as nx
import numpy as np
import pytest

from repro.baselines.luby import LubyProgram
from repro.congest import Network
from repro.congest.streams import NodeRandom, NodeStreams

MASK = (1 << 64) - 1
G = 0x9E3779B97F4A7C15


def _splitmix_finalizer(z):
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return z ^ (z >> 31)


def _reference_draw(seed, rank, k):
    """The documented formula, written out independently of the module."""
    key = int(np.random.SeedSequence(seed).generate_state(1, np.uint64)[0])
    inner = key ^ _splitmix_finalizer((rank * G + 1) & MASK)
    z = _splitmix_finalizer((inner + k * G) & MASK)
    return (z >> 11) * 2.0**-53


def test_draws_follow_the_documented_formula():
    streams = NodeStreams(2023, 50)
    ranks = np.array([0, 7, 49])
    first = streams.take(ranks)
    second = streams.take(ranks)
    for i, rank in enumerate(ranks.tolist()):
        assert first[i] == _reference_draw(2023, rank, 0)
        assert second[i] == _reference_draw(2023, rank, 1)


def test_scalar_view_and_take_are_bit_identical():
    n = 2000
    vector = NodeStreams(11, n)
    scalar = NodeStreams(11, n)
    views = [NodeRandom(scalar, r) for r in range(n)]
    ranks = np.arange(n)
    for _ in range(3):
        drawn = vector.take(ranks)
        expected = np.array([view.random() for view in views])
        assert np.array_equal(drawn, expected)
    assert np.array_equal(vector.counters, scalar.counters)


def test_interleaved_draws_equal_an_all_scalar_sequence():
    mixed = NodeStreams(5, 10)
    pure = NodeStreams(5, 10)
    node = 3
    mixed_view = NodeRandom(mixed, node)
    pure_view = NodeRandom(pure, node)
    sequence = []
    for step in range(12):
        if step % 3 == 0:
            sequence.append(float(mixed.take(np.array([node, 8]))[0]))
        else:
            sequence.append(mixed_view.random())
    assert sequence == [pure_view.random() for _ in range(12)]


def test_network_contexts_and_kernel_draws_share_counters():
    graph = nx.path_graph(6)
    network = Network(graph, LubyProgram, seed=9)
    twin = NodeStreams(9, 6)
    ctx = network.contexts[4]
    assert ctx.rng.random() == NodeRandom(twin, 4).random()
    kernel_draw = network.streams.take(np.array([4]))[0]
    assert kernel_draw == twin.take(np.array([4]))[0]
    assert int(network.streams.counters[4]) == 2


def test_different_seeds_and_ranks_give_different_streams():
    ranks = np.arange(1000)
    a = NodeStreams(1, 1000).take(ranks)
    b = NodeStreams(2, 1000).take(ranks)
    assert not np.any(a == b)
    assert np.unique(a).size == a.size
    assert np.all((a >= 0.0) & (a < 1.0))
    view = NodeRandom(NodeStreams(1, 1000), 0)
    assert len({view.random() for _ in range(1000)}) == 1000


def test_negative_seed_raises_like_seed_sequence():
    with pytest.raises(ValueError):
        NodeStreams(-1, 4)
    graph = nx.path_graph(3)
    with pytest.raises(ValueError):
        Network(graph, LubyProgram, seed=-1)


@pytest.mark.parametrize("p", [1.0, 0.5, 0.01])
def test_geometric_mean_within_three_standard_errors(p):
    view = NodeRandom(NodeStreams(31, 1), 0)
    samples = [view.geometric(p) for _ in range(20_000)]
    assert min(samples) >= 1
    mean = sum(samples) / len(samples)
    standard_error = math.sqrt((1.0 - p) / p**2 / len(samples))
    assert abs(mean - 1.0 / p) <= 3.0 * standard_error


def test_geometric_rejects_nonpositive_p_and_certain_coin_draws_nothing():
    streams = NodeStreams(0, 1)
    view = NodeRandom(streams, 0)
    for bad in (0.0, -0.5, float("nan")):
        with pytest.raises(ValueError):
            view.geometric(bad)
    assert view.geometric(1.0) == 1
    assert int(streams.counters[0]) == 0


@pytest.mark.parametrize("p", [1.0, 0.5, 0.01, 1e-6])
def test_population_geometric_equals_the_scalar_view(p):
    """``NodeStreams.geometric`` is ``NodeRandom.geometric`` per rank:
    the same trial counts and the same draw counters."""
    n = 3000
    vector = NodeStreams(5, n)
    scalar = NodeStreams(5, n)
    ranks = np.arange(0, n, 2)
    drawn = vector.geometric(ranks, p)
    expected = [NodeRandom(scalar, r).geometric(p) for r in ranks.tolist()]
    assert drawn.tolist() == expected
    assert np.array_equal(vector.counters, scalar.counters)
    for bad in (0.0, -0.5, float("nan")):
        with pytest.raises(ValueError):
            vector.geometric(ranks, bad)


def test_integers_stay_in_range():
    view = NodeRandom(NodeStreams(4, 1), 0)
    values = [view.integers(3, 10) for _ in range(5000)]
    assert min(values) == 3 and max(values) == 9
    assert all(isinstance(v, int) for v in values)


def test_building_a_network_never_spawns_generators(monkeypatch):
    graph = nx.gnp_random_graph(200, 0.05, seed=3)

    def forbidden(*args, **kwargs):
        raise AssertionError("np.random.default_rng called")

    monkeypatch.setattr(np.random, "default_rng", forbidden)
    network = Network(graph, LubyProgram, seed=1)
    network.run()
    assert network.vector_rounds > 0
