"""One run's options reach every network its driver builds.

``run_algorithm`` builds one :class:`~repro.congest.RunOptions` (engine,
channel, node faults, instrument) and each driver hands its fields to
every :class:`~repro.congest.Network` of every phase. These tests watch
every network a run constructs and check that each one got all four.
"""

import pytest

from repro.congest import LocalChannel, Network, VectorizationError
from repro.faults import FaultPlan
from repro.graphs import make_family
from repro.harness import (
    ALGORITHM_TABLE,
    VECTOR_CAPABLE_ALGORITHMS,
    run_algorithm,
)
from repro.obs import Instrument

# Above VECTOR_AUTO_MIN_NODES, so "auto" would vectorize the kernel-bearing
# networks: zero vector rounds then shows the "fast" engine arrived.
N = 150


class NetworkCollector(Instrument):
    """Keep every network that reports its run start."""

    def __init__(self):
        self.networks = []

    def on_run_start(self, network):
        self.networks.append(network)


@pytest.fixture
def built_networks(monkeypatch):
    """Every Network constructed while the test runs, instrumented or not."""
    built = []
    init = Network.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(Network, "__init__", recording_init)
    return built


@pytest.mark.parametrize("algorithm", sorted(ALGORITHM_TABLE))
def test_options_reach_every_network(algorithm, built_networks):
    graph = make_family("gnp_log_degree", N, seed=4)
    rec = NetworkCollector()
    run_algorithm(
        algorithm, graph, seed=3, engine="fast", channel="local",
        instrument=rec,
    )
    assert built_networks
    assert rec.networks == built_networks
    for network in built_networks:
        assert type(network.channel) is LocalChannel
        assert network.vector_rounds == 0

    if algorithm in VECTOR_CAPABLE_ALGORITHMS:
        # The same run on "auto" does vectorize, so the zeros above are
        # the engine's doing.
        built_networks.clear()
        run_algorithm(algorithm, graph, seed=3, channel="local")
        assert any(network.vector_rounds for network in built_networks)

    built_networks.clear()
    plan = FaultPlan.random(graph.nodes, seed=7, crash=0.02)
    run_algorithm(algorithm, graph, seed=3, faults=plan)
    assert built_networks
    for network in built_networks:
        assert network._fault_injector is not None


def test_forced_vectorized_still_refused_for_radio_decay():
    graph = make_family("gnp_log_degree", N, seed=4)
    with pytest.raises(VectorizationError):
        run_algorithm("radio_decay", graph, seed=3, engine="vectorized")
