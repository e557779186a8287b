"""Cross-product smoke test: every algorithm × every graph family.

Guarantees the rest of the suite only covers piecemeal:

* every registered algorithm produces a verified MIS on every registered
  workload family (small n, fixed seed);
* a fixed seed reproduces the identical :class:`MISResult` — set, rounds,
  and energy — run-to-run (the determinism contract the dynamic subsystem
  and the sweep harness both build on);
* the paper's algorithms give the identical result on a networkx graph and
  on its :class:`GraphArrays` twin;
* every registered algorithm runs on any sortable node labels, not only on
  the non-negative ints the families build.
"""

import networkx as nx
import pytest

from repro.analysis import verify_mis
from repro.congest import EnergyLedger
from repro.congest.vectorized import GraphArrays
from repro.graphs import FAMILIES, gnp_expected_degree, make_family
from repro.harness import ALGORITHMS, run_algorithm

N = 24
SEED = 5

MATRIX = [
    (algorithm, family)
    for algorithm in sorted(ALGORITHMS)
    for family in sorted(FAMILIES)
]


@pytest.mark.parametrize("algorithm,family", MATRIX)
def test_every_algorithm_on_every_family(algorithm, family):
    graph = make_family(family, N, seed=SEED)
    result = run_algorithm(algorithm, graph, seed=SEED)
    report = verify_mis(graph, result.mis)
    assert report.independent, (
        f"{algorithm} on {family}: conflicts {report.conflicting_edges}"
    )
    assert report.maximal, (
        f"{algorithm} on {family}: uncovered {report.uncovered_nodes}"
    )


@pytest.mark.parametrize("relabel", [
    pytest.param(lambda v: f"v{v}", id="str"),
    pytest.param(lambda v: -1 - v, id="negative-int"),
    pytest.param(lambda v: divmod(v, 9), id="int-tuple"),
])
@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_every_algorithm_on_non_int_labels(algorithm, relabel):
    graph = nx.relabel_nodes(nx.gnp_random_graph(80, 0.08, seed=4), relabel)
    result = run_algorithm(algorithm, graph, seed=3)
    assert verify_mis(graph, result.mis).valid


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_fixed_seed_reproduces_identical_results(algorithm):
    graph = make_family("geometric", N, seed=SEED)
    first = run_algorithm(algorithm, graph, seed=SEED)
    second = run_algorithm(algorithm, graph, seed=SEED)
    assert first.mis == second.mis
    assert first.rounds == second.rounds
    assert first.max_energy == second.max_energy
    assert first.average_energy == second.average_energy


#: The paper's pipelines, whose phases hand off induced residual graphs.
PAPER_ALGORITHMS = ("algorithm1", "algorithm1_avg", "algorithm2",
                    "algorithm2_avg")
REPRESENTATIONS = ("networkx", "arrays")


def _twin_input(family):
    # "dense" is dense enough that Phase I and Lemma 3.1 hand off residuals.
    if family == "dense":
        return gnp_expected_degree(600, 150, seed=SEED)
    return make_family(family, N, seed=SEED)


@pytest.mark.parametrize("algorithm", PAPER_ALGORITHMS)
@pytest.mark.parametrize("family", sorted(FAMILIES) + ["dense"])
def test_paper_algorithms_identical_on_both_representations(algorithm,
                                                            family):
    outcomes = {}
    for representation in REPRESENTATIONS:
        graph = _twin_input(family)
        if representation == "arrays":
            graph = GraphArrays.from_graph(graph)
        ledger = EnergyLedger(graph.nodes)
        result = run_algorithm(algorithm, graph, seed=SEED, ledger=ledger)
        assert verify_mis(_twin_input(family), result.mis).valid
        outcomes[representation] = (
            result.mis,
            result.rounds,
            result.max_energy,
            result.average_energy,
            ledger.snapshot(),
        )
    assert outcomes["arrays"] == outcomes["networkx"]
