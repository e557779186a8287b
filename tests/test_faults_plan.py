"""Node-fault plans: timelines, network injection, and self-healing.

Covers the three layers of ``repro.faults`` node faults:

* :class:`FaultPlan`/:class:`NodeFault` construction and the seeded
  :meth:`FaultPlan.random` generator (deterministic per seed);
* injection into the scalar step loop — a crash halts its node for good,
  a straggler sleeps through its stall window, and per-epoch verification
  plus the recover path live in ``run_self_healing``;
* self-stabilization — after faults cease, the maintainer restores a
  valid MIS, and the result records the bounded repair cost.
"""

import networkx as nx
import pytest

from repro.analysis import verify_mis
from repro.congest import Network, NodeProgram
from repro.faults import (
    CRASH,
    RECOVER,
    STRAGGLE,
    FaultPlan,
    NodeFault,
    heal_mis,
    run_self_healing,
)
from repro.graphs import make_family
from repro.harness import run_algorithm

from oracles import run_legacy

N = 48
SEED = 7


def _graph(n=N):
    return make_family("gnp_log_degree", n, seed=SEED)


# -- plan construction ----------------------------------------------------

def test_node_fault_validation():
    with pytest.raises(ValueError):
        NodeFault(time=-1, kind=CRASH, node=0)
    with pytest.raises(ValueError):
        NodeFault(time=0, kind="melt", node=0)
    with pytest.raises(ValueError):
        NodeFault(time=0, kind=STRAGGLE, node=0, duration=-2)


def test_fault_plan_random_is_deterministic():
    nodes = range(40)
    a = FaultPlan.random(nodes, seed=5, crash=0.2, straggle=0.2, horizon=10)
    b = FaultPlan.random(nodes, seed=5, crash=0.2, straggle=0.2, horizon=10)
    assert a.events == b.events
    c = FaultPlan.random(nodes, seed=6, crash=0.2, straggle=0.2, horizon=10)
    assert a.events != c.events


def test_fault_plan_random_validation():
    with pytest.raises(ValueError):
        FaultPlan.random(range(10), seed=0, crash=1.5)
    with pytest.raises(ValueError):
        FaultPlan.random(range(10), seed=0, crash=0.1, horizon=0)
    with pytest.raises(ValueError):
        FaultPlan.random(range(10), seed=0, crash=0.1, recover_after=-1)


def test_fault_plan_random_recover_follows_crash():
    plan = FaultPlan.random(
        range(60), seed=2, crash=0.5, horizon=8, recover_after=3
    )
    crashes = {f.node: f.time for f in plan.events if f.kind == CRASH}
    recovers = {f.node: f.time for f in plan.events if f.kind == RECOVER}
    assert recovers  # at 50% over 60 nodes some crash w.h.p.
    assert set(recovers) == set(crashes)
    for node, time in recovers.items():
        assert time == crashes[node] + 3


def test_empty_plan_binds_to_nothing():
    graph = _graph()
    plan = FaultPlan(events=(), seed=0)
    assert plan.empty
    assert plan.bind(None) is None  # no injector for a no-op plan
    result = run_algorithm("luby", graph, seed=SEED, faults=plan)
    assert verify_mis(graph, result.mis).maximal


# -- network injection ----------------------------------------------------

def test_crash_removes_node_from_the_mis_computation():
    graph = _graph()
    # Crash a handful of nodes at round 0: they must not appear in the
    # output MIS, and the survivors' set must be independent.
    victims = sorted(graph.nodes)[:5]
    plan = FaultPlan(
        events=tuple(NodeFault(time=0, kind=CRASH, node=v) for v in victims),
        seed=0,
    )
    result = run_algorithm("luby", graph, seed=SEED, faults=plan)
    assert not (set(victims) & result.mis)
    report = verify_mis(graph, result.mis)
    assert report.independent


def test_crash_mid_run_is_deterministic():
    graph = _graph()
    plan = FaultPlan.random(graph.nodes, seed=3, crash=0.15, horizon=8)
    first = run_algorithm("luby", graph, seed=SEED, faults=plan)
    second = run_algorithm("luby", graph, seed=SEED, faults=plan)
    assert first.mis == second.mis
    assert first.rounds == second.rounds
    assert first.metrics.to_dict() == second.metrics.to_dict()


def test_straggler_changes_the_run_but_still_terminates():
    graph = _graph()
    plan = FaultPlan.random(
        graph.nodes, seed=3, straggle=0.3, horizon=6, straggle_duration=10
    )
    bare = run_algorithm("luby", graph, seed=SEED)
    stalled = run_algorithm("luby", graph, seed=SEED, faults=plan)
    assert stalled.rounds > 0
    # A stalled node misses rounds, so the runs genuinely diverge.
    assert (
        stalled.rounds != bare.rounds or stalled.mis != bare.mis
        or stalled.metrics.to_dict() != bare.metrics.to_dict()
    )


def test_straggler_on_every_algorithm_still_terminates():
    graph = make_family("gnp_log_degree", 32, seed=SEED)
    plan = FaultPlan.random(
        graph.nodes, seed=5, straggle=0.2, horizon=5, straggle_duration=6
    )
    for algorithm in ("luby", "ghaffari2016", "algorithm1"):
        result = run_algorithm(algorithm, graph, seed=SEED, faults=plan)
        assert result.rounds > 0, algorithm


class _SleepyProgram(NodeProgram):
    """Wakes at rounds 1 and 50 only: rounds 2..49 are an idle stretch."""

    def on_start(self, ctx):
        ctx.use_wake_schedule([1, 50])

    def on_round(self, ctx):
        ctx.broadcast(True)

    def on_receive(self, ctx, messages):
        pass


def _sleepy_rounds(events, run):
    graph = nx.path_graph(3)
    network = Network(graph, _SleepyProgram, seed=1, faults=FaultPlan(events))
    return run(network).rounds


def _fast(network):
    return network.run(engine="fast")


def test_crash_inside_idle_stretch_ends_the_run_at_the_crash():
    """Crashing every pending node in an idle stretch ends the run at the
    crash round on the fast loop as on the step-every-round oracle,
    instead of counting rounds up to the cancelled wake."""
    crash = [NodeFault(time=10, kind=CRASH, node=v) for v in range(3)]
    assert _sleepy_rounds(crash, _fast) == 11
    assert _sleepy_rounds(crash, run_legacy) == 11


def test_straggle_inside_idle_stretch_leaves_the_rounds_alone():
    """A stall that starts and ends while its node sleeps misses no wake:
    both loops finish in the fault-free round count."""
    stall = [NodeFault(time=10, kind=STRAGGLE, node=0, duration=5)]
    clean = _sleepy_rounds([], _fast)
    assert clean == 51
    assert _sleepy_rounds(stall, _fast) == clean
    assert _sleepy_rounds(stall, run_legacy) == clean


def test_injector_rejects_recover_events():
    graph = _graph()
    plan = FaultPlan(
        events=(
            NodeFault(time=0, kind=CRASH, node=0),
            NodeFault(time=4, kind=RECOVER, node=0),
        ),
        seed=0,
    )
    with pytest.raises(ValueError, match="run_self_healing"):
        run_algorithm("luby", graph, seed=SEED, faults=plan)


def test_injector_rejects_unknown_nodes():
    graph = _graph()
    plan = FaultPlan(
        events=(NodeFault(time=0, kind=CRASH, node="nonexistent"),), seed=0
    )
    with pytest.raises(KeyError):
        run_algorithm("luby", graph, seed=SEED, faults=plan)


# -- healing --------------------------------------------------------------

def test_heal_mis_repairs_a_damaged_candidate():
    graph = _graph()
    # Damage a valid MIS: remove one member (uncovered region appears)
    # and add one of its neighbors plus that neighbor's neighbor if
    # adjacent (conflict appears).
    valid = run_algorithm("luby", graph, seed=SEED).mis
    damaged = set(valid)
    victim = sorted(damaged)[0]
    damaged.discard(victim)
    neighbors = list(graph.neighbors(victim))
    damaged.update(neighbors[:2])
    healed, report = heal_mis(graph, damaged, seed=3)
    check = verify_mis(graph, healed)
    assert check.independent and check.maximal
    assert report.changed


def test_heal_mis_noop_on_valid_set():
    graph = _graph()
    valid = run_algorithm("luby", graph, seed=SEED).mis
    healed, report = heal_mis(graph, valid, seed=3)
    assert healed == valid
    assert not report.changed
    assert report.rounds == 0


def test_heal_mis_after_faulty_channel_run():
    graph = _graph()
    result = run_algorithm(
        "luby", graph, seed=SEED, channel="lossy(drop=0.3,seed=2):congest"
    )
    healed, _ = heal_mis(graph, result.mis, seed=3)
    check = verify_mis(graph, healed)
    assert check.independent and check.maximal


def test_self_healing_crash_only():
    graph = _graph()
    plan = FaultPlan.random(graph.nodes, seed=4, crash=0.2, horizon=6)
    outcome = run_self_healing(graph, plan, seed=SEED)
    assert outcome.crash_count > 0
    assert outcome.all_valid
    assert outcome.stabilized
    # Survivor topology: the final MIS is valid on graph minus crashes.
    crashed = {f.node for f in plan.events if f.kind == CRASH}
    survivor = graph.subgraph(set(graph.nodes) - crashed)
    check = verify_mis(survivor, outcome.final_mis)
    assert check.independent and check.maximal


def test_self_healing_crash_and_recover():
    graph = _graph()
    plan = FaultPlan.random(
        graph.nodes, seed=4, crash=0.25, horizon=6, recover_after=4
    )
    outcome = run_self_healing(graph, plan, seed=SEED)
    assert outcome.recover_count > 0
    assert outcome.stabilized
    # Every crashed node recovered, so the final MIS must be valid on the
    # FULL original graph — the self-stabilization claim.
    check = verify_mis(graph, outcome.final_mis)
    assert check.independent and check.maximal
    # The stabilization cost is the final epoch's repair rounds, bounded
    # by what a full re-election would need.
    assert outcome.stabilization_rounds >= 0
    assert outcome.epochs[-1].valid


def test_self_healing_rejects_stragglers():
    graph = _graph()
    plan = FaultPlan(
        events=(NodeFault(time=1, kind=STRAGGLE, node=0, duration=3),),
        seed=0,
    )
    with pytest.raises(ValueError, match="straggler"):
        run_self_healing(graph, plan)


def test_self_healing_is_deterministic():
    graph = _graph()
    plan = FaultPlan.random(
        graph.nodes, seed=4, crash=0.2, horizon=6, recover_after=3
    )
    a = run_self_healing(graph, plan, seed=SEED)
    b = run_self_healing(graph, plan, seed=SEED)
    assert a.final_mis == b.final_mis
    assert a.total_rounds == b.total_rounds
    assert a.total_energy == b.total_energy
