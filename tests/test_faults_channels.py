"""Fault-injection channel wrappers: determinism and transparency.

The two contracts everything else builds on:

* **zero-rate transparency** — an inactive wrapper (drop/flip/jam rate 0,
  empty fault plan) draws no randomness and returns every inbox
  untouched, so a wrapped run is bit-identical to the unwrapped one on
  every engine path (fast, vectorized) and on the step-every-round
  oracle (``"legacy"``, ``tests/oracles.py``);
* **fault determinism** — the fault stream is seeded independently of the
  algorithm RNG (a per-round ``SeedSequence([fault_seed, round])``), so
  the same fault seed reproduces the identical faulty run, serially and
  across process pools.
"""

import numpy as np
import pytest

from repro.congest import (
    BroadcastChannel,
    ChannelError,
    CongestChannel,
    EnergyLedger,
    VectorizationError,
    make_channel,
)
from repro.faults import (
    CORRUPTED,
    AdversarialJammer,
    CorruptingChannel,
    FaultPlan,
    LossyChannel,
    compose_faulty_spec,
    parse_channel_spec,
    parse_fault_flags,
)
from repro.graphs import make_family
from repro.harness import measure_many, run_algorithm

from oracles import engine_path

N = 48
SEED = 7


def _graph():
    return make_family("gnp_log_degree", N, seed=SEED)


def _fingerprint(result):
    return (
        frozenset(result.mis),
        result.rounds,
        result.max_energy,
        result.average_energy,
        result.metrics.messages_sent,
        result.metrics.messages_delivered,
        result.metrics.messages_dropped,
        result.metrics.total_message_bits,
    )


# -- zero-rate transparency -----------------------------------------------

ENGINES = ["legacy", "fast", "auto"]


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize(
    "spec",
    [
        "lossy(drop=0.0,seed=3):congest",
        "corrupt(flip=0.0,seed=3):congest",
        "lossy(drop=0.0):corrupt(flip=0.0):congest",
    ],
)
def test_zero_rate_wrapper_is_transparent(engine, spec):
    graph = _graph()
    with engine_path(engine) as path:
        bare = run_algorithm(
            "luby", graph, seed=SEED, engine=path, channel="congest"
        )
        wrapped = run_algorithm(
            "luby", graph, seed=SEED, engine=path, channel=spec
        )
    assert _fingerprint(bare) == _fingerprint(wrapped)


def test_zero_rate_transparent_on_forced_vectorized():
    graph = make_family("gnp_log_degree", 96, seed=SEED)
    bare = run_algorithm(
        "luby", graph, seed=SEED, engine="vectorized", channel="congest"
    )
    # A zero-rate corrupt(...) is inactive, so it must not decline the
    # forced vector path the way an active one does.
    for spec in (
        "lossy(drop=0.0,seed=3):congest", "corrupt(flip=0.0,seed=3):congest"
    ):
        wrapped = run_algorithm(
            "luby", graph, seed=SEED, engine="vectorized", channel=spec
        )
        assert _fingerprint(bare) == _fingerprint(wrapped), spec


@pytest.mark.parametrize("engine", ENGINES)
def test_zero_rate_jammer_is_transparent(engine):
    graph = _graph()
    with engine_path(engine) as path:
        bare = run_algorithm(
            "radio_decay", graph, seed=SEED, engine=path, channel="broadcast"
        )
        wrapped = run_algorithm(
            "radio_decay", graph, seed=SEED, engine=path,
            channel="jam(rate=0.0):broadcast",
        )
    assert _fingerprint(bare) == _fingerprint(wrapped)


def test_noop_fault_plan_is_transparent():
    graph = _graph()
    bare = run_algorithm("luby", graph, seed=SEED)
    wrapped = run_algorithm(
        "luby", graph, seed=SEED, faults=FaultPlan(events=(), seed=0)
    )
    assert _fingerprint(bare) == _fingerprint(wrapped)


# -- fault determinism ----------------------------------------------------

def test_same_fault_seed_reproduces_identical_run():
    graph = _graph()
    spec = "lossy(drop=0.2,seed=11):congest"
    first = run_algorithm("luby", graph, seed=SEED, channel=spec)
    second = run_algorithm("luby", graph, seed=SEED, channel=spec)
    assert _fingerprint(first) == _fingerprint(second)


def test_different_fault_seed_changes_the_run():
    graph = _graph()
    runs = {
        _fingerprint(
            run_algorithm(
                "luby", graph, seed=SEED,
                channel=f"lossy(drop=0.2,seed={s}):congest",
            )
        )
        for s in range(4)
    }
    assert len(runs) > 1


def test_fault_seed_independent_of_algorithm_seed():
    # Changing the algorithm seed must not perturb which deliveries the
    # fault stream destroys being a function of (fault_seed, round) only;
    # we check the weaker, observable property: both seeds matter.
    graph = _graph()
    spec = "lossy(drop=0.2,seed=11):congest"
    a = run_algorithm("luby", graph, seed=1, channel=spec)
    b = run_algorithm("luby", graph, seed=2, channel=spec)
    assert _fingerprint(a) != _fingerprint(b)


def test_fast_and_legacy_agree_under_active_faults():
    graph = _graph()
    spec = "lossy(drop=0.15,seed=5):congest"
    fast = run_algorithm("luby", graph, seed=SEED, engine="fast", channel=spec)
    with engine_path("legacy") as engine:
        legacy = run_algorithm(
            "luby", graph, seed=SEED, engine=engine, channel=spec
        )
    assert _fingerprint(fast) == _fingerprint(legacy)


def test_faulty_runs_identical_across_n_jobs():
    tasks = [
        ("luby", "gnp_log_degree", N, seed, "lossy(drop=0.2,seed=9):congest")
        for seed in range(4)
    ]
    serial = measure_many(tasks, n_jobs=1)
    parallel = measure_many(tasks, n_jobs=2)
    assert serial == parallel


def test_node_fault_runs_identical_across_n_jobs():
    plan_params = {"seed": 4, "crash": 0.08, "straggle": 0.08, "horizon": 6}
    tasks = [
        ("luby", "gnp_log_degree", N, seed, None, plan_params)
        for seed in range(4)
    ]
    serial = measure_many(tasks, n_jobs=1)
    parallel = measure_many(tasks, n_jobs=2)
    assert serial == parallel


# -- vectorized engine interplay ------------------------------------------

def test_forced_vectorized_engages_with_lossy_wrapper():
    from repro.congest import reset_vector_stats, vector_stats

    graph = make_family("gnp_log_degree", 96, seed=SEED)
    reset_vector_stats()
    result = run_algorithm(
        "luby", graph, seed=SEED, engine="vectorized",
        channel="lossy(drop=0.2,seed=3):congest",
    )
    stats = vector_stats()
    assert stats["networks"] >= 1 and stats["rounds"] > 0
    assert result.rounds > 0
    assert result.metrics.messages_dropped > 0


def test_forced_vectorized_refuses_node_fault_plans():
    graph = _graph()
    plan = FaultPlan.random(graph.nodes, seed=3, crash=0.1, horizon=5)
    with pytest.raises(VectorizationError, match="node-fault"):
        run_algorithm(
            "luby", graph, seed=SEED, engine="vectorized", faults=plan
        )


def test_auto_mode_falls_back_for_node_fault_plans():
    graph = make_family("gnp_log_degree", 96, seed=SEED)
    plan = FaultPlan.random(graph.nodes, seed=3, crash=0.1, horizon=5)
    result = run_algorithm(
        "luby", graph, seed=SEED, engine="auto", faults=plan
    )
    assert result.rounds > 0


CORRUPT = "corrupt(flip=0.05,seed=3):congest"


@pytest.mark.parametrize("algorithm", ["luby", "ghaffari2016", "algorithm1"])
def test_active_corruption_runs_auto_identical_to_fast(algorithm):
    """The dense-round kernels never read payloads, so they cannot corrupt
    one: an active corrupt(...) wrapper keeps auto mode on the scalar
    loop, bit for bit."""
    graph = make_family("gnp_log_degree", 200, seed=SEED)
    runs = {}
    for mode in ("fast", "auto"):
        ledger = EnergyLedger(graph.nodes)
        result = run_algorithm(
            algorithm, graph, seed=SEED, ledger=ledger, engine=mode,
            channel=CORRUPT,
        )
        runs[mode] = (
            result.mis, result.metrics.to_dict(), ledger.snapshot()
        )
    assert runs["auto"] == runs["fast"]


def test_forced_vectorized_refuses_active_corruption():
    graph = make_family("gnp_log_degree", 96, seed=SEED)
    with pytest.raises(VectorizationError, match="corrupt"):
        run_algorithm(
            "luby", graph, seed=SEED, engine="vectorized", channel=CORRUPT
        )


# -- drops are counted, not invented --------------------------------------

def test_lossy_drop_accounting():
    graph = _graph()
    bare = run_algorithm("luby", graph, seed=SEED, channel="congest")
    lossy = run_algorithm(
        "luby", graph, seed=SEED, channel="lossy(drop=0.3,seed=2):congest"
    )
    assert lossy.metrics.messages_dropped > bare.metrics.messages_dropped
    assert (
        lossy.metrics.messages_sent
        == lossy.metrics.messages_delivered + lossy.metrics.messages_dropped
    )


def test_burst_loss_blankets_whole_rounds():
    graph = _graph()
    channel = make_channel("lossy(drop=0.0,burst=0.5,seed=3):congest")
    result = run_algorithm("luby", graph, seed=SEED, channel=channel)
    assert channel.burst_rounds > 0
    assert result.metrics.messages_dropped >= channel.fault_drops > 0


def test_jammer_bills_collisions():
    graph = _graph()
    bare = run_algorithm(
        "radio_decay", graph, seed=SEED, channel="broadcast"
    )
    jammed = run_algorithm(
        "radio_decay", graph, seed=SEED,
        channel="jam(rate=0.5,seed=2):broadcast",
    )
    assert jammed.metrics.collisions > bare.metrics.collisions


def test_jammer_requires_broadcast_base():
    graph = _graph()
    with pytest.raises(ChannelError, match="radio medium"):
        run_algorithm(
            "luby", graph, seed=SEED, channel="jam(rate=0.1):congest"
        )


def test_corruption_alters_payloads():
    channel = CorruptingChannel(flip=1.0, seed=1)
    # bool payloads flip; ints flip one bit; unknown types become the
    # CORRUPTED sentinel
    rng = np.random.default_rng(0)
    assert channel.corrupt_payload(True, rng) is False
    corrupted_int = channel.corrupt_payload(12, rng)
    assert isinstance(corrupted_int, int) and corrupted_int != 12
    assert channel.corrupt_payload(object(), rng) is CORRUPTED


# -- spec grammar ---------------------------------------------------------

def test_parse_channel_spec_builds_wrapper_stack():
    channel = parse_channel_spec("lossy(drop=0.1,seed=4):congest")
    assert isinstance(channel, LossyChannel)
    assert channel.drop == pytest.approx(0.1)
    assert channel.seed == 4
    assert isinstance(channel.unwrapped(), CongestChannel)


def test_parse_channel_spec_nested():
    channel = parse_channel_spec(
        "lossy(drop=0.1):corrupt(flip=0.05):congest"
    )
    assert isinstance(channel, LossyChannel)
    assert isinstance(channel.inner, CorruptingChannel)
    assert isinstance(channel.unwrapped(), CongestChannel)


def test_make_channel_dispatches_fault_specs():
    channel = make_channel("jam(rate=0.3,seed=1):broadcast")
    assert isinstance(channel, AdversarialJammer)
    assert isinstance(channel.unwrapped(), BroadcastChannel)


def test_wrapper_without_base_uses_its_default_inner():
    # Each wrapper knows its natural medium: lossy/corrupt default to
    # CONGEST, the jammer to the broadcast radio.
    assert isinstance(
        parse_channel_spec("lossy(drop=0.1)").unwrapped(), CongestChannel
    )
    assert isinstance(
        parse_channel_spec("jam(rate=0.1)").unwrapped(), BroadcastChannel
    )


@pytest.mark.parametrize(
    "spec",
    [
        "lossy(drop=0.1):bogus",    # unknown base
        "bogus(x=1):congest",       # unknown wrapper
        "lossy(drop=2.0):congest",  # out-of-range probability
        "lossy(wibble=1):congest",  # unknown parameter
    ],
)
def test_parse_channel_spec_rejects_bad_specs(spec):
    with pytest.raises((ValueError, KeyError)):
        parse_channel_spec(spec)


def test_parse_fault_flags_splits_channel_and_plan_keys():
    wrappers, plan = parse_fault_flags(
        "drop=0.1,jam=0.2,crash=0.05,seed=7"
    )
    assert wrappers["lossy"]["drop"] == pytest.approx(0.1)
    assert wrappers["jam"]["rate"] == pytest.approx(0.2)
    assert plan["crash"] == pytest.approx(0.05)
    assert wrappers["lossy"]["seed"] == 7 and plan["seed"] == 7


def test_compose_faulty_spec_is_a_plain_string():
    wrappers, _ = parse_fault_flags("drop=0.1,seed=7")
    spec = compose_faulty_spec("congest", wrappers)
    assert isinstance(spec, str)
    assert isinstance(make_channel(spec), LossyChannel)


@pytest.mark.parametrize("bad", [-0.1, 1.5])
def test_wrapper_probability_validation(bad):
    with pytest.raises(ValueError):
        LossyChannel(drop=bad)
    with pytest.raises(ValueError):
        CorruptingChannel(flip=bad)
    with pytest.raises(ValueError):
        AdversarialJammer(rate=bad)
