"""Fast path ⇔ legacy loop ⇔ vectorized ⇔ channel-layer equivalence.

The engine's idle-round fast-forward and cached round loop are pure
optimizations: for every algorithm and workload, outputs, metrics, and
ledger state must be *bit-identical* to the naive one-step-per-round loop
(the ``"legacy"`` oracle of ``tests/oracles.py``: ``engine_path("legacy")``,
``run_legacy``, ``run_rounds_legacy``). This suite locks that in for
every registered algorithm on several graph
families, and for hand-built schedules that exercise the tricky corners
(idle gaps, mid-run halts, re-scheduling, truncated ``run_rounds``).

The vectorized dense-round path is the third engine axis: kernels load and
flush the network's schema-declared state columns, so the three-way
{fast, legacy, vectorized} matrix, the mid-cycle truncation tests, the
column flush tests (``TestStateColumns``), and the schedule-aware kernel
tests prove that a kernel engagement leaves exactly the state a scalar
run would have. Programs without state columns must
decline vectorization with a stated reason.

The channel layer adds another axis: ``CongestChannel`` and
``LocalChannel`` (one delivery loop: flat per-edge buffers, lazy inbox
views) must be bit-identical to the pre-refactor per-``Message`` delivery
loops kept as oracles (``congest-per-message``, ``local-per-message``) on
*both* engine paths. The matrix {batched, per-message} × {fast, legacy},
for CONGEST and for LOCAL, proves the shipped loop preserves the seed
semantics exactly.
"""

from functools import partial

import networkx as nx
import numpy as np
import pytest

from repro import graphs
from repro.baselines import LubyProgram
from repro.congest import (
    EnergyLedger,
    Network,
    NodeProgram,
    VectorizationError,
    reset_vector_stats,
    vector_stats,
)
from repro.congest.vectorized import GraphArrays
from repro.harness import (
    ALGORITHMS,
    VECTOR_CAPABLE_ALGORITHMS,
    run_algorithm,
)

from kernel_programs import KERNEL_PROGRAMS, kernel_programs
from oracles import (
    channel_spec,
    engine_path,
    run_legacy,
    run_rounds_legacy,
)

FAMILIES = ["gnp_log_degree", "geometric", "grid"]
N = 64


def _metrics_tuple(metrics):
    return (
        metrics.rounds,
        metrics.max_energy,
        metrics.average_energy,
        metrics.total_energy,
        metrics.messages_sent,
        metrics.messages_delivered,
        metrics.messages_dropped,
        metrics.total_message_bits,
        metrics.max_message_bits,
    )


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_algorithms_identical_across_engine_paths(algorithm, family):
    graph = graphs.make_family(family, N, seed=5)

    fast_ledger = EnergyLedger(graph.nodes)
    fast = run_algorithm(algorithm, graph, seed=5, ledger=fast_ledger)
    with engine_path("legacy") as engine:
        legacy_ledger = EnergyLedger(graph.nodes)
        legacy = run_algorithm(
            algorithm, graph, seed=5, ledger=legacy_ledger, engine=engine
        )

    assert fast.mis == legacy.mis
    assert _metrics_tuple(fast.metrics) == _metrics_tuple(legacy.metrics)
    assert fast.metrics == legacy.metrics  # includes per-phase breakdowns
    assert fast_ledger.snapshot() == legacy_ledger.snapshot()


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_batched_channel_identical_to_per_message_reference(algorithm, family):
    """Batched per-edge-buffer delivery == the seed per-Message semantics.

    ``congest-per-message`` is the pre-channel-layer delivery loop kept
    verbatim, so equality here (on the fast *and* the legacy engine)
    certifies the batched channel against the original engine bit for bit:
    same outputs, same metrics (message counts, bit totals, maxima), same
    per-node energy ledgers. ``local`` runs CONGEST's loop with a zero
    price, so it is pinned the same way to ``local-per-message`` and must
    account no bits at all.
    """
    graph = graphs.make_family(family, N, seed=5)

    for base in ("congest", "local"):
        results = {}
        for channel in (base, f"{base}-per-message"):
            for use_legacy in (False, True):
                ledger = EnergyLedger(graph.nodes)
                with engine_path("legacy" if use_legacy else "auto") as engine:
                    result = run_algorithm(
                        algorithm, graph, seed=5, ledger=ledger,
                        engine=engine, channel=channel_spec(channel),
                    )
                results[(channel, use_legacy)] = (result, ledger.snapshot())

        reference, reference_ledger = results[(f"{base}-per-message", True)]
        for key, (result, ledger_snapshot) in results.items():
            assert result.mis == reference.mis, key
            assert _metrics_tuple(result.metrics) == \
                _metrics_tuple(reference.metrics), key
            assert result.metrics == reference.metrics, key
            assert ledger_snapshot == reference_ledger, key
            if base == "local":
                # Every algorithm, radio_decay included, ran on the named
                # channel: LOCAL prices no bits.
                assert result.metrics.total_message_bits == 0, key


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_three_way_engine_matrix(algorithm, family):
    """fast == legacy == vectorized, bit for bit, for every algorithm.

    The vectorized dense-round path must preserve outputs, metrics,
    per-node ledgers, *and every node's draws* (kernels and scalar hooks
    read and bump the same keyed per-node counters). For
    algorithms without the capability the vectorized mode degrades to the
    cached loop per-network (forcing it network-wide is covered below), so
    the matrix stays total over the registry.
    """
    graph = graphs.make_family(family, N, seed=5)

    results = {}
    for mode in ("fast", "legacy", "auto"):
        ledger = EnergyLedger(graph.nodes)
        with engine_path(mode) as engine:
            result = run_algorithm(
                algorithm, graph, seed=5, ledger=ledger, engine=engine
            )
        results[mode] = (result, ledger.snapshot())

    reference, reference_ledger = results["legacy"]
    for mode, (result, ledger_snapshot) in results.items():
        assert result.mis == reference.mis, mode
        assert _metrics_tuple(result.metrics) == \
            _metrics_tuple(reference.metrics), mode
        assert result.metrics == reference.metrics, mode
        assert ledger_snapshot == reference_ledger, mode


@pytest.mark.parametrize("algorithm", sorted(VECTOR_CAPABLE_ALGORITHMS))
def test_vector_capable_algorithms_never_silently_fall_back(algorithm):
    """A declared capability must actually engage (the CI gate).

    If a refactor broke eligibility (channel type check, heterogeneous
    programs, a renamed hook), the auto path would silently run the cached
    loop and the perf claim would rot; this fails instead.
    """
    graph = graphs.make_family("gnp_log_degree", N, seed=5)
    reset_vector_stats()
    run_algorithm(algorithm, graph, seed=5)
    stats = vector_stats()
    assert stats["networks"] >= 1, f"{algorithm}: runner never built"
    assert stats["rounds"] > 0, (
        f"{algorithm} declares the vectorized capability but executed no "
        f"vectorized rounds (silent fallback to the cached loop)"
    )


@pytest.mark.parametrize(
    "algorithm", sorted(set(ALGORITHMS) - VECTOR_CAPABLE_ALGORITHMS)
)
def test_forced_vectorized_raises_for_incapable_programs(algorithm):
    """Forcing the vectorized engine on an algorithm outside the derived
    capability set must raise, not silently run scalar (radio_decay's
    program has no kernel and runs on the broadcast medium)."""
    assert algorithm not in VECTOR_CAPABLE_ALGORITHMS
    graph = graphs.make_family("gnp_log_degree", N, seed=5)
    with pytest.raises(VectorizationError):
        run_algorithm(algorithm, graph, seed=5, engine="vectorized")


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize(
    "algorithm",
    ["algorithm1", "algorithm2", "ghaffari2016", "algorithm1_avg",
     "algorithm2_avg"],
)
def test_forced_vectorized_pipelines_bit_identical(algorithm, family):
    """The paper's own algorithms now run end-to-end under a *forced*
    vectorized engine (every network they build is kernel-capable), bit
    identical to both scalar paths — including the sleep-scheduled Phase-I
    networks, which the schedule-aware kernels cover."""
    graph = graphs.make_family(family, N, seed=5)

    results = {}
    for mode in ("fast", "legacy", "vectorized"):
        ledger = EnergyLedger(graph.nodes)
        with engine_path(mode) as engine:
            result = run_algorithm(
                algorithm, graph, seed=5, ledger=ledger, engine=engine
            )
        results[mode] = (result, ledger.snapshot())

    reference, reference_ledger = results["legacy"]
    for mode, (result, ledger_snapshot) in results.items():
        assert result.mis == reference.mis, mode
        assert _metrics_tuple(result.metrics) == \
            _metrics_tuple(reference.metrics), mode
        assert result.metrics == reference.metrics, mode
        assert ledger_snapshot == reference_ledger, mode




class TestStateColumns:
    """Schema columns are the one node-state layout kernels work on.

    Every kernel-bearing program class declares a non-empty schema and a
    homogeneous population of it binds to network-owned columns. A kernel
    flush at any round leaves the columns a scalar run would have, on every
    row a scalar hook can still read, so scalar rounds resume from them.
    """

    def test_kernel_bearing_classes_are_enumerated(self):
        """The parametrized list below covers every vector_round override
        shipped in the package."""

        def subclasses(cls):
            for sub in cls.__subclasses__():
                yield sub
                yield from subclasses(sub)

        shipped = {
            cls.__name__
            for cls in subclasses(NodeProgram)
            if "vector_round" in vars(cls)
            and cls.__module__.startswith("repro.")
        }
        assert shipped == set(KERNEL_PROGRAMS)

    @pytest.mark.parametrize("program", KERNEL_PROGRAMS)
    def test_kernel_bearing_population_binds_columns(self, program):
        graph = graphs.make_family("gnp_log_degree", 96, seed=3)
        network = Network(graph, kernel_programs(graph)[program], seed=11)
        programs = network.programs
        schema = type(network._template).state_schema()
        assert schema, program
        columns = network.state_columns
        assert columns is not None, program
        assert set(columns) == {field.name for field in schema}
        for name, column in columns.items():
            assert column.shape[0] == graph.number_of_nodes(), name
        # Scalar hooks read and write through row views of the columns.
        node = min(graph.nodes)
        rank = sorted(graph.nodes).index(node)
        for field in schema:
            column = columns[field.name]
            value = getattr(programs[node], field.name)
            if field.width is None:
                assert value == column[rank].item(), field.name
            else:
                assert (value == column[rank]).all(), field.name
        first = schema[0]
        if first.width is None:
            flipped = not bool(columns[first.name][rank])
            setattr(programs[node], first.name, flipped)
            assert bool(columns[first.name][rank]) == flipped
        # Vectorized rounds engage on the bound columns.
        network.run_rounds(3, engine="vectorized")
        assert network.vector_rounds > 0, program

    @pytest.mark.parametrize("cut", [1, 2, 3, 4, 5, 7, 40])
    @pytest.mark.parametrize("program", KERNEL_PROGRAMS)
    def test_flush_leaves_scalar_state_on_live_rows(self, program, cut):
        """After ``cut`` kernel rounds, every row a scalar hook can still
        read (nodes not yet halted) holds bit for bit what ``cut`` scalar
        rounds leave. Halted rows are never read again, and kernels may
        leave per-round scratch flags there that a scalar run keeps."""
        graph = graphs.make_family("gnp_log_degree", 96, seed=3)
        make = kernel_programs(graph)[program]

        def fresh():
            return Network(graph, make, seed=11)

        reference = fresh()
        run_rounds_legacy(reference, cut)
        flushed = fresh()
        flushed.run_rounds(cut, engine="vectorized")
        assert flushed.vector_rounds > 0
        order = sorted(graph.nodes)
        live = np.array([not reference.contexts[v].halted for v in order])
        assert live.tolist() == \
            [not flushed.contexts[v].halted for v in order]
        for name, column in reference.state_columns.items():
            assert flushed.state_columns[name][live].tobytes() == \
                column[live].tobytes(), name
        assert flushed.metrics() == reference.metrics()
        assert flushed.ledger.snapshot() == reference.ledger.snapshot()

    @pytest.mark.parametrize("cut", [1, 2, 3, 5, 8, 13])
    def test_regularized_luby_truncation_resumes_scalar(self, cut):
        """Mark/join truncation of the regularized-Luby kernel, both on a
        mark and on a join sub-round: the scalar continuation must finish
        with the pure scalar run's outputs, ledgers and columns."""
        from repro.baselines import RegularizedLubyProgram

        graph = graphs.make_family("gnp_log_degree", 96, seed=3)

        def fresh():
            return Network(
                graph,
                partial(RegularizedLubyProgram, 4, 3, 6),
                seed=13,
            )

        reference = fresh()
        run_legacy(reference)
        hybrid = fresh()
        hybrid.run_rounds(cut, engine="vectorized")
        assert hybrid.vector_rounds == cut
        hybrid.run(engine="fast")
        assert hybrid.outputs("in_mis") == reference.outputs("in_mis")
        assert hybrid.metrics() == reference.metrics()
        assert hybrid.ledger.snapshot() == reference.ledger.snapshot()


class TestGraphInputForm:
    """A population on a networkx graph and the same population on its
    array-native ``GraphArrays`` twin are one simulation: every
    kernel-bearing class runs bit-identically on both inputs, on every
    engine path."""

    @pytest.mark.parametrize("engine", ["legacy", "fast", "vectorized"])
    @pytest.mark.parametrize("program", KERNEL_PROGRAMS)
    def test_networkx_and_array_graphs_identical(self, program, engine):
        graph = graphs.make_family("gnp_log_degree", 96, seed=3)
        make = kernel_programs(graph)[program]
        runs = {}
        for form, source in (
            ("networkx", graph),
            ("arrays", GraphArrays.from_graph(graph)),
        ):
            network = Network(source, make, seed=11, trace=True)
            with engine_path(engine) as path:
                metrics = network.run(engine=path)
            runs[form] = (
                metrics,
                network.ledger.snapshot(),
                network._output_table,
                network.streams.counters.tolist(),
                set(network._halted),
                network.trace.awake_counts(),
            )
            if engine == "vectorized":
                assert network.vector_rounds > 0, form
        assert runs["networkx"] == runs["arrays"]


class TestLazyPerNodeObjects:
    """A network builds a node's program and context only when scalar
    code touches the node."""

    @pytest.mark.parametrize("program", KERNEL_PROGRAMS)
    def test_vectorized_run_builds_no_per_node_objects(self, program):
        """Every kernel runs a whole network from round 0 to the end on
        state columns alone: no program, no Context."""
        graph = graphs.make_family("gnp_log_degree", 96, seed=3)
        network = Network(graph, kernel_programs(graph)[program], seed=11)
        network.run(engine="vectorized")
        assert network.vector_rounds > 0
        assert network.programs.built() == {}
        assert network.contexts.built() == {}

    def test_vectorized_luby_builds_no_per_node_objects(self, monkeypatch):
        """An array-native Luby run on the vectorized engine builds no
        Context and no program beyond the factory's template; a scalar
        step afterwards builds objects for exactly the nodes it touches."""
        from repro.congest import program as program_module

        built = {"contexts": 0, "programs": 0}
        context_init = program_module.Context.__init__
        luby_init = LubyProgram.__init__

        def counting_context(self, *args):
            built["contexts"] += 1
            context_init(self, *args)

        def counting_luby(self):
            built["programs"] += 1
            luby_init(self)

        monkeypatch.setattr(program_module.Context, "__init__",
                            counting_context)
        monkeypatch.setattr(LubyProgram, "__init__", counting_luby)
        graph = graphs.make_family(
            "gnp_log_degree", 2000, seed=1, as_arrays=True
        )
        result = run_algorithm("luby", graph, seed=1, engine="vectorized")
        assert result.mis
        assert built == {"contexts": 0, "programs": 1}

        built.update(contexts=0, programs=0)
        network = Network(graph, LubyProgram, seed=1)
        network.run_rounds(3, engine="vectorized")
        # The flush hands every live node its neighbor beliefs, which
        # builds exactly the live nodes' programs (the template is one).
        live = set(network._always_on)
        assert live
        assert set(network.programs.built()) == live
        assert built == {"contexts": 0, "programs": 1 + len(live)}
        awake = network.step()
        assert awake == live
        assert set(network.contexts.built()) == awake
        assert set(network.programs.built()) == awake
        assert built == {"contexts": len(awake), "programs": 1 + len(live)}


class TestScheduleAwareKernels:
    """Sleep-schedule (wake-calendar) coverage for the paper's kernels.

    The standard config gives zero Phase-I iterations at test sizes (the
    ``log Δ − 2 log log n`` budget needs huge degrees), so these build the
    phase programs directly with explicit budgets — every node lays down a
    Lemma 2.5 wake calendar and the vectorized engine must follow it.
    """

    FAMILY_SEEDS = [("gnp_log_degree", 3), ("geometric", 9), ("grid", 1)]

    def _alg1_network(self, graph, trace=False):
        from repro.core.phase1_alg1 import Phase1Alg1Program
        from repro.graphs.properties import max_degree

        delta = max_degree(graph)
        return Network(
            graph,
            partial(Phase1Alg1Program, 4, 8, delta, 10.0),
            seed=11,
            trace=trace,
        )

    def _alg2_network(self, graph, trace=False):
        from repro.core.config import DEFAULT_CONFIG
        from repro.core.phase1_alg2 import Phase1Alg2Program
        from repro.graphs.properties import max_degree

        delta = max(2, max_degree(graph))
        return Network(
            graph,
            partial(Phase1Alg2Program, delta, 6, DEFAULT_CONFIG),
            seed=11,
            trace=trace,
        )

    def _assert_identical(self, make_network, total_rounds):
        for family, seed in self.FAMILY_SEEDS:
            graph = graphs.make_family(family, 96, seed=seed)
            reference = make_network(graph, trace=True)
            run_rounds_legacy(reference, total_rounds)
            vectorized = make_network(graph, trace=True)
            vectorized.run_rounds(total_rounds, engine="vectorized")
            assert vectorized.vector_rounds > 0, family
            key = (family,)
            assert vectorized.outputs("joined") == \
                reference.outputs("joined"), key
            assert vectorized.metrics() == reference.metrics(), key
            assert vectorized.ledger.snapshot() == \
                reference.ledger.snapshot(), key
            # Idle spans and per-round awake sets agree through the
            # calendar-driven kernel rounds.
            assert vectorized.trace.rounds == reference.trace.rounds, key
            assert vectorized.trace.awake_counts() == \
                reference.trace.awake_counts(), key
            assert vectorized.trace.message_totals() == \
                reference.trace.message_totals(), key

    def test_phase1_alg1_wake_calendar_identical(self):
        self._assert_identical(self._alg1_network, 3 * 32)

    def test_phase1_alg2_wake_calendar_identical(self):
        self._assert_identical(self._alg2_network, 4 * 6 + 4)

    @pytest.mark.parametrize("cut", [1, 2, 3, 5, 17, 29])
    def test_phase1_alg1_truncation_resumes_scalar(self, cut):
        """Mid-cycle ``run_rounds`` truncation: the schedule-aware kernel's
        flush must restore program state and remaining calendar so a scalar
        continuation matches a pure scalar run."""
        graph = graphs.make_family("gnp_log_degree", 96, seed=3)
        reference = self._alg1_network(graph)
        run_rounds_legacy(reference, 3 * 32)
        hybrid = self._alg1_network(graph)
        hybrid.run_rounds(cut, engine="vectorized")
        hybrid.run_rounds(3 * 32 - cut, engine="fast")
        assert hybrid.outputs("joined") == reference.outputs("joined")
        assert hybrid.metrics() == reference.metrics()
        assert hybrid.ledger.snapshot() == reference.ledger.snapshot()

    @pytest.mark.parametrize("cut", [1, 2, 3, 4, 7, 25])
    def test_phase1_alg2_truncation_resumes_scalar(self, cut):
        total = 4 * 6 + 4
        graph = graphs.make_family("gnp_log_degree", 96, seed=3)
        reference = self._alg2_network(graph)
        run_rounds_legacy(reference, total)
        hybrid = self._alg2_network(graph)
        hybrid.run_rounds(cut, engine="vectorized")
        hybrid.run_rounds(total - cut, engine="fast")
        assert hybrid.outputs("joined") == reference.outputs("joined")
        assert hybrid.metrics() == reference.metrics()
        assert hybrid.ledger.snapshot() == reference.ledger.snapshot()

    @pytest.mark.parametrize("cut", [1, 2, 3, 7])
    def test_ghaffari_truncation_resumes_scalar(self, cut):
        """Mark/join kernel truncation, including mid-iteration (odd cuts)
        and multi-execution columns."""
        from repro.baselines.ghaffari import GhaffariProgram

        graph = graphs.make_family("gnp_log_degree", 96, seed=3)

        def fresh():
            return Network(
                graph,
                partial(GhaffariProgram, iterations=10, executions=3),
                seed=13,
            )

        reference = fresh()
        run_legacy(reference)
        hybrid = fresh()
        hybrid.run_rounds(cut, engine="vectorized")
        assert hybrid.vector_rounds == cut
        hybrid.run(engine="fast")
        assert hybrid.outputs("in_mis") == reference.outputs("in_mis")
        assert hybrid.outputs("status") == reference.outputs("status")
        assert hybrid.metrics() == reference.metrics()
        assert hybrid.ledger.snapshot() == reference.ledger.snapshot()


def test_forced_vectorized_ignores_small_graph_floor():
    """auto skips tiny graphs (numpy overhead), forcing does not."""
    graph = graphs.make_family("gnp_log_degree", 16, seed=5)
    reset_vector_stats()
    run_algorithm("luby", graph, seed=5)  # auto: under the floor
    assert vector_stats()["rounds"] == 0
    reset_vector_stats()
    forced = run_algorithm("luby", graph, seed=5, engine="vectorized")
    assert vector_stats()["rounds"] > 0
    with engine_path("legacy") as engine:
        reference = run_algorithm("luby", graph, seed=5, engine=engine)
    assert forced.mis == reference.mis
    assert forced.metrics == reference.metrics


class SchemalessFlooder(NodeProgram):
    """Declares a vectorized-round factory but no ``state_schema()``: the
    network binds no state columns, so no kernel could load its state."""

    @classmethod
    def vector_round(cls, network):
        raise AssertionError("the engine must decline before the factory")

    def on_round(self, ctx):
        if ctx.round >= 2:
            ctx.halt()
            return
        ctx.broadcast(ctx.round)


def test_program_without_state_schema_declines_vectorization():
    """Kernels work only on schema columns, so the engine itself declines
    a population without them: forced mode names the missing schema,
    auto mode runs the scalar path."""
    graph = graphs.make_family("gnp_log_degree", N, seed=5)

    def make():
        return Network(graph, SchemalessFlooder, seed=5)

    assert make().state_columns is None
    with pytest.raises(VectorizationError, match="state_schema"):
        make().run(engine="vectorized")
    network = make()
    network.run()
    assert network.vector_rounds == 0
    legacy = make()
    run_legacy(legacy)
    assert network.metrics() == legacy.metrics()


@pytest.mark.parametrize("cut", [1, 3, 5, 6, 7, 8, 9, 10])
def test_vectorized_truncation_resumes_scalar_bit_identically(cut):
    """run_rounds may stop the vectorized path mid-cycle; the flush must
    restore program-instance state (including inbox reconstruction and the
    per-node RNG positions) so a scalar continuation matches a pure run."""
    graph = graphs.make_family("gnp_log_degree", 96, seed=3)

    def fresh():
        return Network(graph, LubyProgram, seed=7)

    reference = fresh()
    run_legacy(reference)

    hybrid = fresh()
    hybrid.run_rounds(cut, engine="vectorized")
    assert hybrid.vector_rounds == cut
    hybrid.run(engine="fast")
    assert hybrid.outputs("in_mis") == reference.outputs("in_mis")
    assert hybrid.outputs("decided_round") == \
        reference.outputs("decided_round")
    assert hybrid.metrics() == reference.metrics()
    assert hybrid.ledger.snapshot() == reference.ledger.snapshot()


class GappySleeper(NodeProgram):
    """Exercises idle gaps, on-the-fly re-scheduling, and mid-run halts."""

    def on_start(self, ctx):
        # Widely spaced, node-dependent wakes: long all-asleep stretches.
        ctx.use_wake_schedule([3 + 7 * (ctx.node % 3), 40, 90 + ctx.node])

    def on_round(self, ctx):
        ctx.output["wakes"] = ctx.output.get("wakes", 0) + 1
        if ctx.neighbors and int(ctx.rng.integers(0, 2)):
            ctx.send(ctx.neighbors[0], ctx.round)

    def on_receive(self, ctx, messages):
        ctx.output["heard"] = ctx.output.get("heard", 0) + len(messages)
        if ctx.round >= 90:
            ctx.halt()
        elif ctx.round >= 40 and ctx.node % 2:
            # Extend the schedule while awake, then halt on the extra wake.
            ctx.use_wake_schedule([ctx.round + 25])


class TestScheduledWorkloads:
    def _run(self, engine, runner):
        graph = graphs.gnp(24, 0.15, seed=9)
        ledger = EnergyLedger(graph.nodes)
        network = Network(
            graph,
            GappySleeper,
            seed=3,
            ledger=ledger,
            trace=True,
        )
        with engine_path(engine) as path:
            runner(network, path)
        return network

    def _assert_identical(self, runner):
        fast = self._run("fast", runner)
        legacy = self._run("legacy", runner)
        assert fast.outputs("wakes") == legacy.outputs("wakes")
        assert fast.outputs("heard") == legacy.outputs("heard")
        assert fast.metrics() == legacy.metrics()
        assert fast.ledger.snapshot() == legacy.ledger.snapshot()
        # Trace-derived views agree even though the fast path stores idle
        # stretches as compact spans rather than per-round records.
        assert fast.trace.rounds == legacy.trace.rounds
        assert fast.trace.awake_counts() == legacy.trace.awake_counts()
        for node in fast.contexts:
            assert fast.trace.wake_rounds_of(node) == \
                legacy.trace.wake_rounds_of(node)
        assert fast.trace.message_totals() == legacy.trace.message_totals()
        assert fast.trace.sleep_diagram(sorted(fast.contexts)) == \
            legacy.trace.sleep_diagram(sorted(legacy.contexts))

    def test_run_to_completion(self):
        self._assert_identical(lambda net, engine: net.run(engine=engine))

    def test_run_rounds_truncated_mid_gap(self):
        # 55 rounds ends inside an idle stretch: the fast path must still
        # advance simulated time to exactly the same round.
        self._assert_identical(
            lambda net, engine: net.run_rounds(55, engine=engine)
        )

    def test_run_rounds_then_run(self):
        def runner(net, engine):
            net.run_rounds(10, engine=engine)
            net.run(engine=engine)

        self._assert_identical(runner)


def test_pruned_halt_schedules_agree_with_pending_work():
    """A halted node's dead calendar entries must not keep the run alive."""

    class ScheduleThenHalt(NodeProgram):
        def on_start(self, ctx):
            ctx.use_wake_schedule([1, 500_000])

        def on_round(self, ctx):
            ctx.output["woke"] = ctx.round
            ctx.halt()  # round-500000 entry must be pruned here

    graph = nx.path_graph(3)
    for engine in ("fast", "legacy"):
        network = Network(graph, ScheduleThenHalt)
        with engine_path(engine) as path:
            metrics = network.run(max_rounds=10_000, engine=path)
        assert metrics.rounds == 2  # not 500_001, and no limit error
        assert not network.has_pending_work()
