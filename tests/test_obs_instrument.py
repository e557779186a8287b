"""Tests for the Instrument event interface and its engine threading."""

import networkx as nx
import pytest

from repro import graphs
from repro.baselines import LubyProgram
from repro.congest import Network, RunOptions
from repro.harness import run_algorithm
from repro.obs import (
    NULL_INSTRUMENT,
    CompositeInstrument,
    Instrument,
    NullInstrument,
    RecordingInstrument,
    resolve_instrument,
)

from oracles import engine_path


class TestResolution:
    def test_default_is_null(self):
        assert resolve_instrument(None) is NULL_INSTRUMENT

    def test_rejects_non_instruments(self):
        with pytest.raises(TypeError):
            resolve_instrument("profiler")

    def test_network_caches_observed_flag(self):
        graph = graphs.path(3)
        plain = Network(graph, LubyProgram)
        assert plain.instrument is NULL_INSTRUMENT
        assert not plain._observed

        rec = RecordingInstrument()
        observed = Network(graph, LubyProgram, instrument=rec)
        assert observed.instrument is rec
        assert observed._observed


class TestCompositeInstrument:
    def test_fans_out_in_order(self):
        first, second = RecordingInstrument(), RecordingInstrument()
        composite = CompositeInstrument([first, second])
        composite.on_phase_start("p")
        assert first.events == second.events == [("phase_start", "p")]

    def test_drops_null_members(self):
        rec = RecordingInstrument()
        composite = CompositeInstrument([NULL_INSTRUMENT, rec])
        assert composite.instruments == (rec,)

    def test_exposes_first_profiler(self):
        from repro.obs import Profiler

        prof = Profiler()
        composite = CompositeInstrument([RecordingInstrument(), prof])
        assert composite.profiler is prof

    def test_no_profiler_means_none(self):
        assert CompositeInstrument([RecordingInstrument()]).profiler is None


class TestEventStream:
    def _run(self, mode, algorithm="luby", n=80):
        rec = RecordingInstrument()
        graph = nx.gnp_random_graph(n, 0.1, seed=1)
        with engine_path(mode) as engine:
            result = run_algorithm(
                algorithm, graph, seed=3, engine=engine, instrument=rec
            )
        return rec, result

    def test_run_lifecycle_events(self):
        rec, result = self._run("auto")
        kinds = [event[0] for event in rec.events]
        assert kinds[0] == "run_start"
        assert kinds[-1] == "run_end"
        assert rec.events[-1] == ("run_end", result.rounds)

    @pytest.mark.parametrize(
        "algorithm",
        [
            "luby",
            "regularized_luby",
            "ghaffari2016",
            "algorithm1",
            "algorithm2",
        ],
    )
    def test_event_streams_identical_across_engines(self, algorithm):
        """The acceptance matrix: a recording instrument attached to every
        engine path sees the same rounds and the same awake counts — the
        paper's pipelines included, whose Phase-I networks exercise the
        schedule-aware kernels (on_phase_start/on_phase_end/on_round all
        line up event for event)."""
        legacy, _ = self._run("legacy", algorithm)
        fast, _ = self._run("fast", algorithm)
        vectorized, _ = self._run("vectorized", algorithm)
        assert legacy.events == fast.events == vectorized.events
        assert vectorized.rounds_seen == legacy.rounds_seen
        assert vectorized.awake_total == legacy.awake_total

    @pytest.mark.parametrize("algorithm", ["algorithm1", "ghaffari2016"])
    def test_profiler_rides_the_vectorized_path(self, algorithm):
        """``profile=True`` under a forced vectorized engine: the results
        stay bit-identical to an unprofiled run and the section tree
        records the dense rounds under ``vector_round``."""
        graph = nx.gnp_random_graph(80, 0.1, seed=1)
        plain = run_algorithm(algorithm, graph, seed=3, engine="vectorized")
        profiled = run_algorithm(
            algorithm, graph, seed=3, engine="vectorized", profile=True
        )
        assert profiled.mis == plain.mis
        assert profiled.metrics == plain.metrics
        profile = profiled.details["profile"]

        def section_names(sections, acc):
            for section in sections:
                acc.add(section["name"])
                section_names(section.get("children", ()), acc)
            return acc

        names = section_names(profile["sections"], set())
        assert "vector_round" in names, sorted(names)

    def test_round_events_match_trace(self):
        """on_round awake counts must agree with the NetworkTrace."""
        rec = RecordingInstrument()
        graph = nx.gnp_random_graph(40, 0.15, seed=2)
        network = Network(graph, LubyProgram, trace=True, instrument=rec)
        network.run()
        counts = [awake for kind, _, awake in rec.of_kind("round")]
        assert counts == [c for c in network.trace.awake_counts() if c]

    def test_results_unchanged_by_instrumentation(self):
        _, observed = self._run("auto")
        graph = nx.gnp_random_graph(80, 0.1, seed=1)
        plain = run_algorithm("luby", graph, seed=3)
        assert observed.mis == plain.mis
        assert observed.metrics == plain.metrics


class TestPhaseEvents:
    @pytest.mark.parametrize(
        "algorithm,expected",
        [
            ("algorithm1", ["phase1", "phase2", "phase3"]),
            ("algorithm2", ["phase1", "phase2", "phase3"]),
            (
                "algorithm1_avg",
                ["phase1", "lemma42", "sparsify", "phase2", "phase3"],
            ),
        ],
    )
    def test_phase_sequence(self, algorithm, expected):
        rec = RecordingInstrument()
        graph = nx.gnp_random_graph(90, 0.08, seed=4)
        result = run_algorithm(algorithm, graph, seed=1, instrument=rec)
        starts = [name for _, name in rec.of_kind("phase_start")]
        ends = [event[1] for event in rec.of_kind("phase_end")]
        assert starts == ends == expected
        # Phase-end metrics are the same objects the result aggregates.
        reported = {
            event[1]: event[2] for event in rec.of_kind("phase_end")
        }
        for name, phase in result.metrics.phases.items():
            assert reported[name] == phase.rounds


class TestEpochEvents:
    def test_dynamic_epochs_are_emitted(self):
        from repro.harness import run_dynamic_workload

        rec = RecordingInstrument()
        result = run_dynamic_workload(
            "link_flap", "algorithm1", n=40, epochs=3, seed=1,
            options=RunOptions(instrument=rec),
        )
        epochs = rec.of_kind("epoch")
        assert [event[1] for event in epochs] == [
            row.epoch for row in result.epochs
        ]
        assert [event[2] for event in epochs] == [
            row.mis_size for row in result.epochs
        ]


class TestNullInstrument:
    def test_singleton_shape(self):
        assert isinstance(NULL_INSTRUMENT, NullInstrument)
        assert isinstance(NULL_INSTRUMENT, Instrument)
        assert NULL_INSTRUMENT.profiler is None

    def test_every_hook_is_noop(self):
        NULL_INSTRUMENT.on_run_start(None)
        NULL_INSTRUMENT.on_round(None, 0, 0)
        NULL_INSTRUMENT.on_phase_start("p")
        NULL_INSTRUMENT.on_phase_end("p", None)
        NULL_INSTRUMENT.on_epoch(None)
        NULL_INSTRUMENT.on_run_end(None, None)
