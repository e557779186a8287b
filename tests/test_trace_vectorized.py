"""NetworkTrace equivalence under the vectorized engine (satellite of the
observability PR): idle-span compaction and per-round awake/message counts
must be bit-identical to a scalar-engine trace.
"""

import networkx as nx
import pytest

from repro.baselines import LubyProgram, RegularizedLubyProgram
from repro.congest import Network

from oracles import engine_path, run_legacy

PROGRAMS = {
    "luby": lambda: LubyProgram(),
    "regularized_luby": lambda: RegularizedLubyProgram(4, 6, delta=8),
}


def _traced_network(make_program, n=80, p=0.08, seed=21):
    graph = nx.gnp_random_graph(n, p, seed=seed)
    return Network(graph, make_program, trace=True)


def _views(network):
    """Every derived view of a trace, for whole-trace comparison."""
    trace = network.trace
    nodes = sorted(network.graph.nodes)
    return {
        "rounds": trace.rounds,
        "awake_counts": trace.awake_counts(),
        "wake_rounds": {v: trace.wake_rounds_of(v) for v in nodes},
        "message_totals": trace.message_totals(),
        "sleep_diagram": trace.sleep_diagram(nodes[:8]),
    }


class TestVectorizedTraceEquivalence:
    @pytest.mark.parametrize("algorithm", sorted(PROGRAMS))
    def test_full_run_views_match_scalar(self, algorithm):
        make_program = PROGRAMS[algorithm]
        vectorized = _traced_network(make_program)
        vectorized.run(engine="vectorized")
        legacy = _traced_network(make_program)
        run_legacy(legacy)
        assert _views(vectorized) == _views(legacy)

    @pytest.mark.parametrize("algorithm", sorted(PROGRAMS))
    def test_raw_records_match_scalar(self, algorithm):
        """Not just the views: per-round awake sets and message counts."""
        make_program = PROGRAMS[algorithm]
        vectorized = _traced_network(make_program)
        vectorized.run(engine="vectorized")
        fast = _traced_network(make_program)
        fast.run(engine="fast")
        assert vectorized.trace.records == fast.trace.records
        assert vectorized.trace.idle_spans == fast.trace.idle_spans

    def test_small_graph_forced_vectorized(self):
        """Forced mode bypasses the auto node-count floor; the trace must
        still match the scalar engines on tiny graphs."""
        vectorized = _traced_network(PROGRAMS["luby"], n=12, p=0.4, seed=3)
        vectorized.run(engine="vectorized")
        legacy = _traced_network(PROGRAMS["luby"], n=12, p=0.4, seed=3)
        run_legacy(legacy)
        assert _views(vectorized) == _views(legacy)


class TestIdleCompactionVectorized:
    """run_rounds past completion idles: non-legacy engines compact the
    tail into an idle span, legacy records per-round empties — every
    derived view must agree anyway."""

    EXTRA = 25

    def _run_past_completion(self, engine):
        network = _traced_network(PROGRAMS["luby"], n=70, p=0.1, seed=9)
        with engine_path(engine) as path:
            network.run(engine=path)
            finished_at = network.round_index
            network.run_rounds(self.EXTRA, engine=path)
        return network, finished_at

    def test_vectorized_tail_is_a_compact_span(self):
        network, finished_at = self._run_past_completion("vectorized")
        assert network.round_index == finished_at + self.EXTRA
        assert network.trace.idle_spans[-1] == (
            finished_at + 1,
            finished_at + self.EXTRA,
        )
        # No empty per-round records were materialized for the tail.
        assert all(record.awake for record in network.trace.records)

    def test_views_match_legacy_per_round_records(self):
        vectorized, _ = self._run_past_completion("vectorized")
        legacy, _ = self._run_past_completion("legacy")
        assert not legacy.trace.idle_spans  # legacy never compacts
        assert _views(vectorized) == _views(legacy)

    def test_awake_counts_zero_fill_idle_tail(self):
        network, finished_at = self._run_past_completion("vectorized")
        counts = network.trace.awake_counts()
        assert len(counts) == network.trace.rounds
        assert counts[finished_at + 1:] == [0] * self.EXTRA


class TestMidCycleTruncation:
    """Repeated short run_rounds slices must leave the same trace as one
    uninterrupted run — including slices that cut a regularized-Luby
    cycle mid-way, forcing the vector runner to flush and reload."""

    @pytest.mark.parametrize("chunk", [1, 3, 7])
    def test_chunked_vectorized_trace_matches_scalar(self, chunk):
        chunked = _traced_network(PROGRAMS["regularized_luby"], n=70, p=0.1, seed=5)
        while chunked.has_pending_work():
            chunked.run_rounds(chunk, engine="vectorized")
        whole = _traced_network(PROGRAMS["regularized_luby"], n=70, p=0.1, seed=5)
        run_legacy(whole)
        # The chunked run may have idled past completion inside its final
        # slice; compare the prefix covering the scalar run.
        scalar_views = _views(whole)
        chunked_views = _views(chunked)
        total = scalar_views["rounds"]
        assert chunked_views["awake_counts"][:total] == \
            scalar_views["awake_counts"]
        assert all(
            count == 0 for count in chunked_views["awake_counts"][total:]
        )
        assert chunked_views["wake_rounds"] == scalar_views["wake_rounds"]
        assert chunked_views["message_totals"] == \
            scalar_views["message_totals"]

    def test_switching_engines_mid_run_keeps_one_trace(self):
        """A vectorized prefix continued on the fast engine records into
        the same trace with consistent round indices."""
        hybrid = _traced_network(PROGRAMS["luby"], n=70, p=0.1, seed=6)
        hybrid.run_rounds(4, engine="vectorized")
        hybrid.run(engine="fast")
        scalar = _traced_network(PROGRAMS["luby"], n=70, p=0.1, seed=6)
        scalar.run(engine="fast")
        assert _views(hybrid) == _views(scalar)
