"""Tests for the wall-clock Profiler and its engine/driver integration."""

import json

import networkx as nx
import pytest

from repro import graphs
from repro.harness import run_algorithm
from repro.obs import Profiler, render_profile, section_scope


def _find(sections, name):
    for node in sections:
        if node["name"] == name:
            return node
    return None


class TestProfilerCore:
    def test_nesting_accumulates_by_name(self):
        prof = Profiler()
        for _ in range(3):
            with prof.section("outer"):
                with prof.section("inner"):
                    pass
        tree = prof.as_dict()
        outer = _find(tree["sections"], "outer")
        assert outer["calls"] == 3
        inner = _find(outer["children"], "inner")
        assert inner["calls"] == 3
        assert 0.0 <= inner["total_s"] <= outer["total_s"] <= tree["wall_s"]

    def test_same_name_different_parents_are_distinct(self):
        prof = Profiler()
        with prof.section("a"):
            with prof.section("x"):
                pass
        with prof.section("b"):
            with prof.section("x"):
                pass
        sections = prof.as_dict()["sections"]
        assert _find(_find(sections, "a")["children"], "x")["calls"] == 1
        assert _find(_find(sections, "b")["children"], "x")["calls"] == 1

    def test_as_dict_rejects_open_sections(self):
        prof = Profiler()
        prof.begin("open")
        with pytest.raises(RuntimeError):
            prof.as_dict()
        with pytest.raises(RuntimeError):
            prof.reset()
        prof.end()
        prof.reset()
        assert prof.as_dict()["sections"] == []

    def test_section_is_exception_safe(self):
        prof = Profiler()
        with pytest.raises(ValueError):
            with prof.section("risky"):
                raise ValueError("boom")
        assert prof.as_dict()["sections"][0]["name"] == "risky"

    def test_section_scope_none_is_noop(self):
        with section_scope(None, "anything"):
            pass

    def test_profile_is_json_serializable(self):
        prof = Profiler()
        with prof.section("round"):
            with prof.section("deliver"):
                pass
        text = json.dumps(prof.as_dict())
        assert json.loads(text)["sections"][0]["name"] == "round"


class TestRenderProfile:
    def test_render_shows_tree_and_percentages(self):
        profile = {
            "wall_s": 0.2,
            "sections": [
                {
                    "name": "round",
                    "calls": 10,
                    "total_s": 0.1,
                    "children": [
                        {"name": "deliver", "calls": 10, "total_s": 0.04}
                    ],
                }
            ],
        }
        text = render_profile(profile)
        assert "wall 200.0ms" in text
        assert "round" in text and "deliver" in text
        assert "50.0%" in text and "20.0%" in text
        assert "x10" in text

    def test_render_handles_zero_wall(self):
        text = render_profile({"wall_s": 0.0, "sections": []})
        assert "-" in text


class TestRunAlgorithmProfile:
    def test_profile_embedded_in_details(self):
        graph = nx.gnp_random_graph(60, 0.1, seed=5)
        result = run_algorithm("luby", graph, seed=1, profile=True)
        profile = result.details["profile"]
        assert profile["wall_s"] > 0
        names = {node["name"] for node in profile["sections"]}
        assert "round" in names or "vector_round" in names

    def test_construction_section(self):
        graph = graphs.make_family(
            "gnp_log_degree", 300, seed=2, as_arrays=True
        )
        result = run_algorithm("luby", graph, seed=1, profile=True)
        construct = _find(result.details["profile"]["sections"], "construct")
        assert construct is not None
        assert construct["calls"] == 1
        assert construct["total_s"] > 0

    def test_no_profile_by_default(self):
        graph = nx.gnp_random_graph(30, 0.1, seed=5)
        result = run_algorithm("luby", graph, seed=1)
        assert "profile" not in result.details

    def test_scalar_engine_sections(self):
        graph = nx.gnp_random_graph(50, 0.1, seed=6)
        result = run_algorithm(
            "luby", graph, seed=2, engine="fast", profile=True
        )
        round_node = _find(result.details["profile"]["sections"], "round")
        assert round_node is not None
        child_names = {c["name"] for c in round_node["children"]}
        assert {"compute", "deliver", "receive"} <= child_names

    def test_vectorized_engine_sections(self):
        graph = nx.gnp_random_graph(80, 0.1, seed=7)
        result = run_algorithm(
            "luby", graph, seed=2, engine="vectorized", profile=True
        )
        sections = result.details["profile"]["sections"]
        vector = _find(sections, "vector_round")
        assert vector is not None and vector["calls"] >= 1

    def test_phase_driver_sections_nest_engine_sections(self):
        graph = nx.gnp_random_graph(80, 0.08, seed=8)
        result = run_algorithm("algorithm1", graph, seed=1, profile=True)
        sections = result.details["profile"]["sections"]
        names = [node["name"] for node in sections]
        assert names[:3] == ["phase1", "phase2", "phase3"]
        # At this size phase1 runs zero rounds (no network), but phase2
        # always steps a real engine — its sections must nest inside.
        phase2 = _find(sections, "phase2")
        child_names = {c["name"] for c in phase2.get("children", [])}
        assert child_names & {"round", "vector_round", "idle_ff"}

    def test_sections_sum_within_wall_clock(self):
        graph = nx.gnp_random_graph(60, 0.1, seed=9)
        result = run_algorithm("luby", graph, seed=3, profile=True)
        profile = result.details["profile"]
        tracked = sum(node["total_s"] for node in profile["sections"])
        assert tracked <= profile["wall_s"] + 1e-9

    def test_profile_does_not_change_result(self):
        graph = nx.gnp_random_graph(70, 0.1, seed=10)
        plain = run_algorithm("luby", graph, seed=4)
        profiled = run_algorithm("luby", graph, seed=4, profile=True)
        assert profiled.mis == plain.mis
        assert profiled.metrics == plain.metrics
