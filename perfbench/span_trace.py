"""Outside-in span tracer for the repo benchmark.

The tracer wraps the public callables of each ``repro`` layer from the
outside — nothing under ``src/`` is edited — and records one span per call:
``[name, start, end, parent, count]``, where ``parent`` is the index of the
enclosing span (``-1`` at top level) and ``count`` is a work count the
layer reports (nodes of a constructed network, nodes of a hand-off copy).
Spans are kept in memory and written out by the benchmark when it ends.

A function target is replaced wherever it is bound inside ``repro``: in the
module that defines it, in every module that imported it by name, and in
module-level registries (``harness.runner.ALGORITHMS``) that hold it, so a
call through any of those names is traced. Method targets are replaced on
their class. :meth:`Tracer.uninstall` restores every original.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter
from typing import Callable, Dict, List, Optional

#: Plain span around every call.
SPAN = "span"
#: Span that also marks the ``core`` layer as open (phase drivers).
CORE = "core"
#: Span only while a ``core`` span is open; calls elsewhere pass through.
HANDOFF = "handoff"


def _network_nodes(args, result) -> int:
    return args[1].number_of_nodes()


def _copy_nodes(args, result) -> int:
    return result.number_of_nodes()


#: (span name, module, attribute, kind, count).  The layer of a span is the
#: part of its name before the first dot.
TARGETS = (
    ("graphs.build", "repro.graphs.generators", "make_family", SPAN, None),
    ("graphs.build", "repro.graphs.generators", "gnp_expected_degree", SPAN, None),
    ("graphs.max_degree", "repro.graphs.properties", "max_degree", SPAN, None),
    ("congest.construct", "repro.congest.network", "Network.__init__", SPAN,
     _network_nodes),
    ("congest.csr", "repro.congest.vectorized", "graph_arrays", SPAN, None),
    ("congest.csr", "repro.congest.vectorized", "GraphArrays.from_graph", SPAN, None),
    ("congest.vector_round", "repro.congest.vectorized", "VectorRound.step", SPAN, None),
    ("congest.scalar_round", "repro.congest.network", "Network.step", SPAN, None),
    ("congest.deliver", "repro.congest.channels", "CongestChannel.deliver", SPAN, None),
    ("baselines.driver", "repro.baselines.luby", "luby_mis", SPAN, None),
    ("core.driver", "repro.core.algorithm1", "algorithm1", CORE, None),
    ("core.driver", "repro.core.algorithm2", "algorithm2", CORE, None),
    ("core.driver", "repro.core.average_energy",
     "algorithm1_constant_average_energy", CORE, None),
    ("core.driver", "repro.core.average_energy",
     "algorithm2_constant_average_energy", CORE, None),
    ("core.phase1", "repro.core.phase1_alg1", "run_phase1_alg1", CORE, None),
    ("core.phase1", "repro.core.phase1_alg2", "run_phase1_alg2", CORE, None),
    ("core.phase2", "repro.core.phase2", "run_phase2", CORE, None),
    ("core.phase3", "repro.core.phase3", "run_phase3", CORE, None),
    ("core.lemma42", "repro.core.average_energy", "run_lemma42", CORE, None),
    ("core.lemma42", "repro.core.average_energy", "run_sparsify", CORE, None),
    ("core.handoff.subgraph", "networkx", "Graph.subgraph", HANDOFF, None),
    ("core.handoff.copy", "networkx", "Graph.copy", HANDOFF, _copy_nodes),
    ("core.handoff.components", "networkx", "connected_components", HANDOFF, None),
    ("cluster.merge", "repro.cluster.merge", "merge_component_clusters", SPAN, None),
    ("cluster.merge", "repro.core.phase2", "ball_carving", SPAN, None),
    ("analysis.verify", "repro.analysis.verify", "verify_mis", SPAN, None),
)


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = [-1]
        self._core_depth = 0
        self._patches: List[tuple] = []

    # -- wrappers -------------------------------------------------------
    def _wrap(self, name: str, fn: Callable, kind: str,
              count: Optional[Callable]) -> Callable:
        spans = self.spans
        stack = self._stack
        tracer = self
        core = kind == CORE
        handoff = kind == HANDOFF
        # ``connected_components`` is a generator: consume it inside the
        # span so the span covers the work, not just the generator setup.
        consume = handoff and getattr(fn, "__name__", "") == "connected_components"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if handoff and not tracer._core_depth:
                return fn(*args, **kwargs)
            index = len(spans)
            span = [name, perf_counter(), 0.0, stack[-1], 0]
            spans.append(span)
            stack.append(index)
            if core:
                tracer._core_depth += 1
            try:
                result = fn(*args, **kwargs)
                if consume:
                    result = iter(list(result))
                if count is not None:
                    span[4] = count(args, result)
                return result
            finally:
                if core:
                    tracer._core_depth -= 1
                stack.pop()
                span[2] = perf_counter()

        return traced

    # -- install / uninstall --------------------------------------------
    def install(self) -> "Tracer":
        """Patch every target (a tracer is installed at most once at a time)."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for name, module_name, attribute, kind, count in TARGETS:
            module = importlib.import_module(module_name)
            owner_name, _, member = attribute.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[member]
                if isinstance(original, classmethod):
                    wrapper = classmethod(
                        self._wrap(name, original.__func__, kind, count)
                    )
                else:
                    wrapper = self._wrap(name, original, kind, count)
                self._set(owner, member, original, wrapper)
                continue
            original = getattr(module, member)
            wrapper = self._wrap(name, original, kind, count)
            self._set(module, member, original, wrapper)
            self._rebind(original, wrapper)
        return self

    def _set(self, owner, attribute: str, original, value) -> None:
        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, value)

    def _rebind(self, original, wrapper) -> None:
        """Replace ``original`` in every ``repro`` module and registry dict."""
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == "repro" or module_name.startswith("repro.")
            ):
                continue
            for attribute, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attribute, original, wrapper)
                elif type(value) is dict:
                    for key, item in list(value.items()):
                        if item is original:
                            self._patches.append((value, key, original))
                            value[key] = wrapper

    def uninstall(self) -> None:
        """Restore every patched attribute and registry entry."""
        for owner, attribute, original in reversed(self._patches):
            if type(owner) is dict:
                owner[attribute] = original
            else:
                setattr(owner, attribute, original)
        self._patches.clear()

    # -- reading --------------------------------------------------------
    def layer_totals(self, since: int = 0, until: Optional[int] = None
                     ) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, summed self time, summed count.

        A span's self time is its duration minus the durations of its
        direct children; children nest strictly (one thread), so the self
        times of a window sum to the time its top-level spans cover.
        """
        spans = self.spans
        stop = len(spans) if until is None else until
        child = [0.0] * (stop - since)
        for index in range(since, stop):
            parent = spans[index][3]
            if parent >= since:
                child[parent - since] += spans[index][2] - spans[index][1]
        totals: Dict[str, Dict[str, float]] = {}
        for index in range(since, stop):
            name, start, end, _, count = spans[index]
            entry = totals.setdefault(name, {"calls": 0, "self_s": 0.0, "count": 0})
            entry["calls"] += 1
            entry["self_s"] += (end - start) - child[index - since]
            entry["count"] += count
        return totals

    def dump(self, path) -> None:
        """Write the spans as JSON (one ``[name, start, end, parent, count]``
        list per span, times in ``perf_counter`` seconds)."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start", "end", "parent", "count"],
                       "spans": self.spans}, handle)
