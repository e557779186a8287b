"""Wall-clock profiling instrument: nested section timers over the engine.

A :class:`Profiler` is an :class:`~repro.obs.instrument.Instrument` whose
value is not the event stream but the *time* between paired
``begin(name)``/``end()`` calls the engine places around its hot spots:

* ``round`` — one scalar/cached engine round (``Network.step``), with a
  nested ``deliver`` section for the channel's delivery phase;
* ``vector_round`` — one vectorized whole-network round;
* ``idle_ff`` — the O(1) idle fast-forward jumps;
* ``phase1``/``phase2``/``phase3``/... — the multi-phase drivers wrap each
  phase, so engine sections nest under the phase that ran them.

Sections form a tree keyed by name under their parent — entering the same
name twice under one parent accumulates into one node (calls, total
seconds). :meth:`Profiler.render` pretty-prints the tree with percentages
of the profiled wall clock; :meth:`Profiler.as_dict` produces the
JSON-friendly form embedded in ``MISResult.details["profile"]``.

The profiler deliberately has no disabled mode of its own: engines only
call ``begin``/``end`` when a profiler is present (the cached boolean/None
checks described in :mod:`repro.obs.instrument`), so an unprofiled run
never touches :func:`time.perf_counter`.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from time import perf_counter
from typing import Any, Dict, List, Optional

from .instrument import Instrument


class SectionStat:
    """One node of the profile tree: cumulative time of a named section."""

    __slots__ = ("name", "calls", "total_s", "children")

    def __init__(self, name: str):
        self.name = name
        self.calls = 0
        self.total_s = 0.0
        self.children: Dict[str, "SectionStat"] = {}

    def child(self, name: str) -> "SectionStat":
        node = self.children.get(name)
        if node is None:
            node = SectionStat(name)
            self.children[name] = node
        return node

    def as_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "name": self.name,
            "calls": self.calls,
            "total_s": self.total_s,
        }
        if self.children:
            data["children"] = [
                child.as_dict() for child in self.children.values()
            ]
        return data

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SectionStat({self.name!r}, calls={self.calls}, "
            f"total_s={self.total_s:.6f})"
        )


class Profiler(Instrument):
    """Nested wall-clock section timers, usable as a run's instrument.

    The profiled wall clock runs from construction (or the last
    :meth:`reset`) to the moment a report is taken, so section totals can
    be read as fractions of real elapsed time — the engine's sections are
    guaranteed to sum to *at most* the wall clock (unattributed time is
    setup, verification, and python glue between sections).
    """

    def __init__(self) -> None:
        self.profiler = self  # engines discover the profiler through this
        self.root = SectionStat("total")
        self._stack: List[SectionStat] = [self.root]
        self._starts: List[float] = []
        self._wall_start = perf_counter()

    # -- hot-path API (engine calls) ------------------------------------
    def begin(self, name: str) -> None:
        """Enter section ``name`` under the currently open section."""
        node = self._stack[-1].child(name)
        node.calls += 1
        self._stack.append(node)
        self._starts.append(perf_counter())

    def end(self) -> None:
        """Leave the innermost open section, accumulating its elapsed time."""
        elapsed = perf_counter() - self._starts.pop()
        self._stack.pop().total_s += elapsed

    @contextmanager
    def section(self, name: str):
        """Context-managed :meth:`begin`/:meth:`end` (exception-safe)."""
        self.begin(name)
        try:
            yield self
        finally:
            self.end()

    # -- reporting ------------------------------------------------------
    @property
    def wall_s(self) -> float:
        """Wall-clock seconds since construction / the last reset."""
        return perf_counter() - self._wall_start

    def reset(self) -> None:
        if len(self._stack) != 1:
            raise RuntimeError(
                f"cannot reset with {len(self._stack) - 1} open section(s)"
            )
        self.root = SectionStat("total")
        self._stack = [self.root]
        self._starts = []
        self._wall_start = perf_counter()

    def as_dict(self) -> Dict[str, Any]:
        """JSON-friendly profile: wall clock + the section tree."""
        if len(self._stack) != 1:
            raise RuntimeError(
                f"profile read with {len(self._stack) - 1} open section(s)"
            )
        return {
            "wall_s": self.wall_s,
            "sections": [
                child.as_dict() for child in self.root.children.values()
            ],
        }

    def render(self) -> str:
        return render_profile(self.as_dict())


def render_profile(profile: Dict[str, Any]) -> str:
    """Pretty-print a profile dict (from :meth:`Profiler.as_dict` or a
    deserialized ``MISResult.details["profile"]``) as an indented tree.

    Percentages are of the profiled wall clock; children of a section are
    fractions of that same wall clock, so the tree reads uniformly.
    """
    wall = float(profile.get("wall_s", 0.0))
    sections = profile.get("sections", [])
    tracked = sum(float(node.get("total_s", 0.0)) for node in sections)
    lines = [
        f"profile: wall {wall * 1000:.1f}ms, "
        f"tracked {tracked * 1000:.1f}ms "
        f"({_pct(tracked, wall)} of wall)"
    ]

    def walk(node: Dict[str, Any], depth: int) -> None:
        total = float(node.get("total_s", 0.0))
        calls = int(node.get("calls", 0))
        label = "  " * depth + str(node.get("name", "?"))
        lines.append(
            f"  {label:<28} {total * 1000:>9.1f}ms "
            f"{_pct(total, wall):>6}  x{calls}"
        )
        for child in node.get("children", []):
            walk(child, depth + 1)

    for node in sections:
        walk(node, 1)
    return "\n".join(lines)


def _pct(part: float, whole: float) -> str:
    if whole <= 0:
        return "-"
    return f"{100.0 * part / whole:.1f}%"


def section_scope(profiler: Optional[Profiler], name: str):
    """A ``with``-able section on ``profiler``, or a no-op when ``None``.

    The one-liner the phase drivers use so un-profiled runs skip timer
    calls entirely::

        with section_scope(instrument.profiler, "phase1"):
            ...
    """
    if profiler is None:
        return nullcontext()
    return profiler.section(name)
