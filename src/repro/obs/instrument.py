"""The :class:`Instrument` event interface every engine path emits through.

An instrument observes one or more simulations. The engine calls it at a
handful of well-defined points:

* ``on_run_start(network)`` — after ``on_start`` callbacks, before round 0;
* ``on_round(network, round_index, awake)`` — after every executed round
  (scalar, cached, or vectorized), with the number of awake nodes;
* ``on_phase_start(name)`` / ``on_phase_end(name, metrics)`` — around each
  phase of a multi-phase driver (``algorithm1``/``algorithm2`` and the
  constant-average-energy compositions);
* ``on_epoch(epoch)`` — after each epoch of a dynamic churn timeline, with
  the :class:`~repro.dynamic.simulator.EpochResult` row;
* ``on_run_end(network, metrics)`` — when ``Network.run``/``run_rounds``
  returns.

Idle rounds the engine fast-forwards over emit no ``on_round`` events —
they are visible as gaps in ``round_index`` (and as profiler ``idle_ff``
sections), mirroring how :class:`~repro.congest.trace.NetworkTrace` stores
them as compact spans.

Disabled-path cost
------------------

The default instrument is the shared :data:`NULL_INSTRUMENT` null object.
Networks cache ``instrument is not NULL_INSTRUMENT`` as a boolean at
construction, so the cached and vectorized round loops pay only a couple
of predictable branch checks per round when observability is off
(CI-gated by ``benchmarks/test_bench_obs.py``). Events that fire O(1)
times per run (run/phase/epoch boundaries) go through the null object's
no-op methods unconditionally — simpler call sites, unmeasurable cost.

Instruments are installed per network (``Network(instrument=...)``). One
profiler observes every internal network a multi-phase algorithm builds
because the run's :class:`~repro.congest.network.RunOptions` carries it,
and the driver hands it to each network it builds.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple


class Instrument:
    """Base class: every hook is a no-op, so subclasses override à la carte.

    The ``profiler`` attribute lets the engine find a wall-clock profiler
    inside whatever instrument it was handed (a bare :class:`Profiler`
    sets it to itself; a :class:`CompositeInstrument` exposes the first
    profiling member) without isinstance checks on the hot path.
    """

    #: The :class:`~repro.obs.profiler.Profiler` carried by this
    #: instrument, if any; engines cache it and call ``begin``/``end``
    #: around their hot sections only when it is not ``None``.
    profiler = None

    def on_run_start(self, network) -> None:
        """A network finished ``on_start`` and is about to run round 0."""

    def on_round(self, network, round_index: int, awake: int) -> None:
        """One synchronous round executed with ``awake`` nodes awake."""

    def on_phase_start(self, name: str) -> None:
        """A multi-phase driver is entering phase ``name``."""

    def on_phase_end(self, name: str, metrics) -> None:
        """Phase ``name`` finished with the given
        :class:`~repro.congest.metrics.RunMetrics`."""

    def on_epoch(self, epoch) -> None:
        """A dynamic timeline finished one epoch
        (:class:`~repro.dynamic.simulator.EpochResult`)."""

    def on_run_end(self, network, metrics) -> None:
        """``Network.run``/``run_rounds`` returned ``metrics``."""


class NullInstrument(Instrument):
    """The disabled path: a shared, stateless no-op (null object)."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "NULL_INSTRUMENT"


#: The singleton every network without an instrument resolves to. Engines
#: compare against it by identity to skip all per-round emission.
NULL_INSTRUMENT = NullInstrument()


class CompositeInstrument(Instrument):
    """Fan one event stream out to several instruments, in order."""

    def __init__(self, instruments: Sequence[Instrument]):
        self.instruments: Tuple[Instrument, ...] = tuple(
            inst for inst in instruments if inst is not NULL_INSTRUMENT
        )
        for inst in self.instruments:
            if inst.profiler is not None:
                self.profiler = inst.profiler
                break

    def on_run_start(self, network) -> None:
        for inst in self.instruments:
            inst.on_run_start(network)

    def on_round(self, network, round_index: int, awake: int) -> None:
        for inst in self.instruments:
            inst.on_round(network, round_index, awake)

    def on_phase_start(self, name: str) -> None:
        for inst in self.instruments:
            inst.on_phase_start(name)

    def on_phase_end(self, name: str, metrics) -> None:
        for inst in self.instruments:
            inst.on_phase_end(name, metrics)

    def on_epoch(self, epoch) -> None:
        for inst in self.instruments:
            inst.on_epoch(epoch)

    def on_run_end(self, network, metrics) -> None:
        for inst in self.instruments:
            inst.on_run_end(network, metrics)


class RecordingInstrument(Instrument):
    """Append every event to a list — the reference observer for tests.

    Each event is a tuple ``(kind, *payload)``; networks are recorded by
    identity-free summaries (round counts, awake counts) so recorded runs
    can be compared across engine paths without holding networks alive.
    """

    def __init__(self) -> None:
        self.events: List[Tuple[Any, ...]] = []
        self.rounds_seen = 0
        self.awake_total = 0

    def on_run_start(self, network) -> None:
        self.events.append(("run_start", network.round_index))

    def on_round(self, network, round_index: int, awake: int) -> None:
        self.rounds_seen += 1
        self.awake_total += awake
        self.events.append(("round", round_index, awake))

    def on_phase_start(self, name: str) -> None:
        self.events.append(("phase_start", name))

    def on_phase_end(self, name: str, metrics) -> None:
        self.events.append(("phase_end", name, metrics.rounds))

    def on_epoch(self, epoch) -> None:
        self.events.append(("epoch", epoch.epoch, epoch.mis_size))

    def on_run_end(self, network, metrics) -> None:
        self.events.append(("run_end", metrics.rounds))

    def of_kind(self, kind: str) -> List[Tuple[Any, ...]]:
        return [event for event in self.events if event[0] == kind]


def resolve_instrument(spec: Optional[Instrument]) -> Instrument:
    """Resolve a ``Network(instrument=...)`` argument.

    ``None`` is the shared null object.
    """
    if spec is None:
        return NULL_INSTRUMENT
    if isinstance(spec, Instrument):
        return spec
    raise TypeError(
        f"cannot interpret {spec!r} as an Instrument"
    )
