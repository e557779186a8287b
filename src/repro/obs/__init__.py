"""Run telemetry layer: instruments, profiling, metrics, and JSONL streams.

The observability subsystem gives every execution layer of the simulator a
single, structured way to say what it is doing:

* :class:`Instrument` — the event interface (``on_run_start``,
  ``on_round``, ``on_phase_start``/``on_phase_end``, ``on_epoch``,
  ``on_run_end``) every engine path emits through. The disabled path is a
  shared :data:`NULL_INSTRUMENT` null object plus per-network boolean
  guards, so an uninstrumented run pays only a handful of ``is not None``
  checks per round (gated ≤5% by ``benchmarks/test_bench_obs.py``).
* :class:`Profiler` — an instrument carrying nested wall-clock section
  timers over the engine hot spots (scalar rounds, channel delivery,
  vectorized rounds, idle fast-forward, algorithm
  phases), rendered as a per-run profile tree.
* :class:`MetricsRegistry` / :class:`MetricsInstrument` —
  counters/gauges/histograms (awake nodes, messages, collisions, ledger
  charges, repair sizes) filled from the event stream.
* :mod:`repro.obs.telemetry` — a streaming JSONL sink: harness runs append
  one self-describing record per seed/config *as it completes* (safe under
  ``parallel_map`` process pools), so a long sweep can be tailed,
  checkpointed, and aggregated while still running.
* :mod:`repro.obs.report` — loader/aggregator for those streams (tolerant
  of a partially-written final line); ``python -m repro report run.jsonl``
  pretty-prints a finished or in-flight stream.
* :mod:`repro.obs.log` — the ``repro.*`` :mod:`logging` hierarchy behind
  the CLI ``--verbose``/``--quiet`` flags.

``repro.obs.report`` is deliberately *not* imported here: the engine
(`repro.congest.network`) imports this package on module load, and the
report module depends on :mod:`repro.analysis`, which would widen the
engine's import footprint for a tool only the CLI needs.
"""

from .instrument import (
    NULL_INSTRUMENT,
    CompositeInstrument,
    Instrument,
    NullInstrument,
    RecordingInstrument,
    resolve_instrument,
)
from .log import configure_logging, get_logger
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsInstrument,
    MetricsRegistry,
)
from .profiler import Profiler, SectionStat, render_profile, section_scope
from .telemetry import (
    SCHEMA_VERSION,
    channel_label,
    emit,
    make_record,
    set_telemetry_path,
    telemetry_path,
    telemetry_scope,
)

__all__ = [
    "CompositeInstrument",
    "Counter",
    "Gauge",
    "Histogram",
    "Instrument",
    "MetricsInstrument",
    "MetricsRegistry",
    "NULL_INSTRUMENT",
    "NullInstrument",
    "Profiler",
    "RecordingInstrument",
    "SCHEMA_VERSION",
    "SectionStat",
    "channel_label",
    "configure_logging",
    "emit",
    "get_logger",
    "make_record",
    "render_profile",
    "resolve_instrument",
    "section_scope",
    "set_telemetry_path",
    "telemetry_path",
    "telemetry_scope",
]
