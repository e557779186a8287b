"""Uniform runner over every MIS algorithm in the package."""

from __future__ import annotations

from time import perf_counter
from typing import (
    Any, Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple,
)

import networkx as nx

from ..analysis import verify_mis
from ..baselines import (
    GhaffariProgram,
    LubyProgram,
    RadioDecayProgram,
    RegularizedLubyProgram,
    ghaffari_mis,
    luby_mis,
    radio_decay_mis,
    regularized_luby_mis,
)
from ..congest import RunOptions
from ..core import (
    Phase1Alg1Program,
    Phase1Alg2Program,
    algorithm1,
    algorithm1_constant_average_energy,
    algorithm2,
    algorithm2_constant_average_energy,
)
from ..core.average_energy import Lemma42Program
from ..graphs import make_family
from ..obs import (
    CompositeInstrument,
    Profiler,
    channel_label,
    emit,
    make_record,
    telemetry_path,
)
from ..result import MISResult
from .parallel import parallel_map


class AlgorithmRow(NamedTuple):
    """One registered algorithm: its driver and what its networks run."""

    driver: Callable[..., MISResult]
    #: Every node-program class the driver's networks may run.
    programs: Tuple[type, ...]
    #: Sound on the shared radio medium (half-duplex, collisions):
    #: point-to-point algorithms silently lose messages there, so
    #: :func:`run_algorithm` refuses the combination for anything else.
    radio_safe: bool = False


#: The single source for every per-algorithm fact; the registries below
#: are derived from it.
ALGORITHM_TABLE: Dict[str, AlgorithmRow] = {
    "luby": AlgorithmRow(luby_mis, (LubyProgram,)),
    "regularized_luby": AlgorithmRow(
        regularized_luby_mis, (RegularizedLubyProgram,)
    ),
    "ghaffari2016": AlgorithmRow(ghaffari_mis, (GhaffariProgram,)),
    # The paper's pipelines: Phase I runs the named program, Phases II/III
    # both run GhaffariProgram networks.
    "algorithm1": AlgorithmRow(
        algorithm1, (Phase1Alg1Program, GhaffariProgram)
    ),
    "algorithm2": AlgorithmRow(
        algorithm2, (Phase1Alg2Program, GhaffariProgram)
    ),
    # Section 4's wrappers add Lemma 4.2's degree reduction and a
    # sparsifier that runs Phase1Alg1Program for both.
    "algorithm1_avg": AlgorithmRow(
        algorithm1_constant_average_energy,
        (Phase1Alg1Program, GhaffariProgram, Lemma42Program),
    ),
    "algorithm2_avg": AlgorithmRow(
        algorithm2_constant_average_energy,
        (Phase1Alg2Program, GhaffariProgram, Lemma42Program,
         Phase1Alg1Program),
    ),
    "radio_decay": AlgorithmRow(
        radio_decay_mis, (RadioDecayProgram,), radio_safe=True
    ),
}

#: Name -> driver. ``run_algorithm`` and the dynamic maintainer call
#: through this dict, so replacing an entry reroutes every run.
ALGORITHMS: Dict[str, Callable[..., MISResult]] = {
    name: row.driver for name, row in ALGORITHM_TABLE.items()
}

RADIO_SAFE_ALGORITHMS = frozenset(
    name for name, row in ALGORITHM_TABLE.items() if row.radio_safe
)

#: Algorithms every one of whose node programs has a dense-round kernel
#: (``NodeProgram.vector_round``). For these the engine's
#: ``"vectorized"``/default ``"auto"`` mode executes dense rounds as
#: whole-network numpy steps; ``tests/test_engine_equivalence.py`` both
#: proves the path bit-identical to ``fast`` and to the step-every-round
#: oracle of ``tests/oracles.py`` for *every* registered algorithm and
#: fails if it silently never engages for an algorithm listed here.
VECTOR_CAPABLE_ALGORITHMS = frozenset(
    name
    for name, row in ALGORITHM_TABLE.items()
    if all(callable(cls.vector_round) for cls in row.programs)
)


def run_algorithm(
    name: str,
    graph: nx.Graph,
    seed: int = 0,
    *,
    engine: str = "auto",
    channel=None,
    instrument=None,
    profile: bool = False,
    faults=None,
    **kwargs,
) -> MISResult:
    """Run one registered algorithm by name.

    ``engine`` selects the engine path (:data:`repro.congest.ENGINE_MODES`).
    ``channel`` selects the delivery model (see
    :data:`repro.congest.CHANNELS`, plus the fault-wrapper spec grammar of
    :mod:`repro.faults.spec`, e.g. ``"lossy(drop=0.1):congest"``): ``None``
    keeps each algorithm's own default (CONGEST for the paper's algorithms
    and baselines, the radio broadcast channel for ``radio_decay``).
    ``faults`` injects a node-fault timeline (a
    :class:`repro.faults.FaultPlan` of crash/straggler events).
    ``instrument`` observes the run (see :mod:`repro.obs`);
    ``profile=True`` attaches a wall-clock :class:`~repro.obs.Profiler`
    (composed with any ``instrument``) and stores its section tree in
    ``result.details["profile"]``. All four reach every network the run
    builds as one :class:`~repro.congest.RunOptions`, built after the
    checks below. Extra keyword arguments (``config=``, ``ledger=``,
    ``size_bound=``, ...) are forwarded to the underlying algorithm
    untouched.
    """
    if name not in ALGORITHMS:
        raise KeyError(f"unknown algorithm {name!r}; have {sorted(ALGORITHMS)}")
    if channel is not None:
        _check_radio_safety(name, channel)
    if faults is not None and not faults.empty:
        # Validate here against the full input graph: sub-networks the
        # algorithm builds over node subsets legitimately see only part of
        # the plan (the injector skips absent nodes), so the loud
        # unknown-node error lives at this boundary.
        unknown = faults.nodes() - set(graph.nodes)
        if unknown:
            raise KeyError(
                f"fault plan names nodes not in the graph: "
                f"{sorted(unknown, key=repr)[:5]!r}"
            )
    profiler = Profiler() if profile else None
    if profiler is not None:
        instrument = (
            CompositeInstrument([instrument, profiler])
            if instrument is not None
            else profiler
        )
    options = RunOptions(
        engine=engine, channel=channel, faults=faults, instrument=instrument
    )
    result = ALGORITHMS[name](graph, seed, options=options, **kwargs)
    if profiler is not None:
        result.details["profile"] = profiler.as_dict()
    return result


def _check_radio_safety(name: str, channel) -> None:
    """Refuse point-to-point algorithms on the shared radio medium.

    On a broadcast channel a transmitter never hears its neighbors'
    simultaneous transmissions (half-duplex), so algorithms like Luby
    silently lose exactly the messages their correctness depends on — or
    crash on the COLLISION sentinel. Failing loudly here protects every
    caller (CLI, sweeps, process pools), not just one entry point.
    """
    from ..congest import BroadcastChannel, make_channel

    if name in RADIO_SAFE_ALGORITHMS:
        return
    # ``unwrapped()`` sees through fault wrappers: ``lossy(...):broadcast``
    # is still a radio medium and still unsound for point-to-point code.
    if isinstance(make_channel(channel).unwrapped(), BroadcastChannel):
        raise ValueError(
            f"algorithm {name!r} is point-to-point and unsound on the "
            f"shared radio medium; use one of "
            f"{sorted(RADIO_SAFE_ALGORITHMS)} with the broadcast channel"
        )


def emit_static_record(
    name: str,
    graph: nx.Graph,
    seed: int,
    channel,
    engine: str,
    result: MISResult,
    report,
    elapsed_s: float,
    *,
    extra: Optional[Dict[str, Any]] = None,
) -> bool:
    """Append one ``kind="static"`` telemetry record for a finished run.

    No-op (returns False) without an ambient sink, so callers emit
    unconditionally. ``extra`` adds caller context (e.g. the graph
    family). Shared by :func:`measure` and the CLI single-run path so the
    record schema cannot drift between them.
    """
    if telemetry_path() is None:
        return False
    record = make_record(
        "static",
        algorithm=name,
        n=graph.number_of_nodes(),
        seed=seed,
        channel=channel_label(channel),
        engine=engine,
        **(extra or {}),
    )
    record.update(
        elapsed_s=elapsed_s,
        mis_size=len(result.mis),
        independent=report.independent,
        maximal=report.maximal,
        metrics=result.metrics.to_dict(),
    )
    return emit(record)


def emit_dynamic_record(
    workload: str,
    algorithm: str,
    strategy: str,
    n: int,
    epochs: int,
    seed: int,
    rate: float,
    summary: Dict[str, float],
    elapsed_s: float,
) -> bool:
    """Append one ``kind="dynamic"`` telemetry record (see
    :func:`emit_static_record` for the contract)."""
    if telemetry_path() is None:
        return False
    record = make_record(
        "dynamic",
        algorithm=algorithm,
        workload=workload,
        strategy=strategy,
        n=n,
        epochs=epochs,
        seed=seed,
        rate=rate,
    )
    record.update(elapsed_s=elapsed_s, summary=summary)
    return emit(record)


def measure(name: str, graph: nx.Graph, seed: int = 0, **kwargs) -> Dict[str, float]:
    """Run an algorithm and flatten the interesting numbers into one dict.

    Keys: ``rounds``, ``max_energy``, ``average_energy``, ``mis_size``,
    ``collisions``, ``independent``, ``maximal`` (booleans as 0/1 so trials
    aggregate). Keyword arguments (including ``channel=``) are forwarded to
    the algorithm as in :func:`run_algorithm`.

    With an ambient telemetry sink (:func:`repro.obs.set_telemetry_path` /
    CLI ``--telemetry``), each call also appends one JSONL record — the
    full :meth:`~repro.congest.metrics.RunMetrics.to_dict` plus the
    verification verdict and wall time — as the run completes.
    ``telemetry_extra`` (a dict, e.g. ``{"family": ...}``) adds caller
    context to that record only; the returned key set never changes.
    """
    extra = kwargs.pop("telemetry_extra", None)
    started = perf_counter()
    result = run_algorithm(name, graph, seed=seed, **kwargs)
    elapsed = perf_counter() - started
    report = verify_mis(graph, result.mis)
    emit_static_record(
        name, graph, seed, kwargs.get("channel"),
        kwargs.get("engine", "auto"), result, report, elapsed, extra=extra,
    )
    return {
        "rounds": float(result.rounds),
        "max_energy": float(result.max_energy),
        "average_energy": float(result.average_energy),
        "mis_size": float(len(result.mis)),
        "collisions": float(result.metrics.collisions),
        "independent": 1.0 if report.independent else 0.0,
        "maximal": 1.0 if report.maximal else 0.0,
    }


def _measure_task(task: Tuple) -> Dict[str, float]:
    """Worker for :func:`measure_many` and :func:`~repro.harness.sweep
    .sweep`: regenerate the graph, then measure.

    The optional sixth element is a node-fault spec: either a
    :class:`repro.faults.FaultPlan` or a picklable dict of
    :meth:`FaultPlan.random` keyword arguments, instantiated here against
    the regenerated graph's node set so the task tuple stays a plain
    value. The optional seventh is the engine mode (default ``"auto"``).
    """
    algorithm, family, n, seed, *rest = task
    channel = rest[0] if rest else None
    faults = rest[1] if len(rest) > 1 else None
    engine = rest[2] if len(rest) > 2 else "auto"
    graph = make_family(family, n, seed=seed)
    if isinstance(faults, dict):
        from ..faults import FaultPlan

        faults = FaultPlan.random(graph.nodes, **faults)
    return measure(
        algorithm, graph, seed=seed, engine=engine, channel=channel,
        faults=faults, telemetry_extra={"family": family},
    )


def measure_many(
    tasks: Iterable[Tuple],
    *,
    n_jobs: Optional[int] = None,
    checkpoint=None,
    retries: Optional[int] = None,
    task_timeout: Optional[float] = None,
) -> List[Dict[str, float]]:
    """Measure many (algorithm, family, n, seed[, channel[, faults[,
    engine]]]) cells, optionally in parallel.

    Each task tuple fully describes one deterministic simulation, so the
    results are identical (and identically ordered) for any ``n_jobs``.
    The optional fifth element is a channel name from
    :data:`repro.congest.CHANNELS` or a fault-wrapper spec string
    (``"lossy(drop=0.1):congest"``); the optional sixth is a dict of
    :meth:`repro.faults.FaultPlan.random` keyword arguments (``None`` =
    no node faults); the optional seventh is an engine mode from
    :data:`repro.congest.ENGINE_MODES` (default ``"auto"``). Since the
    engine is part of the task, a checkpoint never replays one engine's
    outcome for another. ``checkpoint`` (a
    :class:`repro.harness.checkpoint.SweepCheckpoint`) records each
    finished task and skips already-recorded ones on resume; failed tasks
    then become ``None`` slots instead of raising.
    ``retries``/``task_timeout`` configure per-task resilience (see
    :func:`repro.harness.parallel.parallel_map`).
    """
    from .checkpoint import run_checkpointed

    return run_checkpointed(
        _measure_task, tasks, checkpoint, n_jobs=n_jobs,
        retries=retries, task_timeout=task_timeout,
    )


def run_dynamic_workload(
    workload: str,
    algorithm: str = "algorithm1",
    *,
    strategy: str = "incremental",
    n: int = 200,
    epochs: int = 10,
    seed: int = 0,
    rate: float = 1.0,
    **kwargs,
):
    """Run a named churn workload end-to-end; returns a ``DynamicRunResult``.

    The dynamic analogue of :func:`run_algorithm`: resolves the workload
    from :data:`repro.dynamic.WORKLOADS` and the algorithm from
    :data:`ALGORITHMS`, then maintains the MIS across the whole timeline
    (verifying the invariant after every epoch).
    """
    from ..dynamic import make_workload, run_dynamic  # deferred: import cycle

    graph, timeline = make_workload(
        workload, n=n, epochs=epochs, seed=seed, rate=rate
    )
    return run_dynamic(
        graph, timeline, algorithm, strategy=strategy, seed=seed, **kwargs
    )


def measure_dynamic(
    workload: str,
    algorithm: str = "algorithm1",
    *,
    strategy: str = "incremental",
    n: int = 200,
    epochs: int = 10,
    seed: int = 0,
    rate: float = 1.0,
    **kwargs,
) -> Dict[str, float]:
    """Flatten a dynamic run into one dict (see ``DynamicRunResult.summary``).

    With an ambient telemetry sink, also appends one ``kind="dynamic"``
    JSONL record embedding that summary as the run completes.
    """
    started = perf_counter()
    result = run_dynamic_workload(
        workload,
        algorithm,
        strategy=strategy,
        n=n,
        epochs=epochs,
        seed=seed,
        rate=rate,
        **kwargs,
    )
    elapsed = perf_counter() - started
    summary = result.summary()
    emit_dynamic_record(
        workload, algorithm, strategy, n, epochs, seed, rate, summary,
        elapsed,
    )
    return summary


def _measure_dynamic_task(task: Tuple[Any, ...]) -> Dict[str, float]:
    """Worker for :func:`measure_dynamic_many`.

    Invariant violations are recorded in the summary's ``all_valid`` flag
    rather than raised, so one bad seed cannot kill a whole batch.
    """
    workload, algorithm, strategy, n, epochs, seed, *rest = task
    rate = rest[0] if rest else 1.0
    return measure_dynamic(
        workload, algorithm, strategy=strategy, n=n, epochs=epochs,
        seed=seed, rate=rate, check_invariant=False,
    )


def measure_dynamic_many(
    tasks: Iterable[Tuple],
    *,
    n_jobs: Optional[int] = None,
) -> List[Dict[str, float]]:
    """Measure many (workload, algorithm, strategy, n, epochs, seed[, rate])
    runs.

    The dynamic analogue of :func:`measure_many`: seeds fully determine
    each churn timeline and every repair, so parallel results are
    bit-identical to serial ones, in task order.
    """
    return parallel_map(_measure_dynamic_task, tasks, n_jobs=n_jobs)
