"""Experiment harness: runner, sweeps, tables, and the experiment registry
(E1–E11 theorem experiments, A1–A3 ablations, C1 channel models, D1 dynamic
churn)."""

from .checkpoint import SweepCheckpoint, run_checkpointed, task_key
from .experiments import DESCRIPTIONS, REGISTRY, run_all, run_experiment
from .parallel import (
    TaskTimeoutError,
    WorkerCrashError,
    default_jobs,
    default_resilience,
    parallel_map,
    resolve_jobs,
    set_default_jobs,
    set_default_resilience,
    use_jobs,
    use_resilience,
)
from .runner import (
    ALGORITHM_TABLE,
    ALGORITHMS,
    RADIO_SAFE_ALGORITHMS,
    VECTOR_CAPABLE_ALGORITHMS,
    emit_dynamic_record,
    emit_static_record,
    measure,
    measure_dynamic,
    measure_dynamic_many,
    measure_many,
    run_algorithm,
    run_dynamic_workload,
)
from .sweep import SweepPoint, series, sweep
from .tables import format_table, section

__all__ = [
    "ALGORITHM_TABLE",
    "ALGORITHMS",
    "DESCRIPTIONS",
    "RADIO_SAFE_ALGORITHMS",
    "VECTOR_CAPABLE_ALGORITHMS",
    "REGISTRY",
    "SweepCheckpoint",
    "SweepPoint",
    "TaskTimeoutError",
    "WorkerCrashError",
    "default_jobs",
    "default_resilience",
    "emit_dynamic_record",
    "emit_static_record",
    "format_table",
    "measure",
    "measure_dynamic",
    "measure_dynamic_many",
    "measure_many",
    "parallel_map",
    "resolve_jobs",
    "run_algorithm",
    "run_dynamic_workload",
    "run_all",
    "run_checkpointed",
    "run_experiment",
    "section",
    "series",
    "set_default_jobs",
    "set_default_resilience",
    "sweep",
    "task_key",
    "use_jobs",
    "use_resilience",
]
