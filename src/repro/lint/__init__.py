"""``repro.lint`` — repo-specific static analysis for the simulator.

An ``ast``-based analyzer whose checks encode this repo's real bug
classes: schema-contract violations (RL1xx), determinism hazards
(RL2xx), per-round object escapes (RL3xx), and vector-kernel protocol
gaps (RL4xx).

Run it as ``python -m repro lint [paths...]``; see
``python -m repro lint --list`` for the check battery and
``python -m repro lint --explain RL101`` for per-check rationale.
Suppress a vetted exception with ``# repro-lint: disable=RL101`` on the
flagged line, or ``# repro-lint: disable-file=RL101`` anywhere in the
file.
"""

from .checks import ALL_CHECKS, Check, get_check
from .engine import (
    SYNTAX_ERROR_ID,
    iter_python_files,
    lint_file,
    lint_paths,
    lint_source,
)
from .findings import Finding, SuppressionIndex, sort_findings
from .model import ModuleModel, build_module_model

__all__ = [
    "ALL_CHECKS",
    "Check",
    "Finding",
    "ModuleModel",
    "SYNTAX_ERROR_ID",
    "SuppressionIndex",
    "build_module_model",
    "get_check",
    "iter_python_files",
    "lint_file",
    "lint_paths",
    "lint_source",
    "sort_findings",
]
