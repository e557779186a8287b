"""Check registry for the ``repro.lint`` analyzer.

``ALL_CHECKS`` is the full, ordered battery; ``get_check`` resolves an
ID or kebab-name (``RL101`` / ``undeclared-state``) to its class.
"""

from __future__ import annotations

from typing import List, Optional, Type

from .base import Check
from .capability import KernelProtocolCheck, VectorFactoryCheck
from .determinism import (
    AmbientRngCheck,
    UnorderedIterationCheck,
    WallClockCheck,
)
from .escape import CtxEscapeCheck, InboxEscapeCheck
from .schema import (
    SentinelDtypeCheck,
    UndeclaredStateCheck,
    WidthReferenceCheck,
)

#: Every registered check, in report order. IDs are stable: retired IDs
#: are never reused, new checks take the next free number in their band.
#: Retired: RL402-RL404, which policed kernel capability flags and a
#: second program-class registry that no longer exist.
ALL_CHECKS: List[Type[Check]] = [
    UndeclaredStateCheck,  # RL101
    WidthReferenceCheck,  # RL102
    SentinelDtypeCheck,  # RL103
    AmbientRngCheck,  # RL201
    WallClockCheck,  # RL202
    UnorderedIterationCheck,  # RL203
    CtxEscapeCheck,  # RL301
    InboxEscapeCheck,  # RL302
    KernelProtocolCheck,  # RL401
    VectorFactoryCheck,  # RL405
]


def get_check(identifier: str) -> Optional[Type[Check]]:
    """Resolve ``"RL101"`` or ``"undeclared-state"`` to a check class."""
    wanted = identifier.strip()
    for check in ALL_CHECKS:
        if wanted.upper() == check.id or wanted.lower() == check.name:
            return check
    return None


__all__ = [
    "ALL_CHECKS",
    "Check",
    "get_check",
]
