"""Shared result container for the individual phases."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Set

from ..congest.metrics import RunMetrics
from ..congest.vectorized import GraphArrays


@dataclass
class PhaseResult:
    """Output of one phase of a multi-phase MIS algorithm.

    Attributes
    ----------
    joined:
        Nodes this phase added to the independent set.
    dominated:
        Nodes removed because a neighbor joined (in this phase).
    remaining:
        Nodes still undecided after the phase (the next phase's input).
    metrics:
        Time/energy accounting for this phase alone.
    details:
        Phase-specific extras (residual degree, component stats, ...).
    residual:
        The hand-off: the CSR of the phase's input induced on the nodes
        the next phase runs on, with the input's labels — ``remaining``,
        or Lemma 4.2's reduced set (its failed set skips the sparsifier).
        ``None`` for phases whose output feeds no single next graph.
    """

    joined: Set[int]
    dominated: Set[int]
    remaining: Set[int]
    metrics: RunMetrics
    details: Dict[str, Any] = field(default_factory=dict)
    residual: Optional[GraphArrays] = None

    def check_partition(self, nodes: Set[int]) -> None:
        """Sanity: joined/dominated/remaining partition the phase's input."""
        union = self.joined | self.dominated | self.remaining
        if union != set(nodes):
            raise ValueError("phase outputs do not cover the input nodes")
        if self.joined & self.dominated or self.joined & self.remaining:
            raise ValueError("joined overlaps dominated/remaining")
        if self.dominated & self.remaining:
            raise ValueError("dominated overlaps remaining")
