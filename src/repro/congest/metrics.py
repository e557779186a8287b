"""Energy and round accounting shared by every simulation style.

The paper's two complexity measures (Section 1.1):

* **time complexity** — total number of synchronous rounds;
* **energy complexity** — the maximum over nodes of the number of rounds the
  node is awake. The node-averaged variant (Section 4) is the mean.

All execution styles in this repository (the message-passing engine and the
metered Phase III choreography) charge awake rounds through an
:class:`EnergyLedger`, so results are directly comparable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Optional


class EnergyLedger:
    """Per-node awake-round counter.

    The ledger does not know *why* a node was awake; it only counts rounds.
    Phases stack: running several phases against the same ledger accumulates,
    which matches the paper's additive accounting in Theorems 1.1/1.2.
    """

    def __init__(self, nodes: Iterable[int]):
        self._awake: Dict[int, int] = {node: 0 for node in nodes}
        if not self._awake:
            raise ValueError("EnergyLedger needs at least one node")
        # Whole-ledger aggregates, kept up to date by every charge so the
        # energy measures cost O(1) (every ``Network.run`` reads them).
        self._total = 0
        self._max = 0

    def charge(self, node: int, rounds: int = 1) -> None:
        """Record that ``node`` was awake for ``rounds`` additional rounds."""
        if rounds < 0:
            raise ValueError(f"cannot charge negative rounds ({rounds})")
        value = self._awake[node] + rounds
        self._awake[node] = value
        self._total += rounds
        if value > self._max:
            self._max = value

    def charge_many(self, nodes: Iterable[int], rounds: int = 1) -> None:
        """Charge every node in ``nodes``; the engine's per-round hot call."""
        if rounds < 0:
            raise ValueError(f"cannot charge negative rounds ({rounds})")
        awake = self._awake
        peak = self._max
        charged = 0
        try:
            for node in nodes:
                value = awake[node] + rounds
                awake[node] = value
                charged += 1
                if value > peak:
                    peak = value
        finally:
            self._total += charged * rounds
            self._max = peak

    def ensure_nodes(self, nodes: Iterable[int]) -> None:
        """Start tracking ``nodes`` (at zero awake rounds) if not yet known.

        Dynamic networks add nodes mid-timeline; already-known nodes keep
        their accumulated energy untouched (and new nodes at zero move
        neither aggregate).
        """
        for node in nodes:
            self._awake.setdefault(node, 0)

    def awake_rounds(self, node: int) -> int:
        return self._awake[node]

    @property
    def nodes(self):
        return self._awake.keys()

    def max_energy(self) -> int:
        """Worst-case energy complexity: max awake rounds over all nodes."""
        return self._max

    def total_energy(self) -> int:
        return self._total

    def average_energy(self) -> float:
        """Node-averaged energy complexity (Section 4 of the paper)."""
        return self._total / len(self._awake)

    def snapshot(self) -> Dict[int, int]:
        return dict(self._awake)


@dataclass
class RunMetrics:
    """Summary of one simulated execution."""

    rounds: int
    max_energy: int
    average_energy: float
    total_energy: int
    messages_sent: int = 0
    messages_delivered: int = 0
    messages_dropped: int = 0
    total_message_bits: int = 0
    max_message_bits: int = 0
    collisions: int = 0
    phases: Dict[str, "RunMetrics"] = field(default_factory=dict)

    @classmethod
    def from_snapshots(
        cls,
        rounds: int,
        before: Dict[int, int],
        after: Dict[int, int],
        nodes: Optional[Iterable[int]] = None,
        *,
        messages_sent: int = 0,
        messages_delivered: int = 0,
        messages_dropped: int = 0,
        total_message_bits: int = 0,
        max_message_bits: int = 0,
        collisions: int = 0,
    ) -> "RunMetrics":
        """Metrics of one phase run against a shared ledger.

        ``before``/``after`` are ledger snapshots; the difference is the
        energy this phase charged. ``nodes`` restricts max/average to the
        phase's participants (default: every node in ``after``).
        """
        scope = list(nodes) if nodes is not None else list(after)
        if not scope:
            return cls(rounds=rounds, max_energy=0, average_energy=0.0,
                       total_energy=0,
                       messages_sent=messages_sent,
                       messages_delivered=messages_delivered,
                       messages_dropped=messages_dropped,
                       total_message_bits=total_message_bits,
                       max_message_bits=max_message_bits,
                       collisions=collisions)
        spent = [after[v] - before.get(v, 0) for v in scope]
        total = sum(spent)
        return cls(
            rounds=rounds,
            max_energy=max(spent),
            average_energy=total / len(scope),
            total_energy=total,
            messages_sent=messages_sent,
            messages_delivered=messages_delivered,
            messages_dropped=messages_dropped,
            total_message_bits=total_message_bits,
            max_message_bits=max_message_bits,
            collisions=collisions,
        )

    @classmethod
    def from_ledger(
        cls,
        rounds: int,
        ledger: EnergyLedger,
        *,
        messages_sent: int = 0,
        messages_delivered: int = 0,
        messages_dropped: int = 0,
        total_message_bits: int = 0,
        max_message_bits: int = 0,
        collisions: int = 0,
    ) -> "RunMetrics":
        return cls(
            rounds=rounds,
            max_energy=ledger.max_energy(),
            average_energy=ledger.average_energy(),
            total_energy=ledger.total_energy(),
            messages_sent=messages_sent,
            messages_delivered=messages_delivered,
            messages_dropped=messages_dropped,
            total_message_bits=total_message_bits,
            max_message_bits=max_message_bits,
            collisions=collisions,
        )

    def to_dict(self) -> Dict[str, Any]:
        """Complete, JSON-friendly export; inverse of :meth:`from_dict`.

        Every field round-trips — rounds, max/avg/total energy, the five
        message counters, collisions, and the per-phase breakdown
        (recursively) — so telemetry records and ``repro report`` never
        have to re-derive a number the run already computed.
        """
        data: Dict[str, Any] = {
            "rounds": self.rounds,
            "max_energy": self.max_energy,
            "average_energy": self.average_energy,
            "total_energy": self.total_energy,
            "messages_sent": self.messages_sent,
            "messages_delivered": self.messages_delivered,
            "messages_dropped": self.messages_dropped,
            "total_message_bits": self.total_message_bits,
            "max_message_bits": self.max_message_bits,
            "collisions": self.collisions,
        }
        if self.phases:
            data["phases"] = {
                name: phase.to_dict() for name, phase in self.phases.items()
            }
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunMetrics":
        """Rebuild a :class:`RunMetrics` (with phases) from
        :meth:`to_dict` output; ``RunMetrics.from_dict(m.to_dict()) == m``."""
        return cls(
            rounds=int(data["rounds"]),
            max_energy=int(data["max_energy"]),
            average_energy=float(data["average_energy"]),
            total_energy=int(data["total_energy"]),
            messages_sent=int(data.get("messages_sent", 0)),
            messages_delivered=int(data.get("messages_delivered", 0)),
            messages_dropped=int(data.get("messages_dropped", 0)),
            total_message_bits=int(data.get("total_message_bits", 0)),
            max_message_bits=int(data.get("max_message_bits", 0)),
            collisions=int(data.get("collisions", 0)),
            phases={
                name: cls.from_dict(phase)
                for name, phase in data.get("phases", {}).items()
            },
        )

    def add_phase(self, name: str, metrics: "RunMetrics") -> None:
        if name in self.phases:
            raise ValueError(f"duplicate phase name {name!r}")
        self.phases[name] = metrics

    @classmethod
    def combine_sequential(
        cls, phases: Dict[str, "RunMetrics"], ledger: Optional[EnergyLedger] = None
    ) -> "RunMetrics":
        """Combine phase metrics run back-to-back on the same node set.

        Rounds add up; per-node energy adds up, so the true combined maximum
        must be read off a shared ledger when one is provided. Without a
        ledger we fall back to summing the per-phase maxima, which is an
        upper bound (and is exactly the bound the paper's proofs use).
        """
        total_rounds = sum(metrics.rounds for metrics in phases.values())
        if ledger is not None:
            combined = cls.from_ledger(total_rounds, ledger)
        else:
            combined = cls(
                rounds=total_rounds,
                max_energy=sum(m.max_energy for m in phases.values()),
                average_energy=sum(m.average_energy for m in phases.values()),
                total_energy=sum(m.total_energy for m in phases.values()),
            )
        for name, metrics in phases.items():
            combined.add_phase(name, metrics)
            combined.messages_sent += metrics.messages_sent
            combined.messages_delivered += metrics.messages_delivered
            combined.messages_dropped += metrics.messages_dropped
            combined.total_message_bits += metrics.total_message_bits
            combined.max_message_bits = max(
                combined.max_message_bits, metrics.max_message_bits
            )
            combined.collisions += metrics.collisions
        return combined
