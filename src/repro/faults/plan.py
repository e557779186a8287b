"""Seeded node-fault timelines: crash, crash-recover, and straggler faults.

A :class:`FaultPlan` is an immutable, picklable timeline of
:class:`NodeFault` events keyed by round (for in-run injection through the
network step loop) or by epoch (for the self-healing driver in
:mod:`repro.faults.healing`).  Plans are either hand-built or drawn by
:meth:`FaultPlan.random` from a seeded RNG that is independent of the
algorithm's randomness.

In-run semantics (``Network(faults=plan)``, or ``run_algorithm(faults=plan)``,
which hands the plan to every network of the run through its
:class:`~repro.congest.network.RunOptions`):

* ``crash`` — the node halts at the start of the given round: it never
  wakes again, sends nothing, and charges no further energy.  This is the
  fail-stop model; recovery *within* a run is not meaningful (a crashed
  node's program state is gone), so ``recover`` events are rejected by the
  injector and handled by the healing driver instead, which resets state
  and rejoins the node through the dynamic maintainer.
* ``straggle`` — the node is forcibly asleep for ``duration`` rounds: it
  is removed from the awake set (no sending, no receiving, no energy
  charges — consistent with the sleeping model, where messages to a
  sleeping node are dropped by the *channel*), and scheduled-wake nodes
  have their missed wakes deferred to the end of the stall.

The vectorized engine declines to engage while an injector is active
(dense whole-network rounds assume the awake set is exactly the alive
set); forced ``engine="vectorized"`` raises instead of silently ignoring
the plan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["CRASH", "RECOVER", "STRAGGLE", "FAULT_KINDS", "FaultPlan", "NodeFault"]

CRASH = "crash"
RECOVER = "recover"
STRAGGLE = "straggle"
FAULT_KINDS = (CRASH, RECOVER, STRAGGLE)


@dataclass(frozen=True)
class NodeFault:
    """One fault event: ``kind`` strikes ``node`` at ``time``.

    ``time`` is a round index for in-run injection and an epoch index for
    the healing driver.  ``duration`` is only meaningful for stragglers
    (how many rounds the node stalls).
    """

    time: int
    kind: str
    node: Any
    duration: int = 0

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if self.time < 0:
            raise ValueError(f"fault time must be non-negative, got {self.time}")
        if self.duration < 0:
            raise ValueError(
                f"fault duration must be non-negative, got {self.duration}"
            )
        if self.kind == STRAGGLE and self.duration == 0:
            object.__setattr__(self, "duration", 1)


@dataclass(frozen=True)
class FaultPlan:
    """An immutable timeline of :class:`NodeFault` events."""

    events: Tuple[NodeFault, ...] = ()
    seed: int = 0

    def __init__(self, events: Iterable[NodeFault] = (), seed: int = 0):
        events = tuple(events)
        for event in events:
            if not isinstance(event, NodeFault):
                raise TypeError(f"FaultPlan events must be NodeFault, got {event!r}")
        object.__setattr__(self, "events", events)
        object.__setattr__(self, "seed", int(seed))

    # ------------------------------------------------------------------
    @property
    def empty(self) -> bool:
        return not self.events

    @property
    def max_time(self) -> int:
        return max((event.time for event in self.events), default=-1)

    def kinds(self) -> frozenset:
        return frozenset(event.kind for event in self.events)

    def by_time(self) -> Dict[int, List[NodeFault]]:
        """Events grouped by time, preserving in-plan order within a time."""
        grouped: Dict[int, List[NodeFault]] = {}
        for event in self.events:
            grouped.setdefault(event.time, []).append(event)
        return grouped

    def nodes(self) -> frozenset:
        return frozenset(event.node for event in self.events)

    # ------------------------------------------------------------------
    @classmethod
    def random(
        cls,
        nodes: Sequence,
        *,
        seed: int = 0,
        horizon: int = 32,
        crash: float = 0.0,
        straggle: float = 0.0,
        recover_after: Optional[int] = None,
        straggle_duration: int = 8,
    ) -> "FaultPlan":
        """Draw a random plan over ``nodes`` with per-node fault rates.

        Each node independently crashes with probability ``crash`` (at a
        uniform time in ``[0, horizon)``; recovering ``recover_after``
        epochs later when set) and straggles with probability
        ``straggle`` for ``straggle_duration`` rounds.  Deterministic in
        ``(sorted(nodes), seed)`` and independent of algorithm RNG.
        """
        for name, rate in (("crash", crash), ("straggle", straggle)):
            if not 0.0 <= float(rate) <= 1.0:
                raise ValueError(
                    f"{name} rate must be a probability in [0, 1], got {rate!r}"
                )
        if horizon < 1:
            raise ValueError(f"horizon must be positive, got {horizon}")
        if recover_after is not None and recover_after < 1:
            raise ValueError(
                f"recover_after must be positive, got {recover_after}"
            )
        rng = np.random.default_rng(np.random.SeedSequence([int(seed)]))
        events: List[NodeFault] = []
        for node in sorted(nodes):
            if crash and rng.random() < crash:
                time = int(rng.integers(horizon))
                events.append(NodeFault(time, CRASH, node))
                if recover_after is not None:
                    events.append(NodeFault(time + recover_after, RECOVER, node))
            if straggle and rng.random() < straggle:
                time = int(rng.integers(horizon))
                events.append(
                    NodeFault(time, STRAGGLE, node, duration=straggle_duration)
                )
        events.sort(key=lambda event: event.time)
        return cls(events, seed=int(seed))

    # ------------------------------------------------------------------
    def bind(self, network) -> Optional["_NetworkFaultInjector"]:
        """Build the in-run injector for ``network`` (``None`` if empty)."""
        if self.empty:
            return None
        return _NetworkFaultInjector(self, network)


class _NetworkFaultInjector:
    """Applies a :class:`FaultPlan` inside ``Network.step``.

    The network calls :meth:`begin_round` right after advancing the round
    counter (crashes halt their node before awake-set assembly) and
    :meth:`filter_awake` on the assembled awake view (stragglers are
    removed without mutating the engine's cached always-on structures).
    """

    def __init__(self, plan: FaultPlan, network):
        known = set(network.graph.nodes)
        by_time: Dict[int, List[NodeFault]] = {}
        for event in plan.events:
            if event.kind == RECOVER:
                raise ValueError(
                    "recover faults cannot be injected into a single run "
                    "(a crashed node's program state is gone); use "
                    "repro.faults.healing.run_self_healing, which rejoins "
                    "nodes through the dynamic maintainer"
                )
            # Events naming nodes absent from THIS network are skipped,
            # not rejected: multi-phase algorithms build sub-networks over
            # node subsets with the same run's fault plan, and a
            # crashed node must simply not strike where it does not exist.
            # (run_algorithm validates the plan against the full graph.)
            if event.node in known:
                by_time.setdefault(event.time, []).append(event)
        self._by_round = by_time
        #: node -> first round at which it is awake again (exclusive stall end)
        self._stalled: Dict[Any, int] = {}
        self.crashed: set = set()
        self.straggled: set = set()

    @property
    def pending(self) -> bool:
        return bool(self._by_round) or bool(self._stalled)

    @property
    def next_due_round(self) -> Optional[int]:
        """Round of the earliest event not yet applied (None when none)."""
        return min(self._by_round, default=None)

    def begin_round(self, network, round_index: int) -> None:
        if not self._by_round:
            return
        # Apply every event due by now, not just this exact round. The run
        # loops end each idle fast-forward at :attr:`next_due_round`, so an
        # event lands in its own round even while every node sleeps.
        due = sorted(t for t in self._by_round if t <= round_index)
        events = [event for t in due for event in self._by_round.pop(t)]
        for event in events:
            if event.node in network._halted:
                continue
            if event.kind == CRASH:
                network._halt_many((event.node,))
                self.crashed.add(event.node)
            elif event.kind == STRAGGLE:
                until = round_index + event.duration
                current = self._stalled.get(event.node, 0)
                self._stalled[event.node] = max(until, current)
                self.straggled.add(event.node)

    def filter_awake(self, network, round_index, ordered, awake):
        """Drop stalled nodes from this round's awake view.

        Returns fresh ``(ordered, awake)`` structures; the inputs may be
        the engine's cached always-on view and are never mutated.
        """
        if not self._stalled:
            return ordered, awake
        drop = set()
        for node, until in list(self._stalled.items()):
            if round_index >= until:
                del self._stalled[node]
            elif node in awake:
                drop.add(node)
        if not drop:
            return ordered, awake
        for node in drop:
            if node not in network._always_on and node not in network._halted:
                # Scheduled sleepers lose this wake; defer it to the end of
                # the stall so the node still gets its turn.
                network._schedule_wake(node, self._stalled[node])
        ordered = [node for node in ordered if node not in drop]
        return ordered, awake - drop
