"""Decay-based MIS for radio (broadcast) networks with collision detection.

The sleeping-model literature the paper belongs to is largely about *radio*
networks ([BBDK, "Energy-Efficient Maximal Independent Sets in Radio
Networks"], [DMP, "Distributed MIS in O(log log n) Awake Complexity"]):
one shared medium per neighborhood, a transmission is heard only if it is
the sole transmission there, and a listener with collision detection can
tell noise from silence. Point-to-point algorithms like Luby are *unsound*
on such a channel — two adjacent marked nodes transmit simultaneously,
never hear each other (half-duplex), and both join. This module implements
an MIS algorithm that is correct *because of* collisions, in the style of
Bar-Yehuda-style decay protocols.

Time is cut into epochs of ``T + 1`` slots, where ``T = 2⌈log₂ n⌉ + 4``:

* **slot 0 (candidacy + first duel)** — every still-active node wakes;
  with probability ``2^-(epoch mod L)`` (the decay ladder, ``L = ⌈log₂ n⌉``)
  it becomes a *candidate* for this epoch. Candidates stay awake for the
  whole epoch; spectators go back to sleep until the announce slot.
* **slots 0..T-1 (duel)** — each candidate independently transmits a beacon
  with probability ½ or listens. A listening candidate that hears
  *anything* — a clean beacon or a collision — withdraws: some nearby
  candidate is competing, so joining would risk independence. Two adjacent
  candidates both survive only if they never once split transmit/listen,
  probability ``2^-T`` — w.h.p. never.
* **slot T (announce)** — surviving candidates join the MIS and transmit a
  join beacon with probability 1. Every active node is awake and listening:
  hearing *anything* (one joiner, or several colliding) proves a neighbor
  joined, so the listener retires as dominated. Joiners halt after
  announcing; they sleep in the MIS forever.

Per epoch a spectator is awake 2 slots and a candidate ``T + 1``, so the
awake complexity per epoch is ``O(log n)`` worst-case and ``O(1)`` for
non-candidates — the radio analogue of the paper's sleeping schedules.
Collisions suffered while listening are billed to the energy ledger by the
:class:`~repro.congest.channels.BroadcastChannel`.

The program only ever inspects *whether* it heard something, never payload
contents, so it runs unchanged (and degenerates gracefully: no collisions,
strictly more information) on the CONGEST and LOCAL channels.
"""

from __future__ import annotations

import math
from typing import Optional

import networkx as nx
import numpy as np

from ..congest import (
    DEFAULT_OPTIONS,
    EnergyLedger,
    Network,
    NodeProgram,
    RunOptions,
    StateField,
)
from ..result import MISResult

_ACTIVE = 0
_JOINED = 1
_DOMINATED = 2


class RadioDecayProgram(NodeProgram):
    """Node program for the decay radio MIS (see module docstring)."""

    def __init__(self):
        self.state = _ACTIVE
        self.candidate = False
        self.levels = 1
        self.duel_slots = 1
        self.epoch_len = 2

    @classmethod
    def state_schema(cls):
        # Epoch geometry (levels/duel_slots/epoch_len) is derived from
        # ``ctx.n`` and identical across nodes; only the per-node decision
        # scalars go in columns.
        return (
            StateField("state", np.int8),
            StateField("candidate", np.bool_),
        )

    def on_start(self, ctx):
        self.levels = max(1, math.ceil(math.log2(max(2, ctx.n))))
        self.duel_slots = 2 * self.levels + 4
        self.epoch_len = self.duel_slots + 1
        ctx.output["in_mis"] = False
        ctx.use_wake_schedule([0])

    # ------------------------------------------------------------------
    def on_round(self, ctx):
        slot = ctx.round % self.epoch_len
        if slot == 0:
            self._start_epoch(ctx)
            if self.candidate and ctx.rng.random() < 0.5:
                ctx.broadcast(True)
        elif slot < self.duel_slots:
            if self.candidate and ctx.rng.random() < 0.5:
                ctx.broadcast(True)
        else:  # announce slot
            if self.candidate and self.state == _ACTIVE:
                self.state = _JOINED
                ctx.output["in_mis"] = True
                ctx.output["decided_round"] = ctx.round
                ctx.broadcast(True)

    def _start_epoch(self, ctx):
        epoch = ctx.round // self.epoch_len
        probability = 2.0 ** -(epoch % self.levels)
        self.candidate = bool(ctx.rng.random() < probability)
        base = ctx.round
        if self.candidate:
            # Awake for the rest of the duel, the announce slot, and the
            # start of the next epoch (in case the duel is lost).
            wakes = [base + k for k in range(1, self.duel_slots + 1)]
            wakes.append(base + self.epoch_len)
        else:
            # Spectators sleep through the duels: wake only to listen for
            # join announcements, then for the next epoch's candidacy.
            wakes = [base + self.duel_slots, base + self.epoch_len]
        ctx.use_wake_schedule(wakes)

    # ------------------------------------------------------------------
    def on_receive(self, ctx, messages):
        slot = ctx.round % self.epoch_len
        if self.state == _JOINED:
            if slot >= self.duel_slots:
                ctx.halt()  # announced; in the MIS, asleep forever
            return
        if slot < self.duel_slots:
            # A listening candidate that hears any energy (clean beacon or
            # collision) has a competing candidate nearby: withdraw.
            if self.candidate and messages:
                self.candidate = False
        elif messages:
            # Announce slot: only joiners transmit, so any signal — even a
            # collision of several joiners — proves a neighbor is in the MIS.
            self.state = _DOMINATED
            ctx.output["decided_round"] = ctx.round
            ctx.halt()


def radio_decay_mis(
    graph: nx.Graph,
    seed: int = 0,
    *,
    max_rounds: int = 500_000,
    ledger: Optional[EnergyLedger] = None,
    size_bound: Optional[int] = None,
    options: RunOptions = DEFAULT_OPTIONS,
) -> MISResult:
    """Run the decay radio MIS to completion (w.h.p. independent + maximal).

    Runs on the collision-detecting :class:`BroadcastChannel` unless
    ``options.channel`` names another; ``"congest"``/``"local"`` run the
    same program on reliable point-to-point delivery (useful as an
    ablation of collision cost).
    """
    channel = options.channel
    network = Network(
        graph,
        RadioDecayProgram,
        seed=seed,
        ledger=ledger,
        size_bound=size_bound,
        channel="broadcast" if channel is None else channel,
        instrument=options.instrument,
        faults=options.faults,
    )
    metrics = network.run(max_rounds=max_rounds, engine=options.engine)
    mis = {node for node, flag in network.outputs("in_mis").items() if flag}
    return MISResult(
        mis=mis,
        metrics=metrics,
        algorithm="radio_decay",
        details={
            "channel": network.channel.name,
            "collisions": network.collisions,
            "epoch_slots": network.programs[network._node_order[0]].epoch_len,
        },
    )
