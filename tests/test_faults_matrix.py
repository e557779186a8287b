"""Fault-matrix smoke: every algorithm × fault wrapper × engine path.

The wide-but-shallow companion to the focused fault suites: every
registered algorithm must *run to completion, deterministically* under an
active lossy channel (and, for radio algorithms, under adversarial
jamming) on every engine path that supports it. Fault runs are allowed to
produce degraded MIS quality — that is the point of the F-series
experiments — but they must never hang, crash, or lose determinism.

It is also the check that every dense-round kernel honours the channel's
fault masks (``VectorRound.faults``): kernels declare no capability, so a
kernel that ignored them would run fault-free rounds here.
"""

import numpy as np
import pytest

from repro.congest import Network
from repro.faults.channels import FaultChannel
from repro.graphs import make_family
from repro.harness import ALGORITHMS, run_algorithm
from repro.harness.runner import (
    RADIO_SAFE_ALGORITHMS,
    VECTOR_CAPABLE_ALGORITHMS,
)

from kernel_programs import KERNEL_PROGRAMS, kernel_programs
from oracles import engine_path

N = 24
SEED = 5

LOSSY = "lossy(drop=0.15,seed=3):{base}"
JAM = "jam(rate=0.25,seed=3):broadcast"


def _channels(algorithm):
    if algorithm in RADIO_SAFE_ALGORITHMS:
        return [LOSSY.format(base="broadcast"), JAM]
    return [LOSSY.format(base="congest")]


def _engines(algorithm, channel):
    engines = ["legacy", "fast"]
    if algorithm in VECTOR_CAPABLE_ALGORITHMS and channel.startswith("lossy"):
        engines.append("vectorized")
    return engines


MATRIX = [
    (algorithm, channel, engine)
    for algorithm in sorted(ALGORITHMS)
    for channel in _channels(algorithm)
    for engine in _engines(algorithm, channel)
]


@pytest.mark.parametrize("algorithm,channel,engine", MATRIX)
def test_faulty_run_terminates_deterministically(algorithm, channel, engine):
    graph = make_family("gnp_log_degree", N, seed=SEED)
    with engine_path(engine) as path:
        first = run_algorithm(
            algorithm, graph, seed=SEED, engine=path, channel=channel
        )
        second = run_algorithm(
            algorithm, graph, seed=SEED, engine=path, channel=channel
        )
    assert first.rounds > 0
    assert first.mis == second.mis
    assert first.rounds == second.rounds
    assert first.metrics.to_dict() == second.metrics.to_dict()
    # Faults must actually be active on this path: something was sent,
    # and the wrapper visibly interfered (drops for lossy erasure,
    # ledger-billed collisions for jamming). The strict
    # sent == delivered + dropped invariant is channel-specific (a radio
    # broadcast has per-listener outcomes, and sends to sleeping nodes
    # are sleeping-model drops, not fault drops) — it is locked for the
    # always-awake CONGEST case in test_faults_channels.py.
    assert first.metrics.messages_sent > 0
    if channel.startswith("lossy"):
        assert first.metrics.messages_dropped > 0
    else:
        assert first.metrics.collisions > 0


def _kernel_trace(program, channel):
    graph = make_family("gnp_log_degree", 96, seed=3)
    make = kernel_programs(graph)[program]
    network = Network(graph, make, seed=11, channel=channel, trace=True)
    network.run(engine="vectorized")
    assert network.vector_rounds > 0, program
    return {record.round_index: record for record in network.trace.records}


@pytest.mark.parametrize("program", KERNEL_PROGRAMS)
def test_every_kernel_applies_channel_fault_masks(program):
    """Until the first round that delivers anything on a clean channel, a
    lossy run acts exactly like the clean one (fault draws are independent
    of node draws, and a keep mask can only remove deliveries), so that
    round sends the same messages; a kernel that honours the keep masks
    must then deliver fewer of them."""
    clean = _kernel_trace(program, "congest")
    lossy = _kernel_trace(program, "lossy(drop=0.5,seed=3):congest")
    first = min(r for r, record in clean.items() if record.messages_delivered)
    assert lossy[first].messages_sent == clean[first].messages_sent
    assert lossy[first].messages_delivered < clean[first].messages_delivered


@pytest.mark.parametrize("program", KERNEL_PROGRAMS)
def test_every_kernel_matches_scalar_under_total_loss(program):
    """At drop rate 1 the fault pattern no longer depends on the engine
    (every copy is lost), so a kernel must reproduce the scalar run bit
    for bit; one that skips the keep mask on any delivery hears copies
    the scalar path never received."""
    graph = make_family("gnp_log_degree", 96, seed=3)
    make = kernel_programs(graph)[program]
    runs = {}
    for engine in ("fast", "vectorized"):
        network = Network(
            graph, make, seed=11,
            channel="lossy(drop=1.0,seed=3):congest",
        )
        metrics = network.run(engine=engine)
        outputs = {v: ctx.output for v, ctx in network.contexts.items()}
        runs[engine] = (metrics, network.ledger.snapshot(), outputs)
    assert runs["vectorized"] == runs["fast"]


class _ParityLoss(FaultChannel):
    """Loses every delivery on rounds of one parity and none on the other.

    The pattern does not depend on inbox shapes or edge slots, so the
    scalar and vectorized paths see the same faults.
    """

    kind = "parity-loss"

    def __init__(self, inner=None, *, parity: int):
        self.parity = parity
        super().__init__(inner)

    def deliver(self, ordered, awake):
        inboxes = self.inner.deliver(ordered, awake)
        if self._network.round_index % 2 != self.parity:
            return inboxes
        self._count_fault_drops(sum(len(inbox) for inbox in inboxes.values()))
        return {}

    def _vector_state(self, arrays):
        self._slots = arrays.indices.shape[0]
        return self

    def round_keep(self, round_index):
        if round_index % 2 != self.parity:
            return None
        return np.zeros(self._slots, dtype=bool)


@pytest.mark.parametrize("parity", [0, 1])
@pytest.mark.parametrize("program", KERNEL_PROGRAMS)
def test_every_kernel_drops_every_copy_on_fully_lost_rounds(program, parity):
    """Every wave a kernel sends in a fully lost round must go through
    the keep mask, read or not: the round delivers nothing and counts
    every copy it sent as dropped. With a pattern both engines share, the
    kernel must also reproduce the scalar run bit for bit."""
    graph = make_family("gnp_log_degree", 96, seed=3)
    make = kernel_programs(graph)[program]
    runs = {}
    for engine in ("fast", "vectorized"):
        network = Network(
            graph, make, seed=11,
            channel=_ParityLoss("congest", parity=parity), trace=True,
        )
        metrics = network.run(engine=engine)
        lost = [
            record for record in network.trace.records
            if record.round_index % 2 == parity
        ]
        for record in lost:
            assert record.messages_delivered == 0, (engine, record)
            assert record.messages_dropped == record.messages_sent, \
                (engine, record)
        assert any(record.messages_sent for record in lost), engine
        outputs = {v: ctx.output for v, ctx in network.contexts.items()}
        runs[engine] = (metrics, network.ledger.snapshot(), outputs)
    assert network.vector_rounds > 0
    assert runs["vectorized"] == runs["fast"]
