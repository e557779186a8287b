"""Channel-layer hot-path benchmarks: batched vs per-Message delivery.

The channel refactor's perf claim is that routing a round through flat
per-edge buffers (``CongestChannel``'s one delivery loop) beats the seed
engine's per-``Message`` delivery loop (the ``congest-per-message`` oracle
of ``tests/oracles.py``) on message-heavy workloads — with *bit-identical*
outputs, metrics, and ledgers. This suite times three traffic shapes
(broadcast-count, broadcast-read, unicast gossip) plus the LOCAL and radio
broadcast channels, asserts the speedup floors, and writes a
machine-readable ``BENCH_3.json`` snapshot next to the repository root so
the batched hot path cannot rot unnoticed.

Set ``BENCH_QUICK=1`` for the CI-sized variant (smaller graphs, fewer
rounds, relaxed floors — shared runners have noisy clocks); set
``BENCH_SNAPSHOT=1`` to (re)write the committed snapshot.
"""

import json
import os
import time
from functools import partial
from pathlib import Path

import pytest

from repro import graphs
from repro.baselines import RadioDecayProgram
from repro.congest import Network, NodeProgram

from oracles import channel_spec

QUICK = os.environ.get("BENCH_QUICK", "0") not in ("", "0")
SNAPSHOT_PATH = Path(__file__).resolve().parent.parent / "BENCH_3.json"
# Acceptance floor: the batched path must beat per-Message delivery ≥2x on
# the message-heavy broadcast storm (full profile measures ~2.5-3x). Quick
# mode keeps a safety margin for CI noise.
MIN_STORM_SPEEDUP = 1.4 if QUICK else 2.0
# Unicast and materializing workloads win less (the saving is send-side
# batching and lazy views, not Message elision); they must still never lose.
MIN_HEAVY_SPEEDUP = 1.0 if QUICK else 1.15
TIMING_ATTEMPTS = 3

_RESULTS: dict = {}


@pytest.fixture(scope="session", autouse=True)
def _write_snapshot():
    """Persist timings to BENCH_3.json when BENCH_SNAPSHOT=1 (see BENCH_2)."""
    yield
    if _RESULTS and os.environ.get("BENCH_SNAPSHOT", "0") not in ("", "0"):
        SNAPSHOT_PATH.write_text(
            json.dumps(dict(sorted(_RESULTS.items())), indent=2) + "\n"
        )


class BroadcastStorm(NodeProgram):
    """Every node broadcasts every round; receivers only count.

    The message-heaviest shape the engine sees (Luby-style mark rounds are
    exactly this), and the one lazy inbox views win most on: ``len()``
    never materializes a single ``Message``.
    """

    def __init__(self, rounds: int):
        self.rounds = rounds

    def on_round(self, ctx):
        ctx.broadcast((True, ctx.round % 7))

    def on_receive(self, ctx, messages):
        ctx.output["heard"] = ctx.output.get("heard", 0) + len(messages)
        if ctx.round + 1 >= self.rounds:
            ctx.halt()


class BroadcastRead(BroadcastStorm):
    """Same storm, but receivers iterate every payload (views materialize)."""

    def on_receive(self, ctx, messages):
        total = 0
        for message in messages:
            total += message.payload[1]
        ctx.output["sum"] = ctx.output.get("sum", 0) + total
        if ctx.round + 1 >= self.rounds:
            ctx.halt()


class UnicastGossip(NodeProgram):
    """Distinct per-neighbor payloads: the non-broadcast batched path."""

    def __init__(self, rounds: int):
        self.rounds = rounds

    def on_round(self, ctx):
        for offset, neighbor in enumerate(ctx.neighbors):
            ctx.send(neighbor, (ctx.round + offset) % 5)

    def on_receive(self, ctx, messages):
        ctx.output["n"] = ctx.output.get("n", 0) + len(messages)
        if ctx.round + 1 >= self.rounds:
            ctx.halt()


def _storm_graph():
    n = 64 if QUICK else 128
    return graphs.make_family("gnp_log_degree", n, seed=7)


def _rounds():
    return 120 if QUICK else 300


def _timed_run(make_network):
    best = None
    for _ in range(TIMING_ATTEMPTS):
        network = make_network()
        start = time.perf_counter()
        network.run()
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
            kept = network
    return best, kept


def _compare_channels(name, program_cls, output_key, floor):
    """Time batched vs per-Message congest; assert identity + speedup."""
    graph = _storm_graph()
    rounds = _rounds()

    def make(channel):
        return lambda: Network(
            graph,
            partial(program_cls, rounds),
            seed=1,
            channel=channel,
        )

    batched_s, batched_net = _timed_run(make("congest"))
    per_msg_s, per_msg_net = _timed_run(
        make(channel_spec("congest-per-message"))
    )
    assert batched_net.metrics() == per_msg_net.metrics()
    assert batched_net.outputs(output_key) == per_msg_net.outputs(output_key)
    assert batched_net.ledger.snapshot() == per_msg_net.ledger.snapshot()
    _RESULTS[f"{name}_batched"] = batched_s
    _RESULTS[f"{name}_per_message"] = per_msg_s
    _RESULTS[f"{name}_speedup"] = per_msg_s / batched_s
    _RESULTS[f"{name}_msgs_per_sec_batched"] = (
        batched_net.messages_sent / batched_s
    )
    assert per_msg_s / batched_s >= floor, (
        f"{name}: batched delivery only {per_msg_s / batched_s:.2f}x over "
        f"per-Message (batched {batched_s * 1000:.1f}ms vs "
        f"{per_msg_s * 1000:.1f}ms)"
    )
    return batched_s, per_msg_s


def test_broadcast_storm_batched_speedup():
    """The headline: ≥2x round-loop speedup on the message-heavy storm."""
    _compare_channels(
        "channels_broadcast_storm", BroadcastStorm, "heard",
        MIN_STORM_SPEEDUP,
    )


def test_broadcast_read_batched_not_slower():
    """Materializing receivers still win (send-side batching pays alone)."""
    _compare_channels(
        "channels_broadcast_read", BroadcastRead, "sum", MIN_HEAVY_SPEEDUP
    )


def test_unicast_gossip_batched_not_slower():
    """Per-neighbor payloads exercise the slot-dict path; must never lose."""
    _compare_channels(
        "channels_unicast_gossip", UnicastGossip, "n", MIN_HEAVY_SPEEDUP
    )


def test_local_channel_cheaper_than_congest():
    """LOCAL prices every payload at 0 bits: the same delivery loop as
    CONGEST, with no message-size accounting. Both channels run one loop,
    so the check is on the accounting, not on a timing ratio; the
    timings are snapshotted."""
    graph = _storm_graph()
    rounds = _rounds()

    def make(channel):
        return lambda: Network(
            graph,
            partial(BroadcastStorm, rounds),
            seed=1,
            channel=channel,
        )

    local_s, local_net = _timed_run(make("local"))
    congest_s, congest_net = _timed_run(make("congest"))
    assert local_net.outputs("heard") == congest_net.outputs("heard")
    assert local_net.messages_sent == congest_net.messages_sent
    assert local_net.messages_delivered == congest_net.messages_delivered
    assert local_net.total_message_bits == 0
    assert congest_net.total_message_bits > 0
    _RESULTS["channels_local_storm"] = local_s
    _RESULTS["channels_local_vs_congest"] = congest_s / local_s


def test_radio_broadcast_scenario_snapshot():
    """Radio MIS end-to-end on the broadcast channel: snapshot the cost.

    No floor — there is no per-Message reference for a shared medium; the
    snapshot tracks regressions and proves collisions are billed.
    """
    n = 96 if QUICK else 192
    graph = graphs.make_family("gnp_log_degree", n, seed=9)

    def make():
        return Network(graph, RadioDecayProgram, seed=2, channel="broadcast")

    elapsed, network = _timed_run(make)
    assert network.collisions > 0
    # Collision billing reaches the ledger: total energy strictly exceeds
    # the sum of awake rounds implied by the trace-free counters.
    _RESULTS["channels_radio_mis_seconds"] = elapsed
    _RESULTS["channels_radio_mis_collisions"] = float(network.collisions)
    _RESULTS["channels_radio_mis_rounds"] = float(network.round_index + 1)
