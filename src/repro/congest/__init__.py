"""CONGEST-with-sleeping simulator: the model substrate of the paper.

Public surface:

* :class:`Network` — synchronous message-passing engine with sleeping.
* :class:`Channel` and friends — the pluggable delivery layer
  (:class:`CongestChannel`, :class:`LocalChannel`, :class:`BroadcastChannel`,
  the :data:`CHANNELS` registry).
* :class:`RunOptions` / :data:`DEFAULT_OPTIONS` — the engine, channel,
  node faults and instrument of one algorithm run.
* :class:`NodeProgram` / :class:`Context` — the node-program API.
* :class:`EnergyLedger` / :class:`RunMetrics` — time/energy accounting.
* :class:`Message`, :func:`payload_bits`, :func:`default_bit_budget` —
  message-size accounting for the ``B = O(log n)``-bit budget.
"""

from .channels import (
    CHANNELS,
    COLLISION,
    COLLISION_MESSAGE,
    BroadcastChannel,
    Channel,
    CongestChannel,
    LocalChannel,
    make_channel,
)
from .errors import (
    ChannelError,
    CongestError,
    DuplicateMessageError,
    MessageTooLargeError,
    NotANeighborError,
    SchedulingError,
    SimulationLimitError,
    VectorizationError,
)
from .message import Message, default_bit_budget, payload_bits, payload_bits_cached
from .metrics import EnergyLedger, RunMetrics
from .network import (
    DEFAULT_OPTIONS,
    ENGINE_MODES,
    Network,
    RunOptions,
)
from .program import Context, NodeProgram
from .state import StateField
from .trace import NetworkTrace, RoundRecord
from .vectorized import (
    GraphArrays,
    VectorRound,
    graph_arrays,
    invalidate_graph_arrays,
    reset_vector_stats,
    vector_stats,
)

__all__ = [
    "BroadcastChannel",
    "CHANNELS",
    "DEFAULT_OPTIONS",
    "ENGINE_MODES",
    "GraphArrays",
    "VectorRound",
    "VectorizationError",
    "StateField",
    "graph_arrays",
    "invalidate_graph_arrays",
    "reset_vector_stats",
    "vector_stats",
    "COLLISION",
    "COLLISION_MESSAGE",
    "Channel",
    "ChannelError",
    "CongestChannel",
    "CongestError",
    "Context",
    "DuplicateMessageError",
    "EnergyLedger",
    "LocalChannel",
    "Message",
    "MessageTooLargeError",
    "Network",
    "NetworkTrace",
    "NodeProgram",
    "NotANeighborError",
    "RoundRecord",
    "RunOptions",
    "RunMetrics",
    "SchedulingError",
    "SimulationLimitError",
    "default_bit_budget",
    "make_channel",
    "payload_bits",
    "payload_bits_cached",
]
