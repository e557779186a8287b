"""Seeded fault injection for the CONGEST-with-sleeping simulator.

The package adds the fault axis the paper's clean synchronous model leaves
out, in three layers:

* **Channel faults** (:mod:`repro.faults.channels`) — composable wrappers
  over any :class:`~repro.congest.channels.Channel`:
  :class:`LossyChannel` (iid drops + burst loss), :class:`CorruptingChannel`
  (payload bit-flips), and :class:`AdversarialJammer` (round/region radio
  jamming, collisions billed to the energy ledger).  All fault randomness
  is seeded independently of algorithm RNG and stateless per round; a
  zero-rate wrapper is bit-identical to the bare channel on every engine
  path, and active wrappers run vectorized as boolean keep-masks over the
  CSR edge arrays.
* **Node faults** (:mod:`repro.faults.plan`) — a seeded
  :class:`FaultPlan` timeline of crash / crash-recover / straggler
  events, injected through the network step loop
  (``Network(faults=plan)``, or ``run_algorithm(faults=plan)`` for every
  network of a run).
* **Self-healing** (:mod:`repro.faults.healing`) — :func:`heal_mis`
  repairs a damaged MIS candidate in place, and :func:`run_self_healing`
  drives crash/recover plans through the dynamic
  :class:`~repro.dynamic.maintainer.MISMaintainer` with per-epoch
  ``verify_mis`` checks and a self-stabilization account.

Spec strings (:mod:`repro.faults.spec`) make every fault configuration
expressible as a plain string — ``lossy(drop=0.1,seed=7):congest``,
``jam(rate=0.2):broadcast`` — accepted anywhere a channel name is
(``--channel``, ``Network(channel=)``, sweep task tuples).
"""

from .channels import (
    CORRUPTED,
    AdversarialJammer,
    CorruptingChannel,
    FaultChannel,
    LossyChannel,
)
from .healing import (
    HealReport,
    HealingEpoch,
    SelfHealingResult,
    heal_mis,
    run_self_healing,
)
from .plan import CRASH, FAULT_KINDS, RECOVER, STRAGGLE, FaultPlan, NodeFault
from .spec import (
    WRAPPERS,
    compose_faulty_spec,
    format_fault_grammar,
    parse_channel_spec,
    parse_fault_flags,
)

__all__ = [
    "AdversarialJammer",
    "CORRUPTED",
    "CRASH",
    "CorruptingChannel",
    "FAULT_KINDS",
    "FaultChannel",
    "FaultPlan",
    "HealReport",
    "HealingEpoch",
    "LossyChannel",
    "NodeFault",
    "RECOVER",
    "STRAGGLE",
    "SelfHealingResult",
    "WRAPPERS",
    "compose_faulty_spec",
    "format_fault_grammar",
    "heal_mis",
    "parse_channel_spec",
    "parse_fault_flags",
    "run_self_healing",
]
