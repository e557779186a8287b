"""Exceptions raised by the CONGEST-with-sleeping simulator."""


class CongestError(Exception):
    """Base class for all simulator errors."""


class MessageTooLargeError(CongestError):
    """A payload exceeded the per-message bit budget ``B`` of the model."""

    def __init__(self, sender, receiver, bits, limit):
        self.sender = sender
        self.receiver = receiver
        self.bits = bits
        self.limit = limit
        super().__init__(
            f"message {sender}->{receiver} needs {bits} bits, "
            f"but the CONGEST budget is B={limit} bits"
        )


class DuplicateMessageError(CongestError):
    """A node tried to send two messages over the same edge in one round.

    The CONGEST model allows one message per neighbor per round.
    """

    def __init__(self, sender, receiver, round_index):
        self.sender = sender
        self.receiver = receiver
        self.round_index = round_index
        super().__init__(
            f"node {sender} sent twice to {receiver} in round {round_index}"
        )


class NotANeighborError(CongestError):
    """A node tried to message a node it has no edge to."""

    def __init__(self, sender, receiver):
        self.sender = sender
        self.receiver = receiver
        super().__init__(f"node {sender} has no edge to {receiver}")


class ChannelError(CongestError):
    """A send violated the semantics of the network's channel model.

    Raised e.g. for point-to-point sends on a shared broadcast (radio)
    medium, or for a second transmission in the same round.
    """


class SchedulingError(CongestError):
    """Invalid wake-schedule manipulation (e.g., waking a node in the past)."""


class SimulationLimitError(CongestError):
    """The simulation exceeded its configured maximum number of rounds."""


class VectorizationError(CongestError):
    """The vectorized engine path was required but cannot engage.

    Raised by ``Network.run(engine="vectorized")`` when no program
    capability / compatible channel is available, so a forced vectorized
    run never *silently* degrades to the cached round loop. Raised on
    every engine mode when a program breaks the kernel contract: its
    ``vector_round`` returns something other than a kernel, or a hook
    added state that a kernel engagement would not carry.
    """
