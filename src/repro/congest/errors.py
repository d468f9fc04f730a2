"""Exception hierarchy for the CONGEST simulator.

All simulator-raised errors derive from :class:`CongestError` so callers can
catch model violations separately from ordinary Python errors.
"""

from __future__ import annotations


class CongestError(Exception):
    """Base class for all CONGEST-model violations and simulator failures."""


class NotAnEdgeError(CongestError):
    """A node attempted to send a message to a non-neighbor.

    In the CONGEST model communication happens only along graph edges; a
    send to any other node is a bug in the node program.
    """

    def __init__(self, src: int, dst: int) -> None:
        super().__init__(f"({src}, {dst}) is not an edge of the network")
        self.src = src
        self.dst = dst


class BandwidthExceededError(CongestError):
    """A single message exceeded the O(log n)-bit payload budget.

    The CONGEST model allows B = O(log n) bits per message.  The network
    computes a concrete bit budget (``Network.message_bits``) and the engine
    validates every payload against it.
    """

    def __init__(self, src: int, dst: int, bits: int, limit: int) -> None:
        super().__init__(
            f"message {src}->{dst} is {bits} bits; limit is {limit} bits"
        )
        self.src = src
        self.dst = dst
        self.bits = bits
        self.limit = limit


class ChannelCapacityError(CongestError):
    """More messages were scheduled on a directed edge than one round allows.

    Plain CONGEST permits one message per directed edge per round; the
    randomized meta-round mode of the paper (Section 4.2) permits
    O(log n).  Exceeding the configured capacity means the node program's
    own scheduling is wrong.
    """

    def __init__(self, src: int, dst: int, count: int, capacity: int) -> None:
        super().__init__(
            f"{count} messages scheduled on edge ({src}, {dst}) in one round"
            f" (capacity {capacity})"
        )
        self.src = src
        self.dst = dst
        self.count = count
        self.capacity = capacity


class RoundLimitExceededError(CongestError):
    """An engine phase failed to terminate within its round budget.

    Every phase is run with an explicit ``max_rounds`` safety budget; hitting
    it indicates either a livelocked program or a wrong complexity estimate.
    """

    def __init__(self, phase: str, limit: int) -> None:
        super().__init__(f"phase {phase!r} exceeded {limit} rounds")
        self.phase = phase
        self.limit = limit


class InvalidPartitionError(CongestError):
    """A vertex partition violates the Part-Wise Aggregation preconditions.

    Definition 1.1 requires every part to induce a connected subgraph and the
    parts to cover every vertex exactly once.
    """


class ScheduleValidationError(CongestError):
    """A delivery schedule violated its contract (negative delay or
    non-determinism).

    Schedules must be pure functions of ``(src, dst, pulse, kind)``
    returning non-negative int delays; anything else would corrupt the
    async engine's synchronizer clock (events in the past,
    irreproducible timings).  Raised by
    :func:`repro.congest.schedule.validate_schedule` — called at
    :class:`~repro.congest.AsyncEngine` construction — or by the
    engine when a delay row it draws (any message kind, any edge) holds
    a negative or non-int entry the construction probe missed.
    """

    def __init__(
        self, schedule, src: int, dst: int, pulse: int, kind: int,
        problem: str,
    ) -> None:
        from .schedule import _KIND_NAMES

        name = getattr(schedule, "name", type(schedule).__name__)
        kind_name = _KIND_NAMES.get(kind, str(kind))
        super().__init__(
            f"schedule {name!r}: delay({src}, {dst}, pulse={pulse}, "
            f"kind={kind_name}) {problem}"
        )
        self.schedule = schedule
        self.src = src
        self.dst = dst
        self.pulse = pulse
        self.kind = kind


class ShortcutValidationError(CongestError):
    """A claimed tree-restricted shortcut violates Definition 2.2.

    Raised by the :class:`~repro.core.shortcuts.Shortcut` constructor when
    the tree is not a single spanning tree, the root holds a parent-edge
    entry, a node without a parent edge lists parts, or a part id is
    unknown.
    """
