"""The CONGEST-model substrate: network, synchronous engine, cost ledger.

This subpackage is the simulator the whole reproduction runs on.  It knows
nothing about shortcuts or Part-Wise Aggregation; it only provides:

* :class:`Network` — the static topology with KT0 unique ids and weights;
* :class:`Engine` / :class:`Program` — synchronous message-passing
  execution with per-edge capacity and per-message bit budgets enforced;
* :class:`CostLedger` / :class:`PhaseStats` — metered rounds and messages.
"""

from .async_engine import AsyncEngine, AsyncPhaseOverhead
from .engine import (
    Context,
    Engine,
    FastContext,
    FunctionProgram,
    Inbox,
    Program,
)
from .errors import (
    BandwidthExceededError,
    ChannelCapacityError,
    CongestError,
    InvalidPartitionError,
    NotAnEdgeError,
    RoundLimitExceededError,
    ScheduleValidationError,
    ShortcutValidationError,
)
from .faults import (
    CrashEvent,
    FaultPlan,
    FaultReport,
    MessageLoss,
    PartitionEvent,
)
from .ledger import (
    CostLedger,
    PhaseStats,
    RunResult,
)
from .message import (
    ceil_log2,
    int_bits,
    message_bit_limit,
    payload_bits,
)
from .network import Network, canonical_edge
from .schedule import (
    FIFORandomSchedule,
    RandomDelaySchedule,
    Schedule,
    SlowEdgeSchedule,
    SynchronousSchedule,
    make_schedule,
    validate_schedule,
)

__all__ = [
    "AsyncEngine",
    "AsyncPhaseOverhead",
    "BandwidthExceededError",
    "ChannelCapacityError",
    "CongestError",
    "Context",
    "CostLedger",
    "CrashEvent",
    "Engine",
    "FIFORandomSchedule",
    "FastContext",
    "FaultPlan",
    "FaultReport",
    "FunctionProgram",
    "Inbox",
    "InvalidPartitionError",
    "MessageLoss",
    "Network",
    "NotAnEdgeError",
    "PartitionEvent",
    "PhaseStats",
    "Program",
    "RandomDelaySchedule",
    "RoundLimitExceededError",
    "RunResult",
    "Schedule",
    "ScheduleValidationError",
    "ShortcutValidationError",
    "SlowEdgeSchedule",
    "SynchronousSchedule",
    "canonical_edge",
    "ceil_log2",
    "int_bits",
    "make_schedule",
    "message_bit_limit",
    "payload_bits",
    "validate_schedule",
]
