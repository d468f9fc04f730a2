"""Runtime sessions: cross-phase reuse of the Part-Wise Aggregation pipeline.

The paper's applications are *loops* of PA solves; this package gives
them a long-lived acquisition point.  :class:`PASession` owns a network,
mode/seed and (opt-in) a setup cache with incremental coarsening plus
batched multi-aggregate solves.
All seven algorithm entry points route their PA through a session; with
the opt-ins off the session is a transparent facade over
:class:`~repro.core.pa.PASolver` — bit-for-bit, pinned by tests.

:class:`RecoveryDriver` (:mod:`repro.runtime.recovery`) adds the
fault-tolerance layer: heartbeat failure detection, Algorithm 9 leader
re-election and recompute-until-clean on a fault-injecting
:class:`~repro.congest.AsyncEngine`, with the whole recovery tax on its
own ``recovery_overhead`` ledger.

See docs/architecture.md, "Runtime sessions" and "Fault model".
"""

from .session import (
    EdgeUpdateReport,
    PASession,
    SessionStats,
    ensure_session,
    partition_fingerprint,
)
from .recovery import (
    HeartbeatConfig,
    RecoveryDriver,
    RecoveryExhaustedError,
    RecoveryStats,
)

__all__ = [
    "EdgeUpdateReport",
    "HeartbeatConfig",
    "PASession",
    "RecoveryDriver",
    "RecoveryExhaustedError",
    "RecoveryStats",
    "SessionStats",
    "ensure_session",
    "partition_fingerprint",
]
