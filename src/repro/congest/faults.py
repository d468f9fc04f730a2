"""Seeded, replayable fault plans for the asynchronous engine.

A :class:`FaultPlan` describes node crashes (with optional recovery),
per-edge message loss and partition-then-heal events, all in *global
pulse* coordinates — the :class:`~repro.congest.async_engine.AsyncEngine`
keeps a running pulse offset across phases, so "node 3 is down for pulses
[20, 60)" means the same thing no matter how the workload splits into
engine phases.

Every predicate is a **pure function** of the plan's construction
parameters and the queried coordinates (``node``/``src``/``dst`` and the
global pulse): no stream state, no draw order.  That is the same purity
contract :mod:`repro.congest.schedule` keeps, and for the same reason —
it makes every faulty run replayable from a ``(graph_seed,
schedule_seed, fault_seed)`` triple alone (the fuzz harness's fault
axis depends on it).

The engine applies a plan as one per-tick drop rule over the tick's
``(src, dst)`` rows, wakes and due timers, which both of its run loops
apply (so a faulty run executes the same array kernels as a fault-free
one), and times what the rule leaves with the synchronizer's
recurrence.  What faults mean in the simulator (see
docs/architecture.md, "Fault model"):

* a **crashed** node stops activating — pending wakeups and timers at its
  dead pulses are dropped, payloads addressed to it are dropped, and
  payloads it had in flight when it crashed are dropped too.  The
  synchronizer keeps walking the dead node's pulse forward (its safe
  waves still flow), modelling neighbors whose failure detectors presume
  it dead rather than blocking on it forever;
* **message loss** drops payloads per ``(src, dst, pulse)`` coordinate
  (all-or-nothing per delivery).  The sender receives a transport-level
  delivery timeout in place of the ack, so the synchronizer never
  deadlocks on a lost message — the loss is *observable* (it taints the
  run) but never hangs it;
* a **partition** takes down every edge crossing the cut: payloads and
  safe waves crossing it are dropped, which stalls the synchronizer on
  both sides until the cut heals or the phase quiesces early.

Crash/loss/partition events never touch the main cost ledger directly;
their observable effect is recorded per phase in a :class:`FaultReport`
(``AsyncEngine.fault_log``), which the recovery runtime
(:mod:`repro.runtime.recovery`) uses to decide whether an attempt was
tainted and must be recomputed.  Byzantine behavior and message
*corruption* are deliberately out of scope — a message either arrives
intact or not at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from .schedule import _mix


@dataclass(frozen=True)
class CrashEvent:
    """Node ``node`` is down for global pulses ``[at, recover_at)``.

    ``recover_at=None`` means the node never recovers.  ``at`` must be
    >= 1: pulse 0 is the ``on_start`` setup frame, which belongs to the
    workload's initialization, not to the simulated network.
    """

    node: int
    at: int
    recover_at: Optional[int] = None

    def __post_init__(self) -> None:
        if self.at < 1:
            raise ValueError("crash pulse must be >= 1 (pulse 0 is on_start)")
        if self.recover_at is not None and self.recover_at <= self.at:
            raise ValueError("recover_at must be > at (or None: no recovery)")


@dataclass(frozen=True)
class MessageLoss:
    """Payloads on any edge are lost with probability ``rate``.

    The decision is a pure hash of ``(seed, src, dst, pulse)`` — each
    directed delivery coordinate is lost or not, identically on every
    replay.  Active for global pulses ``[start, end)`` (``end=None`` =
    forever).  Only payloads are lost; the synchronizer's control
    traffic models the transport layer itself and stays reliable.
    """

    rate: float
    seed: int = 0
    start: int = 1
    end: Optional[int] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError("loss rate must be in [0, 1]")
        if self.start < 1:
            raise ValueError("loss start pulse must be >= 1")
        if self.end is not None and self.end <= self.start:
            raise ValueError("loss end must be > start (or None: forever)")
        object.__setattr__(self, "_threshold", int(self.rate * (1 << 32)))

    def lost(self, src: int, dst: int, pulse: int) -> bool:
        if pulse < self.start or (self.end is not None and pulse >= self.end):
            return False
        draw = (_mix(self.seed, src, dst, pulse, 11) >> 16) % (1 << 32)
        return draw < self._threshold  # type: ignore[attr-defined]


@dataclass(frozen=True)
class PartitionEvent:
    """Every edge crossing ``side`` is down for pulses ``[at, heal_at)``.

    ``side`` is one shore of the cut; ``heal_at=None`` means the
    partition never heals.  While down, the cut drops payloads *and*
    safe waves, so the synchronizer genuinely stalls across it — the
    honest asynchronous consequence of a partition.
    """

    at: int
    heal_at: Optional[int]
    side: FrozenSet[int]

    def __post_init__(self) -> None:
        if self.at < 1:
            raise ValueError("partition pulse must be >= 1")
        if self.heal_at is not None and self.heal_at <= self.at:
            raise ValueError("heal_at must be > at (or None: no healing)")
        if not self.side:
            raise ValueError("partition side must be non-empty")
        object.__setattr__(self, "side", frozenset(self.side))

    def down(self, u: int, v: int, pulse: int) -> bool:
        if pulse < self.at or (self.heal_at is not None and pulse >= self.heal_at):
            return False
        return (u in self.side) != (v in self.side)


@dataclass(frozen=True)
class FaultPlan:
    """A replayable set of fault events, queried in global pulse time.

    The plan is inert data: the async engine queries :meth:`alive`,
    :meth:`lost` and :meth:`edge_down` at well-defined coordinates (a
    delivery at its target pulse, a node at the pulse it would activate,
    a safe wave at the pulse it releases), and equal plans always answer
    identically.  ``FaultPlan()`` (no events)
    is indistinguishable from no plan at all — the engine normalizes it
    away so the no-fault path stays bit-for-bit the fault-free engine.
    """

    crashes: Tuple[CrashEvent, ...] = ()
    losses: Tuple[MessageLoss, ...] = ()
    partitions: Tuple[PartitionEvent, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "crashes", tuple(self.crashes))
        object.__setattr__(self, "losses", tuple(self.losses))
        object.__setattr__(self, "partitions", tuple(self.partitions))
        down: Dict[int, List[Tuple[int, Optional[int]]]] = {}
        for ev in self.crashes:
            down.setdefault(ev.node, []).append((ev.at, ev.recover_at))
        object.__setattr__(
            self,
            "_down",
            {node: tuple(sorted(spans, key=lambda s: s[0]))
             for node, spans in down.items()},
        )

    # -- queries (pure) --------------------------------------------------
    @property
    def empty(self) -> bool:
        return not (self.crashes or self.losses or self.partitions)

    def alive(self, node: int, pulse: int) -> bool:
        spans = self._down.get(node)  # type: ignore[attr-defined]
        if spans is None:
            return True
        for at, recover_at in spans:
            if pulse >= at and (recover_at is None or pulse < recover_at):
                return False
        return True

    def lost(self, src: int, dst: int, pulse: int) -> bool:
        for loss in self.losses:
            if loss.lost(src, dst, pulse):
                return True
        return False

    def edge_down(self, u: int, v: int, pulse: int) -> bool:
        for part in self.partitions:
            if part.down(u, v, pulse):
                return True
        return False

    @property
    def clear_after(self) -> Optional[int]:
        """First global pulse from which the plan injects nothing, ever.

        ``None`` when some event is permanent (no recovery/heal/end).  A
        plan with a finite ``clear_after`` is *recoverable*: the recovery
        driver is guaranteed a fault-free attempt once the global clock
        passes it.
        """
        clear = 1
        for ev in self.crashes:
            if ev.recover_at is None:
                return None
            clear = max(clear, ev.recover_at)
        for loss in self.losses:
            if loss.end is None:
                return None
            clear = max(clear, loss.end)
        for part in self.partitions:
            if part.heal_at is None:
                return None
            clear = max(clear, part.heal_at)
        return clear

    # -- seeded construction (the fuzzer/bench entry) --------------------
    @classmethod
    def seeded(
        cls,
        seed: int,
        n: int,
        crashes: int = 1,
        recover: bool = True,
        crash_window: Tuple[int, int] = (3, 40),
        outage: Tuple[int, int] = (10, 40),
        loss_rate: float = 0.0,
        loss_window: Tuple[int, int] = (1, 60),
        partition: bool = False,
        partition_window: Tuple[int, int] = (5, 35),
    ) -> "FaultPlan":
        """Derive a plan purely from ``(seed, n)`` and the shape knobs.

        Crash victims, crash pulses and outage lengths are all hash
        draws — the same ``(seed, n, knobs)`` always yields the same
        plan, which is what makes the fuzz triple replayable.  With
        ``recover=True`` (and bounded loss/partition windows) the plan
        has a finite :attr:`clear_after`, so recovery always terminates.
        """
        if crashes < 0:
            raise ValueError("crashes must be >= 0")
        crashes = min(crashes, max(0, n - 1))  # never crash every node
        victims = sorted(range(n), key=lambda v: _mix(seed, v, 21))[:crashes]
        lo, hi = crash_window
        out_lo, out_hi = outage
        crash_events = []
        for i, node in enumerate(sorted(victims)):
            at = lo + _mix(seed, i, 22) % max(1, hi - lo + 1)
            recover_at = (
                at + out_lo + _mix(seed, i, 23) % max(1, out_hi - out_lo + 1)
                if recover else None
            )
            crash_events.append(CrashEvent(node=node, at=at, recover_at=recover_at))
        losses = ()
        if loss_rate > 0.0:
            losses = (
                MessageLoss(
                    rate=loss_rate, seed=_mix(seed, 24),
                    start=loss_window[0], end=loss_window[1],
                ),
            )
        partitions = ()
        if partition and n >= 4:
            side = frozenset(
                v for v in range(n) if _mix(seed, v, 25) % 4 == 0
            )
            if side and len(side) < n:
                partitions = (
                    PartitionEvent(
                        at=partition_window[0], heal_at=partition_window[1],
                        side=side,
                    ),
                )
        return cls(
            crashes=tuple(crash_events), losses=losses, partitions=partitions
        )


@dataclass
class FaultReport:
    """What one engine phase's fault injection actually did.

    One record per phase (``AsyncEngine.fault_log``), in run order.  All
    counters are *observations* of the plan acting on this phase's
    traffic — a phase whose report is not :attr:`affected` ran exactly
    as it would have with no plan at all, which is the signal the
    recovery driver uses to certify an attempt clean.
    """

    phase: str
    base_pulse: int = 0
    suppressed_activations: int = 0
    dropped_payloads: int = 0
    dropped_control: int = 0
    dropped_wakeups: int = 0
    dropped_timers: int = 0
    delivery_timeouts: int = 0

    @property
    def affected(self) -> bool:
        return bool(
            self.suppressed_activations
            or self.dropped_payloads
            or self.dropped_control
            or self.dropped_wakeups
            or self.dropped_timers
            or self.delivery_timeouts
        )
