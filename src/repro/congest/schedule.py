"""Delivery schedules for the asynchronous engine.

A :class:`Schedule` assigns every message of an asynchronous execution an
*extra* delivery delay in virtual time units, on top of the one-unit hop
latency every edge always charges.  The delay covers payloads and the
ack/safe control traffic of the synchronizer layer alike, so a schedule
can slow an edge for everything that crosses it.

Schedules are *pure functions* of their construction parameters and the
message coordinates ``(src, dst, pulse, kind)``: the same schedule object
(or an equal-seeded copy) always assigns the same delays regardless of
the order the engine asks in.  That purity is what makes every fuzz
failure replayable from a ``(graph_seed, schedule_seed)`` pair alone.

:meth:`Schedule.delay` is the single definition of a schedule.
:meth:`Schedule.delays` is the same function asked for a whole edge list
at once — the async engine (:mod:`repro.congest.async_engine`) draws one
*row* per ``(pulse, kind)`` over the network's directed edges instead of
one hash per message.  The base class derives it from ``delay``, so a
schedule that overrides only ``delay`` keeps working; the built-in
schedules compute the row with numpy (the splitmix rounds of
:func:`_mix` over a ``uint64`` array, where the wrapping multiply *is*
the ``& _MASK``), and ``delays == [delay ...]`` is pinned by a property
test (``tests/congest/test_schedule_rows.py``).

Legitimacy note (see docs/architecture.md, "Asynchronous execution"):
schedules shape *timing*, never the cost model.  The rounds/messages a
phase charges to the main ledger are those of the synchronous execution
the synchronizer simulates; the schedule only moves the virtual clock and
the synchronizer overhead, which are accounted separately.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

#: Message kinds a schedule may distinguish.
PAYLOAD = 0
ACK = 1
SAFE = 2

_KIND_NAMES = {PAYLOAD: "payload", ACK: "ack", SAFE: "safe"}

_MASK = (1 << 64) - 1

#: The splitmix constants, shared by the scalar mixer and its numpy round.
_MIX_INIT = 0x9E3779B97F4A7C15
_MIX_MUL_A = 0xBF58476D1CE4E5B9
_MIX_MUL_B = 0x94D049BB133111EB


def _mix(*parts: int) -> int:
    """Deterministic 64-bit hash of integer coordinates (splitmix-style).

    Python's builtin ``hash`` is salted per process for strings and is
    identity for small ints; this mixer gives well-spread, process-stable
    values so schedule draws are reproducible across runs and machines.
    """
    h = _MIX_INIT
    for p in parts:
        h = (h ^ (p & _MASK)) * _MIX_MUL_A & _MASK
        h = (h ^ (h >> 27)) * _MIX_MUL_B & _MASK
        h ^= h >> 31
    return h


_U64_MUL_A = np.uint64(_MIX_MUL_A)
_U64_MUL_B = np.uint64(_MIX_MUL_B)
_U64_27 = np.uint64(27)
_U64_31 = np.uint64(31)


def _u64(value: int) -> np.uint64:
    """``value & _MASK`` as the numpy scalar the array round mixes in."""
    return np.uint64(value & _MASK)


def _mix_round(h: np.ndarray, part) -> np.ndarray:
    """One :func:`_mix` round over a ``uint64`` array of hash states.

    ``part`` is a ``uint64`` scalar or array.  Array multiplication wraps
    modulo 2**64, which is exactly the scalar round's ``& _MASK``.
    """
    h = (h ^ part) * _U64_MUL_A
    h = (h ^ (h >> _U64_27)) * _U64_MUL_B
    return h ^ (h >> _U64_31)


def _mix_pairs(
    seed: int, firsts: Sequence[int], seconds: Sequence[int]
) -> np.ndarray:
    """``_mix(seed, a, b)`` for every ``(a, b)`` pair, as a ``uint64`` array."""
    a = np.asarray(firsts, dtype=np.int64).astype(np.uint64)
    b = np.asarray(seconds, dtype=np.int64).astype(np.uint64)
    h = np.full(a.shape, _MIX_INIT, dtype=np.uint64)
    return _mix_round(_mix_round(_mix_round(h, _u64(seed)), a), b)


class _EdgeListCache:
    """One value derived from an edge list, kept while the list repeats.

    The engine asks for a row per ``(pulse, kind)`` over the *same* pair
    of slot tuples, so whatever depends only on ``(seed, src, dst)`` is
    computed once.  Only tuples are cached, and they are matched by
    identity while the cache holds them alive: an immutable sequence that
    is the same object is the same edge list, so a second network, a
    second phase layout or a mutated list can never read a stale value.
    """

    __slots__ = ("_srcs", "_dsts", "_value")

    def __init__(self) -> None:
        self._srcs: Optional[tuple] = None
        self._dsts: Optional[tuple] = None
        self._value = None

    def get(self, srcs, dsts, build):
        if srcs is self._srcs and dsts is self._dsts:
            return self._value
        value = build(srcs, dsts)
        if type(srcs) is tuple and type(dsts) is tuple:
            self._srcs, self._dsts, self._value = srcs, dsts, value
        return value


class Schedule:
    """Base class: per-message extra delays in virtual time units.

    ``fifo`` declares whether the schedule promises per-directed-edge
    FIFO delivery for payloads; the engine additionally *enforces* it
    (clamping arrival times to be non-decreasing per edge) whenever the
    flag is set, so a wrapped non-FIFO delay source still yields a legal
    FIFO channel.
    """

    name: str = "schedule"
    #: Whether payload delivery on each directed edge is order-preserving.
    fifo: bool = False

    def delay(self, src: int, dst: int, pulse: int, kind: int) -> int:
        """Extra delay (>= 0 time units) for one message."""
        raise NotImplementedError

    def delays(
        self, srcs: Sequence[int], dsts: Sequence[int], pulse: int, kind: int
    ) -> List[int]:
        """``delay`` for every directed edge ``(srcs[i], dsts[i])`` at once.

        A batch of the same pure function, never a second definition: the
        result must equal ``[self.delay(s, d, pulse, kind) ...]``, which
        is what this default body computes.  Subclasses override it only
        to compute that list faster.  The returned list belongs to the
        caller.
        """
        delay = self.delay
        return [delay(s, d, pulse, kind) for s, d in zip(srcs, dsts)]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"


class SynchronousSchedule(Schedule):
    """Delay 0 everywhere: the asynchronous engine in lockstep.

    Every message takes exactly the one-unit hop latency, so every node's
    synchronizer gate resolves at the same virtual time each pulse and the
    execution order collapses to the synchronous engine's.  Running a
    program through the async engine under this schedule is the parity
    anchor: the main ledger must be bit-for-bit identical to the default
    engine's (pinned by tests and the fuzz harness).
    """

    name = "sync"
    fifo = True

    def delay(self, src: int, dst: int, pulse: int, kind: int) -> int:
        return 0

    def delays(self, srcs, dsts, pulse: int, kind: int) -> List[int]:
        return [0] * len(srcs)


class RandomDelaySchedule(Schedule):
    """Independent per-message delays, uniform on ``[0, max_delay]``.

    The draw is a pure hash of ``(seed, src, dst, pulse, kind)`` — no
    stream state — so delays do not depend on engine traversal order.
    Payloads on one edge may overtake each other (non-FIFO): the engine's
    resequencing layer is what keeps programs correct.
    """

    def __init__(self, seed: int = 0, max_delay: int = 3) -> None:
        if max_delay < 0:
            raise ValueError("max_delay must be >= 0")
        self.seed = seed
        self.max_delay = max_delay
        self.name = f"random(d<={max_delay},seed={seed})"
        self._states = _EdgeListCache()

    def delay(self, src: int, dst: int, pulse: int, kind: int) -> int:
        if self.max_delay == 0:
            return 0
        return _mix(self.seed, src, dst, pulse, kind) % (self.max_delay + 1)

    def delays(self, srcs, dsts, pulse: int, kind: int) -> List[int]:
        if self.max_delay == 0:
            return [0] * len(srcs)
        # The (seed, src, dst) rounds are per edge list; a row is the two
        # remaining rounds.
        h = self._states.get(srcs, dsts, self._edge_states)
        h = _mix_round(_mix_round(h, _u64(pulse)), _u64(kind))
        return (h % np.uint64(self.max_delay + 1)).tolist()

    def _edge_states(self, srcs, dsts) -> np.ndarray:
        return _mix_pairs(self.seed, srcs, dsts)


class SlowEdgeSchedule(Schedule):
    """Adversarial slow edges: a seeded fraction of edges lag everything.

    Each undirected edge is slow with probability ``slow_fraction``
    (decided by a pure hash of the seed and the edge, both directions
    alike); slow edges add ``slow_delay`` units to every message — acks
    and safes included, so the synchronizer's handshake stalls behind the
    same bottlenecks real asynchrony would.  Per-edge delays are constant,
    hence FIFO.
    """

    fifo = True

    def __init__(
        self, seed: int = 0, slow_fraction: float = 0.2, slow_delay: int = 8
    ) -> None:
        if not 0.0 <= slow_fraction <= 1.0:
            raise ValueError("slow_fraction must be in [0, 1]")
        if slow_delay < 0:
            raise ValueError("slow_delay must be >= 0")
        self.seed = seed
        self.slow_fraction = slow_fraction
        self.slow_delay = slow_delay
        self._threshold = int(slow_fraction * (1 << 32))
        self.name = f"slow-edge(f={slow_fraction},d={slow_delay},seed={seed})"
        self._rows = _EdgeListCache()

    def is_slow(self, u: int, v: int) -> bool:
        a, b = (u, v) if u < v else (v, u)
        return (_mix(self.seed, a, b) >> 16) % (1 << 32) < self._threshold

    def delay(self, src: int, dst: int, pulse: int, kind: int) -> int:
        return self.slow_delay if self.is_slow(src, dst) else 0

    def delays(self, srcs, dsts, pulse: int, kind: int) -> List[int]:
        # Constant per edge: one row per edge list serves every
        # (pulse, kind); callers get their own copy.
        return list(self._rows.get(srcs, dsts, self._edge_row))

    def _edge_row(self, srcs, dsts) -> List[int]:
        h = _mix_pairs(self.seed, np.minimum(srcs, dsts), np.maximum(srcs, dsts))
        slow = (h >> np.uint64(16)) % np.uint64(1 << 32) < np.uint64(self._threshold)
        return np.where(slow, self.slow_delay, 0).tolist()


class FIFORandomSchedule(RandomDelaySchedule):
    """Random per-message delays with FIFO channels enforced by the engine.

    Same delay distribution as :class:`RandomDelaySchedule`, but the
    engine clamps each directed edge's payload arrivals to be
    non-decreasing, modelling asynchronous links that reorder *across*
    edges but never within one (the classic message-passing assumption).
    """

    fifo = True

    def __init__(self, seed: int = 0, max_delay: int = 3) -> None:
        super().__init__(seed=seed, max_delay=max_delay)
        self.name = f"fifo-random(d<={max_delay},seed={seed})"


#: Registry for CLI/benchmark spec strings.
SCHEDULE_KINDS = ("sync", "random", "slow-edge", "fifo")


def make_schedule(
    kind: str,
    seed: int = 0,
    max_delay: int = 3,
    slow_fraction: float = 0.2,
    slow_delay: int = 8,
) -> Schedule:
    """Construct a schedule from a kind name (fuzzer/benchmark entry)."""
    if kind == "sync":
        return SynchronousSchedule()
    if kind == "random":
        return RandomDelaySchedule(seed=seed, max_delay=max_delay)
    if kind == "slow-edge":
        return SlowEdgeSchedule(
            seed=seed, slow_fraction=slow_fraction, slow_delay=slow_delay
        )
    if kind == "fifo":
        return FIFORandomSchedule(seed=seed, max_delay=max_delay)
    raise ValueError(
        f"unknown schedule kind {kind!r} (expected one of {SCHEDULE_KINDS})"
    )


def check_delay(
    schedule: Schedule, d, src: int, dst: int, pulse: int, kind: int
) -> None:
    """Raise :class:`~repro.congest.errors.ScheduleValidationError` unless
    ``d`` is a non-negative int (the contract of one ``delay`` value)."""
    from .errors import ScheduleValidationError

    if not isinstance(d, int) or isinstance(d, bool):
        raise ScheduleValidationError(
            schedule, src, dst, pulse, kind,
            f"returned {d!r} ({type(d).__name__}); delays must "
            "be non-negative ints",
        )
    if d < 0:
        raise ScheduleValidationError(
            schedule, src, dst, pulse, kind,
            f"returned negative delay {d}",
        )


def validate_schedule(
    schedule: Schedule,
    network,
    pulses: "tuple[int, ...]" = (0, 1, 7, 64),
) -> None:
    """Probe a schedule for the two contract violations that silently
    corrupt the event queue: negative delays (events in the past) and
    non-determinism (the same message coordinate answering differently
    across calls, which breaks replayability and the FIFO clamp).

    The probe samples real directed edges of ``network`` (its first
    eight, both directions) across a few pulses and all message kinds,
    calling ``delay`` twice per coordinate.
    It cannot prove a schedule correct — the async engine checks every
    delay row it draws (all kinds, every edge) for negative and non-int
    entries, which backstops the coordinates the probe missed — but it
    catches the common bugs at construction, and it is the only check
    for non-determinism.  Raises
    :class:`~repro.congest.errors.ScheduleValidationError`.
    """
    from .errors import ScheduleValidationError

    edges = []
    for u, v in network.edges[:8]:
        edges.append((u, v))
        edges.append((v, u))
    if not edges:
        return
    for src, dst in edges:
        for pulse in pulses:
            for kind in (PAYLOAD, ACK, SAFE):
                d = schedule.delay(src, dst, pulse, kind)
                check_delay(schedule, d, src, dst, pulse, kind)
                again = schedule.delay(src, dst, pulse, kind)
                if again != d:
                    raise ScheduleValidationError(
                        schedule, src, dst, pulse, kind,
                        f"is non-deterministic: returned {d} then {again} "
                        "for the same message coordinate (schedules must be "
                        "pure functions of (src, dst, pulse, kind))",
                    )
