"""Asynchronous execution: the alpha-synchronizer as a function of the
synchronous pulse record.

An alpha-synchronizer hands every node, at pulse ``t``, exactly the inbox
of synchronous round ``t``, so a program under it runs the synchronous
execution: :class:`AsyncEngine` is an :class:`~repro.congest.engine.Engine`
(array kernels, with or without a fault plan), and :class:`_Alpha`
replays the synchronizer's clock under a
:class:`~repro.congest.schedule.Schedule` over each tick's record (the
directed edges that carried payload, the wakes and timers set, who
activated).  docs/architecture.md, "Asynchronous execution", states the
recurrence and its one deviation.  The main ledger is the synchronous
one; the synchronizer's cost goes to :attr:`AsyncEngine.overhead` and one
:class:`AsyncPhaseOverhead` per phase.  Under a
:class:`~repro.congest.faults.FaultPlan` (global pulses; an empty plan is
no plan) :meth:`_Alpha.tick` says what the plan drops, both run loops
apply it, and each phase's :class:`~repro.congest.faults.FaultReport`
lands on ``fault_log``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import List, Optional

import numpy as np

from ..obs.tracer import current_tracer
from .engine import Engine, Program
from .faults import FaultPlan, FaultReport
from .ledger import CostLedger, PhaseStats
from .network import Network
from .schedule import ACK, PAYLOAD, SAFE, Schedule, SynchronousSchedule
from .schedule import delay_row, draw_delay, validate_schedule

#: The entry time of a pulse a node never reaches.
_NEVER = 1 << 62
_EMPTY = np.empty(0, dtype=np.int64)


@dataclass(frozen=True)
class AsyncPhaseOverhead:
    """What one phase's asynchronous execution cost beyond the cost model:
    the virtual-clock makespan (a hop costs one unit plus its delay), one
    ack per delivered payload, one safe per edge direction per pulse, and
    the largest gap in pulses between the most and least advanced nodes.
    """

    name: str
    pulses: int
    time_units: int
    payload_messages: int
    ack_messages: int
    safe_messages: int
    max_skew: int

    @property
    def control_messages(self) -> int:
        return self.ack_messages + self.safe_messages


class AsyncEngine(Engine):
    """An :class:`Engine` whose every phase also pays an alpha-synchronizer
    (to :attr:`overhead` and :attr:`overhead_log`) and, under a fault
    plan, loses what the plan drops (reported on :attr:`fault_log`)."""

    def __init__(self, network: Network, schedule: Optional[Schedule] = None,
                 strict_bits: bool = True, strict_edges: bool = True,
                 faults: Optional[FaultPlan] = None) -> None:
        super().__init__(network, strict_bits, strict_edges)
        self.schedule = schedule or SynchronousSchedule()
        validate_schedule(self.schedule, network)
        self.faults = faults if faults and not faults.empty else None
        self._views = views = network.array_views
        #: Reverse slots; slot endpoints as tuples ``Schedule.delays`` keys on.
        self._rev = np.searchsorted(
            views.edge_keys, views.adj * network.n + views.src_of_slot)
        self._edges = (tuple(views.src_of_slot.tolist()),
                       tuple(views.adj.tolist()))
        #: Pulse t of the next phase is the fault plan's ``global_pulse + t``.
        self.global_pulse = 0
        self.overhead = CostLedger(stream="async_overhead")
        self.overhead_log: List[AsyncPhaseOverhead] = []
        self.fault_log: List[FaultReport] = []

    @property
    def flags(self):
        """``Engine.flags`` and the schedule (not the run's fault clock)."""
        return {**super().flags, "schedule": self.schedule}

    def run(self, program: Program, max_ticks: int, capacity: int = 1,
            rounds_per_tick: int = 1, name: Optional[str] = None):
        """``Engine.run``, appending the phase's overhead (and faults)."""
        phase_name = name or program.name
        tracer = current_tracer()
        tracer = tracer if tracer.enabled else None
        start_us = tracer.now_us() if tracer is not None else 0
        alpha = _Alpha(self, phase_name, tracer)
        try:
            stats = self._execute(program, max_ticks, capacity,
                                  rounds_per_tick, phase_name, None, alpha)
            overhead = alpha.finish()
        finally:
            # A phase that dies mid-run still moves the fault clock, by the
            # tick its synchronous run reached (stats.ticks on success).
            self.global_pulse += alpha.pulse
            if self.faults is not None:
                self.fault_log.append(alpha.report)
        if tracer is not None:
            args = {"impl": "async", **asdict(stats), **asdict(overhead)}
            del args["name"]
            tracer.complete(phase_name, "engine.phase", start_us, args)
        self.overhead.charge(PhaseStats(
            name=phase_name, rounds=overhead.time_units,
            messages=overhead.control_messages, ticks=overhead.pulses))
        self.overhead_log.append(overhead)
        return stats


def _nodes(bucket) -> np.ndarray:
    """A timer bucket's nodes: a set (the scalar wheel) or a list of
    arrays (the array wheel)."""
    if isinstance(bucket, list):
        return np.concatenate(bucket)
    return np.fromiter(bucket, dtype=np.int64, count=len(bucket))


class _Alpha:
    """One phase's synchronizer clock, closed pulse by pulse: ``E`` holds
    each node's entry time into pulse ``pulse`` (``_NEVER``: not reached),
    ``trig`` the earliest time a trigger for each later pulse was set."""

    def __init__(self, engine: AsyncEngine, phase: str, tracer) -> None:
        self.engine, self.n, self.tracer = engine, engine.network.n, tracer
        self.report = FaultReport(phase=phase, base_pulse=engine.global_pulse)
        self.E = np.zeros(self.n, dtype=np.int64)
        self.trig, self.seen, self.fifo = {}, {}, {}
        self.lo, self.hi, self.active = [], [], None
        self.pulse = self.time = self.payloads = self.acks = self.safes = 0

    def tick(self, tick, src, dst, wakes, timers):
        """Take pulse ``tick``'s record: the payload rows ``src -> dst``,
        the wakes and the timer wheel, whose ``tick`` bucket is due.

        Returns ``None`` without a fault plan: every row arrives and every
        wake and timer fires.  Under a plan it applies the drop rule and
        returns ``(keep, wakes, due)``: the kept-row mask and the wakes and
        due timers that survive.  A payload with a dead endpoint, over a
        cut edge or lost is dropped (and counted); so is one to a node
        that has not entered the pulse; a node that is dead or has not
        entered sits out.
        """
        bucket = timers.get(tick)
        due = _EMPTY if bucket is None else _nodes(bucket)
        faults = self.engine.faults
        if faults is None:
            self._advance(tick, src, dst, None, wakes, timers)
            self._activate(dst, wakes, due)
            return None
        report, g = self.report, self.report.base_pulse + tick
        dead = np.zeros(self.n, dtype=bool)
        dead[[e.node for e in faults.crashes
              if not faults.alive(e.node, g)]] = True
        dropped = dead[src] | dead[dst] | np.fromiter(
            (faults.edge_down(s, d, g) or faults.lost(s, d, g)
             for s, d in zip(src.tolist(), dst.tolist())),
            dtype=bool, count=src.size)
        for s, d in zip(src[dropped].tolist(), dst[dropped].tolist()):
            self._fault("payload_dropped", src=s, dst=d, pulse=g)
        self._advance(tick, src, dst, dropped, wakes, timers)
        entered = self.E < _NEVER
        woken, timed = set(wakes.tolist()), set(due.tolist())
        for v in sorted(woken | timed):
            if dead[v] and entered[v]:
                report.suppressed_activations += 1
                report.dropped_wakeups += v in woken
                report.dropped_timers += v in timed
                self._fault("activation_suppressed", node=v, pulse=g)
        keep = ~dropped & entered[dst]
        wakes = wakes[entered[wakes] & ~dead[wakes]]
        due = due[entered[due] & ~dead[due]]
        self._activate(dst[keep], wakes, due)
        return keep, wakes, due

    def _activate(self, *parts) -> None:
        self.active = np.zeros(self.n, dtype=bool)
        for part in parts:
            self.active[part] = True

    def _fault(self, name, **args) -> None:
        if self.tracer is not None:
            self.tracer.instant(name, "fault", args)

    def _trigger(self, target: int, nodes) -> None:
        """A trigger for ``target`` set as the first of ``nodes`` entered."""
        at = int(self.E[nodes].min())
        if at < self.trig.get(target, _NEVER):
            self.trig[target] = at

    def _advance(self, tick, src, dst, dropped, wakes, timers):
        """Record the pulse's wakes and new timers (a bucket grows until its
        tick pops it), then close every pulse before ``tick``."""
        for q, bucket in timers.items():
            if self.seen.get(q) != len(bucket):
                self.seen[q] = len(bucket)
                if q <= self.pulse:
                    raise RuntimeError(
                        f"async engine: a timer for pulse {q} was set at "
                        f"pulse {self.pulse}, which its target has passed")
                self._trigger(q, _nodes(bucket))
        if len(wakes):
            self._trigger(self.pulse + 1, wakes)
        self._close(src, dst, dropped, True)
        while self.pulse < tick:
            self._close(_EMPTY, _EMPTY, None, True)

    def _close(self, src, dst, dropped, more: bool) -> None:
        """Time pulse ``pulse``'s payloads, acks and self-safes; with
        ``more``, its safe wave and everyone's entry into the next pulse."""
        eng, p, E = self.engine, self.pulse, self.E
        ready = E + 2  # an idle node's self-safe: payload + ack slots
        if src.size:
            if p and not self.active[src].all():
                raise RuntimeError(
                    f"async engine: node {int(src[~self.active[src]][0])} "
                    f"sent at pulse {p} without activating (sends on behalf "
                    "of other nodes are only legal in on_start)")
            keys, key = eng._views.edge_keys, src * self.n + dst
            slot = np.searchsorted(keys, key).clip(0, max(keys.size - 1, 0))
            on = keys[slot] == key if keys.size else np.zeros(src.size, bool)
            off, slot = np.flatnonzero(~on).tolist(), slot[on]
            arrival = E[src] + 1
            arrival[on] += self._row(p, PAYLOAD)[slot]
            for i in off:
                arrival[i] += draw_delay(
                    eng.schedule, int(src[i]), int(dst[i]), p, PAYLOAD)
            if eng.schedule.fifo:  # clamp to the edge's last arrival
                for i, k in enumerate(key.tolist()):
                    last = max(int(arrival[i]), self.fifo.get(k, 0))
                    arrival[i] = self.fifo[k] = last
            back = arrival + 1  # the ack, or a dropped payload's timeout
            if slot.size:
                back[on] += self._row(p, ACK)[eng._rev[slot]]
            for i in off:
                back[i] += draw_delay(
                    eng.schedule, int(dst[i]), int(src[i]), p, ACK)
            ready[src] = 0
            np.maximum.at(ready, src, back)
            lost = int(dropped.sum()) if dropped is not None else 0
            self.report.dropped_payloads += lost
            self.report.delivery_timeouts += lost
            self.payloads += src.size
            self.acks += src.size - lost
            if src.size > lost and self.tracer is not None:
                self.tracer.counter(self.report.phase, {
                    "pulse": p + 1, "messages": src.size - lost})
            self._trigger(p + 1, src)
        reached = ready < _NEVER
        self.time = max(self.time, int(ready[reached].max(initial=0)))
        if not more:
            return
        release = self._release(p)
        nxt = np.full(self.n, _NEVER, dtype=np.int64)
        if release < _NEVER and reached.any():
            views, faults = eng._views, eng.faults
            safe = np.maximum(ready, release)[views.src_of_slot] + 1
            safe += self._row(p, SAFE)
            self.safes += int(views.degrees[reached].sum())
            if faults is not None and faults.partitions:
                g = self.report.base_pulse + p + 1
                for s in np.flatnonzero(safe < _NEVER).tolist():
                    u, w = eng._edges[0][s], eng._edges[1][s]
                    if faults.edge_down(u, w, g):
                        safe[s] = _NEVER
                        self.report.dropped_control += 1
                        self._fault("control_dropped", src=u, dst=w, pulse=g)
            self.time = max(self.time, int(safe[safe < _NEVER].max(initial=0)))
            # A node's last incoming safe, over its reverse slots' CSR row.
            gate = np.maximum.reduceat(
                np.append(safe[eng._rev], 0), views.offsets[:-1])
            gate[views.degrees == 0] = 0
            nxt = np.maximum(np.maximum(E, release), gate)
            nxt[nxt >= _NEVER] = _NEVER
        self.lo.append(int(nxt.min()))
        self.hi.append(int(nxt.max()))
        self.E, self.pulse = nxt, p + 1

    def _release(self, p: int) -> int:
        """The earliest time a trigger for a pulse after ``p`` was set:
        no safe(p) leaves, and nobody enters ``p + 1``, before it."""
        self.trig = {q: at for q, at in self.trig.items() if q > p}
        return min(self.trig.values(), default=_NEVER)

    def _row(self, pulse: int, kind: int) -> np.ndarray:
        row = delay_row(self.engine.schedule, *self.engine._edges, pulse, kind)
        return np.array(row, dtype=np.int64)

    def finish(self) -> AsyncPhaseOverhead:
        """Close the last pulse (it sends nothing) and report the phase."""
        self._close(_EMPTY, _EMPTY, None, False)
        # The skew after the entries up to e: pulses whose earliest entry
        # is <= e less those whose latest is; it peaks at an earliest.
        lo, hi = np.array(self.lo, np.int64), np.array(self.hi, np.int64)
        at = lo[lo < _NEVER]
        skew = lo.searchsorted(at, "right") - hi.searchsorted(at, "right")
        return AsyncPhaseOverhead(
            name=self.report.phase, pulses=self.pulse, time_units=self.time,
            payload_messages=self.payloads, ack_messages=self.acks,
            safe_messages=self.safes, max_skew=int(skew.max(initial=0)))
