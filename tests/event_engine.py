"""The event-calendar alpha-synchronizer: the reference the transform is held to.

This is the asynchronous engine as it shipped before the synchronizer
became a function of the synchronous pulse record
(:mod:`repro.congest.async_engine`): it re-executes every program one
node at a time through an event calendar, buffers early arrivals per
pulse and resequences each inbox into the synchronous order.  It lives
beside the tests for one change only, as the oracle of
``tests/congest/test_async_transform.py``; nothing under ``src`` imports
it.  Its behaviour is unchanged, so every docstring below still
describes the event engine.

Accounting: the main ledger is the synchronous cost model's; the
synchronizer's own cost goes to ``overhead`` / ``overhead_log``
(:class:`~repro.congest.AsyncPhaseOverhead` records) and, under a
:class:`~repro.congest.FaultPlan`, ``fault_log``.
"""

from __future__ import annotations

from dataclasses import replace
from heapq import heappop, heappush
from typing import Dict, List, Optional, Set, Tuple

from repro.congest import AsyncPhaseOverhead
from repro.congest.engine import Context, Program, context_class
from repro.congest.errors import ChannelCapacityError, RoundLimitExceededError
from repro.congest.faults import FaultPlan, FaultReport
from repro.congest.ledger import CostLedger, PhaseStats
from repro.congest.network import Network
from repro.obs.tracer import current_tracer
from repro.congest.schedule import (
    ACK,
    PAYLOAD,
    SAFE,
    Schedule,
    SynchronousSchedule,
    check_delay,
    validate_schedule,
)

# Event codes (first slot of every event tuple).
_EV_PAYLOAD = 0
_EV_ACK = 1
_EV_SAFE = 2
_EV_SELF_SAFE = 3


class EventEngine:
    """The event-calendar asynchronous engine (the transform's reference).

    Same ``run`` signature and same returned :class:`PhaseStats` (the
    cost model is schedule-invariant); the asynchrony's own costs go to
    :attr:`overhead` (a :class:`CostLedger` whose ``rounds`` column holds
    virtual time-units and whose ``messages`` column holds synchronizer
    control messages) and :attr:`overhead_log` (full per-phase records).

    Parameters mirror the synchronous engine plus ``schedule``.
    """

    #: Programs are stepped one node at a time, out of pulse order: every
    #: phase runs as its scalar twin (see ``treeops._kernel``).
    runs_kernels = False

    def __init__(
        self,
        network: Network,
        schedule: Optional[Schedule] = None,
        strict_bits: bool = True,
        strict_edges: bool = True,
        faults: Optional[FaultPlan] = None,
    ) -> None:
        self._context = context_class(strict_bits, strict_edges)
        self.network = network
        self.schedule = schedule if schedule is not None else SynchronousSchedule()
        validate_schedule(self.schedule, network)
        self.strict_bits = strict_bits
        self.strict_edges = strict_edges
        #: The fault plan, normalized so an *empty* plan is no plan at
        #: all — the no-fault path must be bit-for-bit the fault-free
        #: engine, with zero extra branches taken.
        self.faults = faults if faults is not None and not faults.empty else None
        self._edge_slots = _EdgeSlots(network)
        #: Global pulse offset: phase-local pulse t of the next phase is
        #: global pulse ``global_pulse + t``.  Fault plans are written in
        #: global coordinates so crash windows span phase boundaries.
        self.global_pulse = 0
        #: Synchronizer accounting, separate from every program ledger:
        #: per phase, ``rounds`` = virtual time-units, ``messages`` =
        #: ack + safe control messages.
        self.overhead = CostLedger(stream="async_overhead")
        #: Per-phase :class:`AsyncPhaseOverhead` records, in run order.
        self.overhead_log: List[AsyncPhaseOverhead] = []
        #: Per-phase :class:`FaultReport` records (only when a non-empty
        #: plan is installed), in run order.
        self.fault_log: List[FaultReport] = []
        #: Per phase, beside ``overhead_log``: whether an activation after
        #: ``on_start`` set a trigger for another node (a wake, a timer or
        #: a send from another source), the one thing this engine times
        #: at the setter and the transform at the target.
        self.cross_triggers: List[bool] = []

    @property
    def flags(self) -> Dict[str, object]:
        """Construction flags a rebuilt engine keeps (cf. ``Engine.flags``).

        The fault plan and the pulse clock are not among them: they belong
        to one run's timeline, not to the configuration.
        """
        return {
            "schedule": self.schedule,
            "strict_bits": self.strict_bits,
            "strict_edges": self.strict_edges,
        }

    def run(
        self,
        program: Program,
        max_ticks: int,
        capacity: int = 1,
        rounds_per_tick: int = 1,
        name: Optional[str] = None,
    ) -> PhaseStats:
        """Execute ``program`` to quiescence under the engine's schedule.

        The returned stats are the synchronous cost model's (pinned
        bit-for-bit against :class:`~repro.congest.engine.Engine` by the
        fuzz harness); the phase's asynchronous overhead is appended to
        :attr:`overhead` / :attr:`overhead_log` as a side effect.
        """
        phase_name = name or program.name
        ctx = self._context(self.network)
        run = _AsyncPhase(
            self.network, self.schedule, self._edge_slots, program, ctx,
            max_ticks, capacity,
            phase_name, faults=self.faults, pulse_base=self.global_pulse,
        )
        # Observability: one fetch + one ``enabled`` check per phase; the
        # phase sees ``tracer=None`` on the disabled path and emits
        # nothing (the null path is pinned bit-for-bit by the baseline
        # gate — trace hooks never touch ledgers or event ordering).
        _t = current_tracer()
        tracer = _t if _t.enabled else None
        run.tracer = tracer
        start_us = tracer.now_us() if tracer is not None else 0
        try:
            stats, overhead = run.execute(rounds_per_tick)
        finally:
            # Advance global time even when the phase dies mid-flight (a
            # fault-aborted attempt must not freeze the fault clock, or a
            # crash window could never pass): the horizon reached is the
            # phase's pulse span, and equals stats.ticks on success.
            self.global_pulse += run.last_interesting
            if self.faults is not None:
                self.fault_log.append(run.fault_report)
        if tracer is not None:
            tracer.complete(
                phase_name,
                "engine.phase",
                start_us,
                {
                    "impl": "async",
                    "rounds": stats.rounds,
                    "messages": stats.messages,
                    "ticks": stats.ticks,
                    "bits": stats.bits,
                    "time_units": overhead.time_units,
                    "pulses": overhead.pulses,
                    "payload_messages": overhead.payload_messages,
                    "ack_messages": overhead.ack_messages,
                    "safe_messages": overhead.safe_messages,
                    "max_skew": overhead.max_skew,
                },
            )
        self.overhead.charge(
            PhaseStats(
                name=phase_name,
                rounds=overhead.time_units,
                messages=overhead.control_messages,
                ticks=overhead.pulses,
            )
        )
        self.overhead_log.append(overhead)
        self.cross_triggers.append(run.cross)
        return stats


class _EdgeSlots:
    """The network's directed edges in CSR order, one *slot* each.

    Node ``u``'s out-edges occupy slots ``off[u] : off[u + 1]`` in the
    order of ``net.neighbors[u]``; ``src`` / ``dst`` list every slot's
    endpoints (the edge list handed to ``Schedule.delays``) and
    ``of[(src, dst)]`` finds a slot.  Built once per engine: the tuples'
    identity is what lets a schedule keep its per-edge state across the
    rows of every phase.
    """

    __slots__ = ("off", "src", "dst", "of")

    def __init__(self, net: Network) -> None:
        offsets, adjacency = net.adjacency_csr()
        self.off: List[int] = list(offsets)
        self.dst: Tuple[int, ...] = tuple(adjacency)
        self.src: Tuple[int, ...] = tuple(
            u for u in range(net.n) for _ in range(offsets[u], offsets[u + 1])
        )
        self.of: Dict[Tuple[int, int], int] = {
            edge: slot for slot, edge in enumerate(zip(self.src, self.dst))
        }


class _AsyncPhase:
    """One phase's event-driven execution state (private to the engine)."""

    def __init__(
        self,
        net: Network,
        schedule: Schedule,
        slots: _EdgeSlots,
        program: Program,
        ctx: Context,
        max_ticks: int,
        capacity: int,
        phase_name: str,
        faults: Optional[FaultPlan] = None,
        pulse_base: int = 0,
    ) -> None:
        self.net = net
        self.schedule = schedule
        self.slots = slots
        #: pulse -> the delay rows drawn for it, indexed by message kind
        #: (``None`` until first use).  A row holds one delay per edge
        #: slot; rows behind ``min_pulse`` are dropped.
        self.rows: Dict[int, List[Optional[List[int]]]] = {}
        self.program = program
        self.ctx = ctx
        self.max_ticks = max_ticks
        self.capacity = capacity
        self.phase_name = phase_name
        self.faults = faults
        self.pulse_base = pulse_base
        self.fault_report = FaultReport(phase=phase_name, base_pulse=pulse_base)
        #: Recording tracer or None (set by EventEngine.run; None keeps
        #: every hook below to a single identity check).
        self.tracer = None
        self.cross = False

        n = net.n
        self.neighbors = net.neighbors
        self.deg = [len(net.neighbors[v]) for v in range(n)]
        #: Last pulse each node has entered (0 = the on_start frame).
        self.pulse = [0] * n
        #: Entry time of each node's current pulse (virtual clock).
        self.entered_at = [0] * n
        #: node -> target pulse -> [(sender, emit_seq, payload), ...].
        self.mailbox: List[Dict[int, List[Tuple[int, int, object]]]] = [
            {} for _ in range(n)
        ]
        #: node -> pulses with a pending ``wake`` activation.
        self.wake_pending: List[Set[int]] = [set() for _ in range(n)]
        #: pulse -> nodes with a ``wake_at`` timer (global wheel).
        self.timers: Dict[int, Set[int]] = {}
        #: node -> pulse -> payloads sent in that pulse, not yet acked.
        self.unacked: List[Dict[int, int]] = [{} for _ in range(n)]
        #: node -> pulse -> neighbor safes received for that pulse.
        self.safe_cnt: List[Dict[int, int]] = [{} for _ in range(n)]
        #: Pulses for which each node already emitted (or stalled) its
        #: safe wave.  A node can become safe for pulse t+1 *before*
        #: pulse t (it enters t+1 on its neighbors' safes, not its own,
        #: and an idle t+1 needs no acks while t may still wait on some),
        #: so this is a per-pulse set, not a high-water mark.
        self.safe_emitted: List[Set[int]] = [set() for _ in range(n)]
        #: Last pulse any payload/wakeup/timer targets ("interesting").
        self.last_interesting = 0
        #: Nodes whose gate is open but whose next pulse exceeds
        #: ``last_interesting`` (they re-check when it rises).
        self.li_waiters: Set[int] = set()
        #: pulse -> nodes that became safe while the run looked finished
        #: (their safe wave is released if the horizon later extends).
        self.stalled_safe: Dict[int, List[int]] = {}
        #: FIFO clamp: edge slot (or the ``(src, dst)`` pair of a send
        #: along a non-edge) -> last payload arrival time.
        self.fifo_last: Dict[object, int] = {}

        #: The event queue, as a calendar: timestamp -> its events in
        #: push order, plus a heap of the distinct pending timestamps.
        self.calendar: Dict[int, List[tuple]] = {}
        self.times: List[int] = []
        self.emit_seq = 0
        #: target pulse -> payloads delivered into it (the per-pulse
        #: counter series of a traced phase).
        self.in_flight: Dict[int, int] = {}
        self.payload_msgs = 0
        self.ack_msgs = 0
        self.safe_msgs = 0
        self.clock = 0
        #: Skew tracking: population count per pulse + running min.
        self.pulse_pop: Dict[int, int] = {0: n}
        self.min_pulse = 0
        self.max_pulse = 0
        self.max_skew = 0

        #: Gate-open (pulse, node) entries awaiting execution at the
        #: current timestamp, plus a membership set for dedup.
        self.ready: List[Tuple[int, int]] = []
        self.ready_set: Set[int] = set()

    # -- event helpers --------------------------------------------------
    def _push(self, time: int, event: tuple) -> None:
        """Schedule ``event`` at virtual time ``time``.

        The clock is an integer, so the queue is a calendar: one bucket
        per pending timestamp, appended to in push order, and a heap of
        the distinct timestamps.  Popping the smallest timestamp and
        walking its bucket is exactly ``(time, push order)`` order.

        Guarantee the queue rests on: every push lands strictly after
        the timestamp being processed — each caller adds the one-unit
        hop (or the two-unit idle frame) to ``now``, and every delay a
        row or ``_off_edge_delay`` hands out has been checked to be a
        non-negative int.  So a bucket is never appended to while it is
        walked, and no event is ever scheduled in the past.
        """
        bucket = self.calendar.get(time)
        if bucket is None:
            self.calendar[time] = [event]
            heappush(self.times, time)
        else:
            bucket.append(event)

    # -- delay draws ------------------------------------------------------
    def _row(self, pulse: int, kind: int) -> List[int]:
        """The schedule's delays for ``(pulse, kind)``, one per edge slot.

        Drawn on first use and validated whole: whatever the kind, an
        edge that is actually used cannot carry a negative or non-int
        delay into the queue.
        """
        rows = self.rows.get(pulse)
        if rows is None:
            rows = self.rows[pulse] = [None, None, None]
        row = rows[kind]
        if row is None:
            slots = self.slots
            row = self.schedule.delays(slots.src, slots.dst, pulse, kind)
            if len(row) != len(slots.src):
                raise ValueError(
                    f"schedule {self.schedule.name!r}: delays() returned "
                    f"{len(row)} entries for {len(slots.src)} edges"
                )
            try:
                # Two C-speed passes decide the common case: a sum of
                # ints is an int (one float or numpy entry changes its
                # type), and the minimum bounds every entry.
                ok = not slots.src or (type(sum(row)) is int and min(row) >= 0)
            except TypeError:
                ok = False
            if not ok:
                for d, src, dst in zip(row, slots.src, slots.dst):
                    check_delay(self.schedule, d, src, dst, pulse, kind)
            rows[kind] = row
        return row

    def _off_edge_delay(self, src: int, dst: int, pulse: int, kind: int) -> int:
        """One checked scalar draw, for a send along a non-edge (legal
        only with the audits off), which has no slot in a row."""
        d = self.schedule.delay(src, dst, pulse, kind)
        check_delay(self.schedule, d, src, dst, pulse, kind)
        return d

    def _ack_delay(self, src: int, dst: int, pulse: int) -> int:
        slot = self.slots.of.get((src, dst))
        if slot is None:
            return self._off_edge_delay(src, dst, pulse, ACK)
        return self._row(pulse, ACK)[slot]

    def _raise_horizon(self, target_pulse: int, now: int) -> None:
        """Extend the last interesting pulse; release stalled machinery."""
        if target_pulse <= self.last_interesting:
            return
        self.last_interesting = target_pulse
        if self.stalled_safe:
            for t in sorted(self.stalled_safe):
                if t + 1 > self.last_interesting:
                    continue
                for u in self.stalled_safe.pop(t):
                    self._fan_out_safe(u, t, now)
        if self.li_waiters:
            for v in sorted(self.li_waiters):
                self._try_queue(v)

    # -- the synchronizer protocol --------------------------------------
    def _fan_out_safe(self, u: int, t: int, now: int) -> None:
        off = self.slots.off
        delays = self._row(t, SAFE)[off[u]:off[u + 1]]
        base = now + 1
        faults = self.faults
        # Only a partition can drop a safe: read once per fan-out, so a
        # plan without one pays no call per neighbour.
        cuts = faults is not None and faults.partitions
        for nb, d in zip(self.neighbors[u], delays):
            if cuts and faults.edge_down(u, nb, self.pulse_base + t + 1):
                # The safe wave crossing a partitioned cut is lost; the
                # far side's pulse gate stays shut until the cut heals or
                # the phase quiesces early (both tainting the run).
                self.fault_report.dropped_control += 1
                if self.tracer is not None:
                    self.tracer.instant(
                        "control_dropped",
                        "fault",
                        {"src": u, "dst": nb, "pulse": self.pulse_base + t + 1},
                    )
                continue
            self._push(base + d, (_EV_SAFE, nb, t))
        self.safe_msgs += len(self.neighbors[u])

    def _become_safe(self, u: int, t: int, now: int) -> None:
        if t in self.safe_emitted[u]:
            return
        self.safe_emitted[u].add(t)
        if t + 1 > self.last_interesting:
            # The run looks over beyond pulse t; withhold the safe wave
            # (released by _raise_horizon if more work appears).
            self.stalled_safe.setdefault(t, []).append(u)
            return
        self._fan_out_safe(u, t, now)

    def _try_queue(self, v: int) -> None:
        """Queue v's next pulse entry if its gate is open."""
        if v in self.ready_set:
            return
        t = self.pulse[v] + 1
        if self.deg[v] and self.safe_cnt[v].get(t - 1, 0) < self.deg[v]:
            return
        if t > self.last_interesting:
            self.li_waiters.add(v)
            return
        self.li_waiters.discard(v)
        self.ready_set.add(v)
        self.ready.append((t, v))

    # -- program-side steps ---------------------------------------------
    def _harvest(self, sender_pulse: int, now: int) -> int:
        """Convert one activation's context effects into timed events."""
        ctx = self.ctx
        sent = ctx._sent
        target = sender_pulse + 1
        if sent:
            row = self._row(sender_pulse, PAYLOAD)
            slot_of = self.slots.of
            fifo = self.schedule.fifo
            fifo_last = self.fifo_last
            for dst in ctx._touched:
                box = ctx._mail[dst]
                for src, payload in box:
                    self.emit_seq += 1
                    slot = slot_of.get((src, dst))
                    if slot is None:
                        arrival = now + 1 + self._off_edge_delay(
                            src, dst, sender_pulse, PAYLOAD
                        )
                    else:
                        arrival = now + 1 + row[slot]
                    if fifo:
                        key = (src, dst) if slot is None else slot
                        prev = fifo_last.get(key, 0)
                        if arrival < prev:
                            arrival = prev
                        fifo_last[key] = arrival
                    self._push(
                        arrival,
                        (_EV_PAYLOAD, dst, target, src, self.emit_seq, payload),
                    )
                    bucket = self.unacked[src]
                    if sender_pulse in self.safe_emitted[src]:
                        raise RuntimeError(
                            "async engine: node "
                            f"{src} gained a pulse-{sender_pulse} send after "
                            "being declared safe (sends on behalf of other "
                            "nodes are only legal in on_start)"
                        )
                    bucket[sender_pulse] = bucket.get(sender_pulse, 0) + 1
                box.clear()
            ctx._touched.clear()
            ctx._sent = 0
            self.payload_msgs += sent
            self._raise_horizon(target, now)
        if ctx._wakeups:
            for w in ctx._wakeups:
                if self.pulse[w] > sender_pulse:
                    raise RuntimeError(
                        f"async engine: wake({w}) for pulse {target} arrived "
                        f"after the node already passed it (cross-node wakes "
                        "are only legal in on_start)"
                    )
                self.wake_pending[w].add(target)
            ctx._wakeups.clear()
            self._raise_horizon(target, now)
        if ctx._timers:
            for t, bucket in ctx._timers.items():
                for w in bucket:
                    if self.pulse[w] >= t:
                        raise RuntimeError(
                            f"async engine: wake_at({w}, {t}) arrived after "
                            "the node already passed that pulse"
                        )
                wheel = self.timers.get(t)
                if wheel is None:
                    self.timers[t] = set(bucket)
                else:
                    wheel |= bucket
                self._raise_horizon(t, now)
            ctx._timers.clear()
        return sent

    def _build_inbox(self, v: int, t: int) -> tuple:
        mail = self.mailbox[v].pop(t, None)
        if not mail:
            return ()
        # Canonical resequencing: the synchronous engine delivers each
        # inbox sorted (stably) by sender, which preserves each sender's
        # emission order — exactly (sender, emit_seq) order here, no
        # matter how the schedule reordered arrivals.
        mail.sort(key=_mail_key)
        capacity = self.capacity
        prev = -1
        run = 0
        for sender, _seq, _payload in mail:
            if sender == prev:
                run += 1
                if run > capacity:
                    raise ChannelCapacityError(sender, v, run, capacity)
            else:
                prev = sender
                run = 1
        return tuple((sender, payload) for sender, _seq, payload in mail)

    def _enter(self, v: int, t: int, now: int) -> None:
        """Node v starts pulse t (executing its activation if it has one)."""
        if t > self.max_ticks:
            raise RoundLimitExceededError(self.phase_name, self.max_ticks)
        prev = self.pulse[v]
        self.pulse[v] = t
        self.entered_at[v] = now
        self.safe_cnt[v].pop(prev - 1, None)
        # Skew bookkeeping: move v from pulse ``prev`` to ``t``.  The
        # max observed skew is sampled at virtual-time boundaries (in
        # ``execute``), not here — entries *within* one timestamp are
        # simultaneous, so mid-batch gaps are not real skew.
        pop = self.pulse_pop
        pop[t] = pop.get(t, 0) + 1
        left = pop[prev] - 1
        if left:
            pop[prev] = left
        else:
            del pop[prev]
            if prev == self.min_pulse:
                self.min_pulse = low = min(pop)
                # No node will draw for a pulse every node has left.
                rows = self.rows
                for p in [p for p in rows if p < low]:
                    del rows[p]
        if t > self.max_pulse:
            self.max_pulse = t

        timer_bucket = self.timers.get(t)
        timer_hit = timer_bucket is not None and v in timer_bucket
        if timer_hit:
            timer_bucket.discard(v)
            if not timer_bucket:
                del self.timers[t]
        woken = t in self.wake_pending[v]
        if woken:
            self.wake_pending[v].discard(t)
        inbox = self._build_inbox(v, t)

        sent = 0
        if self.faults is not None and not self.faults.alive(
            v, self.pulse_base + t
        ):
            # A crashed node never activates: wakeups and timers landing
            # on its dead pulses die with it (payloads were already
            # dropped at delivery).  Its pulse still walks forward via
            # the SELF_SAFE below — the simulator's stand-in for
            # neighbors whose failure detectors presume it dead rather
            # than gating on it forever.
            report = self.fault_report
            if inbox or woken or timer_hit:
                report.suppressed_activations += 1
                if self.tracer is not None:
                    self.tracer.instant(
                        "activation_suppressed",
                        "fault",
                        {"node": v, "pulse": self.pulse_base + t},
                    )
            if woken:
                report.dropped_wakeups += 1
            if timer_hit:
                report.dropped_timers += 1
        elif inbox or woken or timer_hit:
            ctx = self.ctx
            ctx.tick = t
            self.program.on_node(ctx, v, inbox)
            self.cross = self.cross or bool(
                ctx._wakeups - {v}
                or any(bucket - {v} for bucket in ctx._timers.values())
                or any(src != v for dst in ctx._touched
                       for src, _payload in ctx._mail[dst])
            )
            sent = self._harvest(t, now)
        if sent == 0:
            # Nothing to wait on, but the pulse frame still spans the
            # payload + ack slots so the virtual clock stays uniform
            # under uniform delays (see module docstring).
            self._push(now + 2, (_EV_SELF_SAFE, v, t))
        self._try_queue(v)

    # -- main loop -------------------------------------------------------
    def execute(
        self, rounds_per_tick: int
    ) -> Tuple[PhaseStats, AsyncPhaseOverhead]:
        ctx = self.ctx
        ctx.tick = 0
        self.program.on_start(ctx)
        self._harvest(0, 0)
        n = self.net.n
        for u in range(n):
            if not self.unacked[u].get(0):
                self._push(2, (_EV_SELF_SAFE, u, 0))
        for u in range(n):
            self._try_queue(u)

        times = self.times
        calendar = self.calendar
        while times or self.ready:
            # Execute every gate-open entry at the current timestamp in
            # deterministic (pulse, node) order before advancing the
            # clock; executing may open further gates at the same
            # timestamp (horizon raises, banked safes), so drain fully.
            if self.ready:
                batch = self.ready
                self.ready = []
                batch.sort()
                for t, v in batch:
                    self.ready_set.discard(v)
                    self._enter(v, t, self.clock)
                continue
            now = heappop(times)
            self.clock = now
            skew = self.max_pulse - self.min_pulse
            if skew > self.max_skew:
                self.max_skew = skew
            for event in calendar.pop(now):
                code = event[0]
                if code == _EV_PAYLOAD:
                    _, dst, tpulse, src, eseq, payload = event
                    faults = self.faults
                    if faults is not None:
                        gp = self.pulse_base + tpulse
                        if (
                            not faults.alive(dst, gp)
                            or not faults.alive(src, gp)
                            or (
                                faults.partitions
                                and faults.edge_down(src, dst, gp)
                            )
                            or faults.lost(src, dst, gp)
                        ):
                            # Dropped delivery — dead receiver, sender
                            # crashed with the message in flight, cut
                            # edge, or seeded loss.  The payload dies,
                            # but the sender gets a transport-level
                            # delivery timeout in the ack's place so the
                            # synchronizer's unacked count always drains
                            # (faults taint runs; they never hang them).
                            self.fault_report.dropped_payloads += 1
                            self.fault_report.delivery_timeouts += 1
                            if self.tracer is not None:
                                self.tracer.instant(
                                    "payload_dropped",
                                    "fault",
                                    {"src": src, "dst": dst, "pulse": gp},
                                )
                            self._push(
                                now + 1 + self._ack_delay(dst, src, tpulse - 1),
                                (_EV_ACK, src, tpulse - 1),
                            )
                            continue
                    self.mailbox[dst].setdefault(tpulse, []).append(
                        (src, eseq, payload)
                    )
                    self.in_flight[tpulse] = self.in_flight.get(tpulse, 0) + 1
                    self.ack_msgs += 1
                    self._push(
                        now + 1 + self._ack_delay(dst, src, tpulse - 1),
                        (_EV_ACK, src, tpulse - 1),
                    )
                elif code == _EV_ACK:
                    _, u, p = event
                    bucket = self.unacked[u]
                    left = bucket[p] - 1
                    if left:
                        bucket[p] = left
                    else:
                        del bucket[p]
                        self._become_safe(u, p, now)
                elif code == _EV_SAFE:
                    _, dst, p = event
                    cnt = self.safe_cnt[dst]
                    cnt[p] = cnt.get(p, 0) + 1
                    if cnt[p] == self.deg[dst] and self.pulse[dst] == p:
                        self._try_queue(dst)
                else:  # _EV_SELF_SAFE
                    _, u, p = event
                    if not self.unacked[u].get(p):
                        self._become_safe(u, p, now)

        ticks = self.last_interesting
        if self.tracer is not None:
            # Per-pulse delivered-payload counters (the async twin of the
            # sync engines' per-tick series; emitted at phase end since
            # pulses interleave across nodes during the run).
            for p in sorted(self.in_flight):
                self.tracer.counter(
                    self.phase_name,
                    {"pulse": p, "messages": self.in_flight[p]},
                )
        stats = PhaseStats(
            name=self.phase_name,
            rounds=ticks * rounds_per_tick,
            messages=self.payload_msgs,
            ticks=ticks,
            bits=ctx._bits,
        )
        overhead = AsyncPhaseOverhead(
            name=self.phase_name,
            pulses=ticks,
            time_units=self.clock,
            payload_messages=self.payload_msgs,
            ack_messages=self.ack_msgs,
            safe_messages=self.safe_msgs,
            max_skew=self.max_skew,
        )
        return stats, overhead


def _mail_key(entry: Tuple[int, int, object]) -> Tuple[int, int]:
    return (entry[0], entry[1])


def first_divergence(workload, net, schedule, faults=None, engine_type=None):
    """Run ``workload(engine)`` on an :class:`EventEngine` and on an
    :class:`~repro.congest.AsyncEngine` over ``net``; return None if both
    runs agree, else what differs first.

    ``schedule`` builds a fresh schedule per engine; ``engine_type`` is
    the asynchronous engine's class (default ``AsyncEngine``, which runs
    the kernels unless it holds a fault plan).  The two runs must
    agree on the workload's outcome (its return value, or the exception
    it died of), on every overhead record and on every fault report.
    The two cases the transform does not reproduce are exempt
    (docs/architecture.md, "Deviations from the paper"): the time units
    and skew of a phase in which a node set a trigger for another node
    after ``on_start`` (the transform times it at its target, this
    engine at its setter), and the last fault report of a run that died
    inside a phase (each engine reports the pulses it had reached).
    """
    from repro.congest import AsyncEngine

    runs = []
    reference = EventEngine(net, schedule(), faults=faults)
    for engine in (
        reference,
        (engine_type or AsyncEngine)(net, schedule(), faults=faults),
    ):
        try:
            outcome = workload(engine)
        except Exception as exc:  # a died run is compared by its error
            outcome = f"{type(exc).__name__}: {exc}"
        reports = list(engine.fault_log)
        if len(reports) == len(engine.overhead_log) + 1:
            reports.pop()
        runs.append((outcome, engine.overhead_log, reports))
    (out_e, log_e, rep_e), (out_a, log_a, rep_a) = runs
    if out_e != out_a:
        return f"outcome: {out_e!r} != {out_a!r}"
    # A trigger one node set for another after on_start happens at its
    # setter's entry here and at its target's in the transform; only the
    # clock (time units, skew) of such a phase may differ.
    log_e = [
        replace(e, time_units=a.time_units, max_skew=a.max_skew)
        if cross and e.name == a.name else e
        for e, a, cross in zip(log_e, log_a, reference.cross_triggers)
    ] + log_e[len(log_a):]
    for what, left, right in (("overhead", log_e, log_a), ("faults", rep_e, rep_a)):
        for k, (a, b) in enumerate(zip(left, right)):
            if a != b:
                return f"{what} record {k}: {a} != {b}"
        if len(left) != len(right):
            return f"{what}: {len(left)} records != {len(right)}"
    return None
