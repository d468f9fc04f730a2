"""The synchronous CONGEST execution engine.

A *program* (see :class:`Program`) is a state machine over all nodes: the
engine calls ``on_start`` once, then repeatedly delivers the previous
round's messages to their recipients and invokes ``on_node`` for every node
that has mail or requested a wakeup.  The engine enforces the CONGEST
constraints — messages travel only along edges, at most ``capacity``
messages per directed edge per round, at most O(log n) bits per payload —
and meters every message into a :class:`~repro.congest.ledger.PhaseStats`.

Meta-rounds (Section 4.2 of the paper): the randomized PA variant lets a
node forward O(log n) messages per edge per "meta-round", each meta-round
costing O(log n) real CONGEST rounds.  The engine models this with
``capacity=kappa`` and ``rounds_per_tick=kappa``: one engine tick then
charges kappa rounds, which is exactly the paper's accounting.

The orchestrator (ordinary Python code between phases) may sequence phases
and precompute static structure, but all *communication* happens here.

Performance notes (the engine is the hot loop under every number in
EXPERIMENTS.md):

* per-node mailbox arenas are owned by the :class:`Engine`, double
  buffered and reused across ticks *and* phases, so a multi-phase
  pipeline pays the O(n) arena allocation once per engine and a tick
  rebuilds no per-node containers;
* per-edge capacity is not tracked at send time: a directed edge's load
  is the length of its sender's run in the destination's inbox, so the
  inbox scan that orders senders enforces it, and steady-state delivery
  allocates nothing beyond the inbox tuples handed to programs;
* inboxes are sorted by sender only when they arrive out of order (sends
  are usually emitted in activation order, which is already sorted);
* ``wake_at`` is backed by a real timer wheel: idle stretches where only a
  future timer is pending are fast-forwarded in O(1) while still being
  charged as rounds.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple

from .errors import (
    BandwidthExceededError,
    ChannelCapacityError,
    NotAnEdgeError,
    RoundLimitExceededError,
)
from ..obs.tracer import current_tracer
from .ledger import PhaseStats
from .message import payload_bits
from .network import Network

#: (sender, payload) pairs as delivered to a node in one round.
Inbox = Tuple[Tuple[int, object], ...]


class Context:
    """Per-phase API handed to node programs.

    Programs interact with the world exclusively through this object:
    ``send`` schedules a message for delivery next tick, ``wake`` schedules
    a spontaneous activation of a node next tick, and ``wake_at`` schedules
    one at an absolute future tick (used for timers such as the random part
    delays of the randomized PA variant).
    """

    __slots__ = (
        "network",
        "tick",
        "_mail",
        "_touched",
        "_sent",
        "_bits",
        "_wakeups",
        "_timers",
        "_bit_limit",
        "_neighbor_sets",
    )

    def __init__(
        self,
        network: Network,
        mail: Optional[List[List[Tuple[int, object]]]] = None,
    ) -> None:
        self.network = network
        self.tick = 0
        # Next-tick delivery arena: sends append directly to the
        # recipient's mailbox (no intermediate outbox), ``_touched`` lists
        # the recipients with mail (each once), ``_sent`` counts messages.
        # The engine swaps these per tick (and passes its reusable arena
        # in; a stand-alone Context allocates its own).
        self._mail: List[List[Tuple[int, object]]] = (
            [[] for _ in range(network.n)] if mail is None else mail
        )
        self._touched: List[int] = []
        self._sent = 0
        # Cumulative payload bits of all sends this phase (the audit
        # computes each message's cost anyway, so tracking the sum is one
        # addition); a FastContext leaves it 0, untracked.
        self._bits = 0
        self._wakeups: set = set()
        #: Timer wheel: absolute tick -> set of nodes to activate then.
        self._timers: Dict[int, Set[int]] = {}
        self._bit_limit = network.message_bits
        # Same single-hash-lookup check as Network.has_edge, with the
        # tuple-of-frozensets bound once for the hot loop.
        self._neighbor_sets = network.neighbor_sets

    def send(self, src: int, dst: int, payload: object) -> None:
        """Schedule ``payload`` on directed edge (src, dst) for next tick."""
        # src is range-checked explicitly: negative ids would otherwise hit
        # Python's negative indexing and validate against the wrong node's
        # neighbor set (ROOT == -1 is a live sentinel in tree code).
        try:
            valid = src >= 0 and dst in self._neighbor_sets[src]
        except IndexError:
            valid = False
        if not valid:
            raise NotAnEdgeError(src, dst)
        bits = payload_bits(payload)
        if bits > self._bit_limit:
            raise BandwidthExceededError(src, dst, bits, self._bit_limit)
        self._bits += bits
        box = self._mail[dst]
        if not box:
            self._touched.append(dst)
        box.append((src, payload))
        self._sent += 1

    def wake(self, node: int) -> None:
        """Ensure ``node`` is activated next tick even without mail."""
        self._wakeups.add(node)

    def wake_at(self, node: int, tick: int) -> None:
        """Schedule activation of ``node`` at absolute tick ``tick``.

        Backed by the engine's timer wheel: the node is activated (with an
        empty inbox unless it also has mail) exactly at the requested tick,
        and the intervening idle ticks are charged as rounds without
        per-tick work.  ``tick`` must be strictly in the future.
        """
        if tick <= self.tick:
            raise ValueError(
                f"wake_at requires a future tick (now {self.tick}, got {tick})"
            )
        bucket = self._timers.get(tick)
        if bucket is None:
            self._timers[tick] = bucket = set()
        bucket.add(node)


class FastContext(Context):
    """A :class:`Context` with the per-message model audits compiled out.

    Used by the engine when its audits are off (``strict_bits=False,
    strict_edges=False``): the per-send edge-membership check and the
    bit-budget audit are skipped entirely.  Delivery schedule, per-edge
    capacity enforcement and all metered costs are unchanged (pinned by
    the parity tests); only a buggy program that sends to a non-neighbor
    would now mis-deliver instead of raising, which is why the relaxed
    mode is reserved for workloads whose programs the test suite already
    exercises under the strict engine.
    """

    __slots__ = ()

    def send(self, src: int, dst: int, payload: object) -> None:
        box = self._mail[dst]
        if not box:
            self._touched.append(dst)
        box.append((src, payload))
        self._sent += 1


def context_class(strict_bits: bool, strict_edges: bool) -> type:
    """The send context an engine's audit flags select: :class:`Context`
    with both audits on, :class:`FastContext` with both off.  The audits
    come on and off together, so a mismatched pair raises."""
    if strict_bits != strict_edges:
        raise ValueError(
            "strict_bits and strict_edges must be equal: the audits come "
            "on (Context) and off (FastContext) together"
        )
    return Context if strict_bits else FastContext


class Program:
    """Base class for engine programs.

    Subclasses override :meth:`on_start` (inject initial messages/wakeups)
    and :meth:`on_node` (per-node transition function).

    Termination contract (quiescence): a program never signals completion
    explicitly.  A phase ends exactly when, after some tick, there are no
    messages in flight, no ``wake`` requests for the next tick, and no
    pending ``wake_at`` timers.  Consequently a program that should keep
    running must, every time it is activated, either send a message, call
    ``wake``, or hold a future ``wake_at`` timer; conversely a program that
    is done must simply stop doing all three.  Deadlock (waiting for a
    message nobody will send) therefore manifests as early quiescence, and
    livelock (re-waking forever) as a
    :class:`~repro.congest.errors.RoundLimitExceededError`.
    """

    #: Descriptive name used in ledgers and error messages.
    name: str = "program"

    def on_start(self, ctx: Context) -> None:
        """Inject round-0 messages and wakeups."""

    def on_node(self, ctx: Context, node: int, inbox: Inbox) -> None:
        """Process one node's mail for the current tick."""
        raise NotImplementedError


class ArrayProgram(Program):
    """A program whose whole-tick transition is a numpy kernel.

    Where a scalar :class:`Program` is stepped node by node over Python
    inboxes, an ``ArrayProgram`` receives the tick's entire delivered
    traffic as flat int64 columns
    (:class:`~repro.congest.arrays.Delivered`) and emits next-tick
    batches through an
    :class:`~repro.congest.arrays.ArrayContext`.  The engine routes these
    programs through the array run loop
    (:func:`~repro.congest.arrays.run_array_phase`), whose metering,
    audits and activation order are bit-for-bit those of the scalar loop.

    Kernels must emit messages in exactly the order their scalar twin
    would have called ``ctx.send`` — the delivery sort is stable, so this
    is what makes the two engines' inbox orders (and hence ledgers and
    outputs) coincide.
    """

    name = "array_program"

    def array_start(self, actx) -> None:
        """Inject tick-1 emissions and wakeups (the ``on_start`` twin)."""

    def array_tick(self, actx, delivered) -> None:
        """Process one tick's delivered batch (the per-tick transition)."""
        raise NotImplementedError

    def on_node(self, ctx: Context, node: int, inbox: Inbox) -> None:
        raise TypeError(
            f"{type(self).__name__} is array-native; the scalar engine "
            "cannot run it node-by-node"
        )


class Engine:
    """Runs programs on a network and meters their cost.

    Parameters
    ----------
    network:
        The communication graph.
    strict_bits, strict_edges:
        The per-message audits, which come on and off together: every
        send travels along a network edge and every payload fits the
        O(log n)-bit budget.  On by default (:class:`Context`); with both
        off the engine hands programs a :class:`FastContext` whose send
        path does no per-message auditing at all, which benchmarks on
        large inputs use once the test suite has pinned the programs
        (ledger values are identical either way — pinned by tests).  A
        mismatched pair is rejected rather than silently half-honoured.

    A phase's program is its array kernel unless the kernel declines the
    payload or :attr:`runs_kernels` is false (one choice, in
    ``treeops._kernel``); either way an :class:`ArrayProgram` takes the
    array loop and a scalar program the scalar loop, with the same ledger
    (the parity contract the differential suite pins).
    """

    def __init__(
        self,
        network: Network,
        strict_bits: bool = True,
        strict_edges: bool = True,
    ) -> None:
        self._context = context_class(strict_bits, strict_edges)
        self.network = network
        self.strict_bits = strict_bits
        self.strict_edges = strict_edges
        #: Double-buffered per-node mailbox arenas, allocated lazily and
        #: reused across phases (every tick leaves all mailboxes empty, so
        #: reuse is free): one arena is being delivered while programs
        #: fill the other.  Dropped after an abnormal phase exit, which
        #: may leave mail behind.
        self._arena: Optional[Tuple[
            List[List[Tuple[int, object]]],
            List[List[Tuple[int, object]]],
        ]] = None
        self._arena_in_use = False

    @property
    def flags(self) -> Dict[str, bool]:
        """This engine's construction flags, network aside.

        ``type(engine)(net, **engine.flags)`` is the same engine on another
        network — how a solver rebinds after an edge update and how shard
        workers build theirs — so the flag list is spelled here only.
        """
        return {
            "strict_bits": self.strict_bits,
            "strict_edges": self.strict_edges,
        }

    @property
    def runs_kernels(self) -> bool:
        """Whether a phase on this engine may run its array kernel.

        Always on the synchronous engine; an engine that can mask only
        the scalar loop (:class:`~repro.congest.AsyncEngine` holding a
        fault plan) says no, and its phases run their scalar twins.
        """
        return True

    def run(
        self,
        program: Program,
        max_ticks: int,
        capacity: int = 1,
        rounds_per_tick: int = 1,
        name: Optional[str] = None,
    ) -> PhaseStats:
        """Execute ``program`` to quiescence and return its metered cost.

        ``capacity`` is the per-directed-edge, per-tick message cap
        (CONGEST: 1).  ``rounds_per_tick`` is how many CONGEST rounds one
        engine tick represents; the randomized meta-round mode uses
        ``capacity == rounds_per_tick == Theta(log n)``.

        Raises :class:`RoundLimitExceededError` if the program does not
        quiesce within ``max_ticks`` ticks.
        """
        phase_name = name or program.name
        # Observability: one current_tracer() fetch and one ``enabled``
        # check per *phase*; with tracing off the run loops see
        # ``tracer=None`` and do no per-tick or per-event work at all.
        tracer = current_tracer()
        tracer = tracer if tracer.enabled else None
        start_us = tracer.now_us() if tracer is not None else 0
        stats = self._execute(
            program, max_ticks, capacity, rounds_per_tick, phase_name,
            tracer, None,
        )
        if tracer is not None:
            tracer.complete(
                phase_name,
                "engine.phase",
                start_us,
                {
                    "impl": (
                        "array" if isinstance(program, ArrayProgram)
                        else "scalar"
                    ),
                    "rounds": stats.rounds,
                    "messages": stats.messages,
                    "ticks": stats.ticks,
                    "bits": stats.bits,
                },
            )
        return stats

    def _execute(
        self,
        program: Program,
        max_ticks: int,
        capacity: int,
        rounds_per_tick: int,
        phase_name: str,
        tracer,
        pulses,
    ) -> PhaseStats:
        """Run ``program`` on the loop its type selects.

        ``pulses`` (the asynchronous engine's synchronizer, else None)
        sees every tick's record before the tick's nodes run.
        """
        if isinstance(program, ArrayProgram):
            # Array-native phases own their (numpy) state; the scalar
            # mailbox arenas are neither needed nor touched.
            from .arrays import run_array_phase

            return run_array_phase(
                self, program, max_ticks, capacity,
                rounds_per_tick, phase_name, tracer, pulses,
            )
        n = self.network.n
        # Double-buffered mailbox arenas: programs (via the Context) fill
        # one while the engine delivers from the other; each tick swaps
        # them.  The arenas belong to the engine and are reused across
        # phases; a reentrant run (one program driving another on the same
        # engine) gets a private allocation.
        if self._arena is None or self._arena_in_use:
            arena = ([[] for _ in range(n)], [[] for _ in range(n)])
            if not self._arena_in_use:
                self._arena = arena
        else:
            arena = self._arena
        ctx = self._context(self.network, mail=arena[0])
        reentrant = self._arena_in_use
        self._arena_in_use = True
        try:
            program.on_start(ctx)
            return self._run_loop(
                program, ctx, arena[1], max_ticks, capacity,
                rounds_per_tick, phase_name, tracer, pulses,
            )
        except BaseException:
            if not reentrant:
                self._arena = None  # may hold undelivered mail; rebuild
            raise
        finally:
            self._arena_in_use = reentrant

    def _run_loop(
        self,
        program: Program,
        ctx: Context,
        spare_mail: List[List[Tuple[int, object]]],
        max_ticks: int,
        capacity: int,
        rounds_per_tick: int,
        phase_name: str,
        tracer,
        pulses,
    ) -> PhaseStats:
        spare_touched: List[int] = []
        # Delivered-bits watermark for the per-tick counter series; only
        # consulted when tracing (``tracer`` is None on the disabled path).
        bits_mark = 0

        timers = ctx._timers
        total_messages = 0
        ticks = 0
        on_node = program.on_node
        # Recycled per-tick containers (the delivered arena and the drained
        # wakeup set become the next tick's fill targets).
        spare_wakeups: set = set()

        while ctx._sent or ctx._wakeups or timers:
            if not ctx._sent and not ctx._wakeups:
                # Only future timers remain: fast-forward the clock.  The
                # skipped ticks are still charged as rounds (time passes in
                # a synchronous network whether or not anyone speaks).
                next_tick = min(timers)
                if tracer is not None and next_tick - 1 > ticks:
                    tracer.instant(
                        "fast_forward",
                        "engine.ff",
                        {
                            "phase": phase_name,
                            "from_tick": ticks,
                            "to_tick": next_tick,
                            "skipped": next_tick - 1 - ticks,
                        },
                    )
                ticks = next_tick - 1
            if ticks >= max_ticks:
                raise RoundLimitExceededError(phase_name, max_ticks)
            ticks += 1
            ctx.tick = ticks

            # Swap arenas: what the programs filled is delivered this
            # tick; the drained spare becomes the new fill target.  Sends
            # already live in their recipients' mailboxes — there is no
            # bucketing pass.  Per-edge capacity is not tracked at send
            # time: a directed edge's load is exactly the multiplicity of
            # its sender in the destination's mailbox, so the inbox scan
            # below (which must look at senders anyway for deterministic
            # ordering) enforces it with no extra per-message accounting.
            mailboxes = ctx._mail
            touched = ctx._touched
            in_flight = ctx._sent
            wakeups = ctx._wakeups
            ctx._mail = spare_mail
            ctx._touched = spare_touched
            ctx._sent = 0
            ctx._wakeups = spare_wakeups
            if pulses is not None:
                pulses.scalar_tick(ticks, mailboxes, touched, wakeups, timers)
            if timers:
                due = timers.pop(ticks, None)
                if due:
                    wakeups |= due

            total_messages += in_flight

            # Deterministic activation order: sorted node ids; inboxes
            # sorted by sender.  Programs must not rely on this for
            # correctness, but it makes every run reproducible.
            if wakeups:
                wakeups.update(touched)
                active = sorted(wakeups)
            else:
                touched.sort()
                active = touched
            if tracer is not None:
                delivered_bits = ctx._bits - bits_mark
                bits_mark = ctx._bits
                tracer.counter(
                    phase_name,
                    {
                        "tick": ticks,
                        "messages": in_flight,
                        "bits": delivered_bits,
                        "activations": len(active),
                    },
                )
            for node in active:
                mail = mailboxes[node]
                if not mail:
                    inbox: Inbox = ()
                else:
                    # Sends are usually emitted in activation order, which
                    # is already sorted by sender; sort only on disorder
                    # (stable, by sender only — payloads may be
                    # unorderable).  The same scan counts each sender's
                    # run length, i.e. the per-directed-edge load.
                    for _attempt in (0, 1):
                        prev = -1
                        run = 0
                        in_order = True
                        for sender, _payload in mail:
                            if sender > prev:
                                prev = sender
                                run = 1
                            elif sender == prev:
                                run += 1
                                if run > capacity:
                                    raise ChannelCapacityError(
                                        sender, node, run, capacity
                                    )
                            else:
                                in_order = False
                                break
                        if in_order:
                            break
                        mail.sort(key=_sender_of)
                    inbox = tuple(mail)
                    mail.clear()
                on_node(ctx, node, inbox)
            touched.clear()
            spare_touched = touched
            spare_mail = mailboxes  # fully drained by the inbox builds
            wakeups.clear()
            spare_wakeups = wakeups

        return PhaseStats(
            name=phase_name,
            rounds=ticks * rounds_per_tick,
            messages=total_messages,
            ticks=ticks,
            bits=ctx._bits,
        )


def _sender_of(item: Tuple[int, object]) -> int:
    return item[0]


class FunctionProgram(Program):
    """Adapter turning plain functions into a :class:`Program`.

    Useful for small one-off phases and for tests::

        prog = FunctionProgram("ping", start, step)
    """

    def __init__(
        self,
        name: str,
        on_start: Callable[[Context], None],
        on_node: Callable[[Context, int, Inbox], None],
    ) -> None:
        self.name = name
        self._on_start = on_start
        self._on_node = on_node

    def on_start(self, ctx: Context) -> None:
        self._on_start(ctx)

    def on_node(self, ctx: Context, node: int, inbox: Inbox) -> None:
        self._on_node(ctx, node, inbox)
