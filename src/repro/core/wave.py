"""The PA wave: Algorithm 1 in event-driven form.

Algorithm 1 broadcasts a token ``m_i`` from each part leader to every node
of the part, alternating BlockRoute steps over shortcut blocks with
intra-sub-part broadcasts and boundary crossings, then computes ``f(P_i)``
"symmetrically" and broadcasts the result.  We implement it as three
phases, each a single engine program over *all parts concurrently*:

1. :class:`WaveProgram` — the token broadcast.  Five message kinds:

   * ``su`` — down a sub-part tree (Algorithm 1 line 14);
   * ``bd`` — across sub-part boundary edges inside the part (line 15);
   * ``ru`` — up a sub-part tree toward its representative (lines 8
     and 18);
   * ``ku`` — climb shortcut-block edges toward the block root;
   * ``kd`` — flood down block edges (``ku`` + ``kd`` = the BlockRoute
     of Lemma 4.2, with packets prioritized by (block-root depth, part
     id) and queued per directed tree edge).

   One rule: *a node hands a token on in the tick it gains it, and never
   back to a neighbor that sent it.*  A part member that first receives its
   part's token — by any kind, or as the leader at its start — sends ``su``
   to its sub-part children and ``bd`` across its boundary at once; a
   non-representative also sends ``ru`` to its sub-part parent, and a
   representative that did not get the token through its block injects it
   there (Observation 4.3: only representatives inject).  A block node that
   wins part pid's climb — its first ``ku`` for pid, or the inject — sends
   ``ku`` up unless it is the block root and floods ``kd`` down its H_pid
   children, both at once; a ``kd`` arrival floods down (a ``ku`` that
   arrives later climbs to no one: the tree parent it would go to sent the
   ``kd``).  Every send skips the neighbors that have sent the node pid's
   token (its recorded in-edges).  So a token crosses a sub-part tree edge
   or a block edge once, or twice only where both ends gained it in the
   same tick, and the wave uses O(n) sub-part messages, O(2 m) boundary
   messages and O(sum_i |H_i|) block messages.  Unlike the paper's phrasing
   there is no global barrier between the ``b`` iterations: each
   block/sub-part activates once, when the token first reaches it, which is
   the same schedule without idle waiting.  The randomized variant (Section
   4.2) delays each part's start uniformly in [0, c) and runs with per-edge
   capacity Theta(log n), each engine tick costing that many CONGEST rounds
   — exactly the paper's meta-round accounting.

2. :class:`ReverseProgram` — the aggregation.  The broadcast recorded, per
   (node, part), every wave message sent and received and the *wave
   parent* (first token source).  Reversal answers every recorded wave
   edge with exactly one message: non-parent edges are answered ``None``
   immediately, under their own tag; the parent edge is answered with the
   node's contribution merged with all received answers (value or
   ``None``), once every outgoing wave edge has been answered.  Because
   wave parents form a forest rooted at the leaders, this convergecast is
   deadlock-free and costs exactly one message per wave message.  The
   recorded keys are iterated in canonical sorted ``(node, part)`` order —
   a *restriction-stable* order: any conflict-closed subset of parts sees
   the same relative key order it would inside the full run, which is
   what lets the sharded backend replay shard-local reversals
   bit-for-bit.

3. :class:`ReplayProgram` — the result broadcast: the leader's aggregate
   retraces the wave forest (below), one message per non-leader key.

**The cost rule: a setup learns its route once.**  Who sends to whom in a
wave is a function of the setup and the delay draw, not of the values
(Lemma 4.4's "symmetrically"), and a CONGEST node keeps what it learned.
What a node remembers of the first solve on a setup, per part it served:
its wave parent, and which of the wave edges it sent on were answered
under the child tag — those are the edges on which it *is* the wave
parent, and the answer's tag is all it takes to tell them from the rest
(a non-parent answer is ``None`` under the other tag; same
``TAG_BITS``).  Those edges are the *wave forest*: one in-edge per
non-leader key, ``#keys - #parts`` edges in all.  A node holds that fact
as soon as the reversal's answers are in, so nothing after the reversal
pays for the wire again: the first solve on a setup runs broadcast and
reversal over the wire record and the replay on the forest — two wire
passes and one forest pass (one wire broadcast and one wire reversal is
what a setup's first solve must keep paying; Lemma 4.4's third pass only
ever needed the tree the first two built) — and when it has returned the
setup keeps the forest (:class:`RouteMemo`); every later solve on that
setup runs no token wave — reversal and replay on the forest, two passes
of ``#keys - #parts`` messages each.  A one-off solve (a candidate
verification inside a build) is a first solve that keeps nothing.  The
one place that decides is :func:`run_planned_waves`.

Each pass has its completeness check there: the broadcast its coverage
scan (every member holds the token), the reversal its unanswered parts,
the replay — which runs on an edge set the scan never validated — the
count of members it delivered to against the members there are.  All
three raise ``RuntimeError``; under the recovery driver that is an
attempt that died.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..congest.engine import Context, Engine, Inbox
from ..congest.ledger import CostLedger
from ..congest.message import ceil_log2
from ..congest.network import Network
from ..graphs.partitions import Partition
from ..obs.tracer import current_tracer
from .aggregation import Aggregation
from .blocks import BlockAnnotations
from .queued import QueuedProgram
from .shortcuts import Shortcut
from .subparts import SubPartDivision
from .trees import ROOT


@dataclass
class WaveRecord:
    """A setup's route: what the broadcast learned, for reversal and replay.

    ``out_edges[(v, pid)]`` — (dst, tag) wave messages v physically sent
    for part pid; ``in_edges[(v, pid)]`` — (src, tag) received;
    ``parent[(v, pid)]`` — the first token source (None for the leader);
    ``reached[pid]`` — part members that received the token;
    ``part_of`` / ``leaders`` — the partition and its part leaders.

    The broadcast fills in the *wire* record (every message);
    :meth:`forest` filters it to the wave forest, the same object with
    fewer edges — reversal and replay run on either.
    """

    part_of: Sequence[int]
    leaders: Sequence[int]
    out_edges: Dict[Tuple[int, int], List[Tuple[int, str]]]
    in_edges: Dict[Tuple[int, int], List[Tuple[int, str]]]
    parent: Dict[Tuple[int, int], Optional[int]]
    reached: Dict[int, Set[int]]

    @property
    def edges(self) -> int:
        """Messages one pass over this route sends."""
        return sum(len(out) for out in self.out_edges.values())

    def forest(self) -> "WaveRecord":
        """The route filtered to the wave forest.

        Of the messages a key sent, the first per destination whose
        ``(destination, part)`` key has the sender as its wave parent
        stays, in send order; the one in-edge a non-leader key keeps is
        its ``parent``, so nothing is left for reversal to answer
        ``None``.
        """
        parent = self.parent
        out_edges: Dict[Tuple[int, int], List[Tuple[int, str]]] = {}
        for (v, pid), sent in self.out_edges.items():
            kept = {}
            for dst, tag in sent:
                if dst not in kept and parent.get((dst, pid)) == v:
                    kept[dst] = tag
            if kept:
                out_edges[(v, pid)] = list(kept.items())
        return replace(self, out_edges=out_edges, in_edges={})


@dataclass
class RouteMemo:
    """What a setup's nodes remember of its first solve (one per setup).

    ``delays`` is the fact the ledger knows: the delay draw under which
    the setup's token wave was paid for, ``None`` until a solve that ran
    it has *returned* (a solve that raised after its wave commits
    nothing, so its retry pays the wave again).  ``forests`` is this
    process's cache of that wave's forest, per wave twin (``True``: the
    array kernels' :class:`~repro.core.array_wave.WaveIndex`, ``False``:
    a :class:`WaveRecord`): whoever lacks it — a shard worker after a
    local learn or a re-ship, rank 0 after a sharded learn — re-derives
    it from the setup and ``delays`` off the ledger.
    """

    delays: Optional[Dict[int, int]] = None
    forests: Dict[bool, object] = field(default_factory=dict)


class WaveProgram(QueuedProgram):
    """Token broadcast from every part leader (Algorithm 1 lines 1-20)."""

    name = "pa_wave"

    def __init__(
        self,
        net: Network,
        partition: Partition,
        division: SubPartDivision,
        shortcut: Shortcut,
        annotations: BlockAnnotations,
        leader_tokens: Dict[int, object],
        delays: Optional[Dict[int, int]] = None,
        capacity: int = 1,
    ) -> None:
        super().__init__(capacity=capacity)
        self.net = net
        self.partition = partition
        self.division = division
        self.shortcut = shortcut
        self.ann = annotations
        self.leader_tokens = leader_tokens
        self.delays = delays or {}
        self._started: Set[int] = set()

        self.forest = division.forest
        self.part_of = partition.part_of
        self.rep_of = division.rep_of
        self.down = shortcut.down_parts()

        self.has_token = bytearray(net.n)
        #: Keys ``(node, pid)`` whose climb is won: by a ku or an inject.
        self.kup_done: Set[Tuple[int, int]] = set()
        self.kdown_done: Set[Tuple[int, int]] = set()

        self.record = WaveRecord(
            part_of=partition.part_of, leaders=division.part_leader,
            out_edges={}, in_edges={}, parent={},
            reached={pid: set() for pid in range(partition.num_parts)},
        )
        # A part's token is fixed, so the (tag, pid, token) payload for a
        # given (tag, pid) is one value: intern it.  Reusing one tuple per
        # (tag, pid) avoids an allocation per send and lets the engine's
        # identity-keyed bit-budget cache hit on every hop.
        self._payload_memo: Dict[Tuple[str, int], Tuple[str, int, object]] = {}
        self._prio_memo: Dict[Tuple[int, int], Tuple[int, int]] = {}
        # The candidate boundary edges of line 15.
        self._boundary: List[Tuple[int, ...]] = division.wave_boundary

    def on_dequeue(self, src: int, dst: int, payload: object) -> None:
        # Once per physically sent packet: record the wave edge.
        out_edges = self.record.out_edges
        key = (src, payload[1])
        lst = out_edges.get(key)
        if lst is None:
            out_edges[key] = [(dst, payload[0])]
        else:
            lst.append((dst, payload[0]))

    def _send(self, src: int, dst: int, tag: str, pid: int, token: object,
              priority: Tuple = (0, 0)) -> None:
        key = (tag, pid)
        payload = self._payload_memo.get(key)
        if payload is None:
            payload = self._payload_memo[key] = (tag, pid, token)
        # Every _send happens while ``src`` is the node being activated
        # (handlers and the leader start both run inside src's own
        # activation), so the enqueue fast path is inlined: the packet
        # goes straight to the activation batch.
        self._seq += 1
        self._batch.append((dst, priority, self._seq, payload))

    def _prio(self, v: int, pid: int) -> Tuple[int, int]:
        key = (v, pid)
        prio = self._prio_memo.get(key)
        if prio is None:
            prio = self._prio_memo[key] = (self.ann.priority_depth(v, pid), pid)
        return prio

    # ------------------------------------------------------------------
    # Protocol actions.  ``heard`` is every neighbor that has sent the
    # node pid's token: none of them is sent it back.
    # ------------------------------------------------------------------
    def _gain_token(self, v: int, pid: int, token: object, heard,
                    via_block: bool) -> None:
        """First token receipt at part member ``v``: hand it on at once.

        Down the sub-part tree and across the boundary; a non-rep also up
        toward its representative, a representative into its block unless
        the token came through the block (Observation 4.3: reps only).
        """
        self.has_token[v] = 1
        self.record.reached[pid].add(v)
        for child in self.forest.children[v]:
            if child not in heard:
                self._send(v, child, "su", pid, token)
        for nb in self._boundary[v]:
            if nb not in heard:
                self._send(v, nb, "bd", pid, token)
        if self.rep_of[v] != v:
            parent = self.forest.parent[v]
            if parent not in heard:
                self._send(v, parent, "ru", pid, token)
        elif not via_block:
            self.kup_done.add((v, pid))
            self._climb(v, pid, token, heard)

    def _climb(self, v: int, pid: int, token: object, heard) -> None:
        """``v`` won pid's climb: ku up unless v is the block root, and kd
        down its H_pid children, both now."""
        if pid in self.shortcut.up_parts[v]:
            parent = self.shortcut.tree.parent[v]
            if parent not in heard:
                self._send(v, parent, "ku", pid, token, self._prio(v, pid))
        self._block_down(v, pid, token, heard)

    def _block_down(self, v: int, pid: int, token: object, heard) -> None:
        """Flood the token down v's H_pid child edges (once per key)."""
        key = (v, pid)
        if key in self.kdown_done:
            return
        self.kdown_done.add(key)
        prio = self._prio(v, pid)
        for child, parts in self.down[v].items():
            if pid in parts and child not in heard:
                self._send(v, child, "kd", pid, token, prio)

    # ------------------------------------------------------------------
    # Engine hooks
    # ------------------------------------------------------------------
    def on_start(self, ctx: Context) -> None:
        for pid in range(self.partition.num_parts):
            leader = self.division.part_leader[pid]
            delay = self.delays.get(pid, 0)
            if delay > 1:
                # Timer wheel: one activation exactly at the delay tick,
                # instead of re-waking (and re-activating) every tick.
                ctx.wake_at(leader, delay)
            else:
                ctx.wake(leader)

    def _leader_start(self, ctx: Context, leader: int) -> None:
        pid = self.part_of[leader]
        if ctx.tick < self.delays.get(pid, 0):
            # Defensive: with wake_at-based scheduling the leader is first
            # activated at its delay tick, so this cannot trigger unless a
            # message reaches it earlier (in which case it re-arms).
            ctx.wake(leader)
            return
        self._started.add(pid)
        self.record.parent[(leader, pid)] = None
        # pid's token exists nowhere before this: nobody has sent it.
        self._gain_token(leader, pid, self.leader_tokens[pid], (), False)

    def handle(self, ctx: Context, node: int, inbox: Inbox) -> None:
        in_edges = self.record.in_edges
        wave_parent = self.record.parent
        for sender, payload in inbox:
            key = (node, payload[1])
            lst = in_edges.get(key)
            if lst is None:
                in_edges[key] = [(sender, payload[0])]
            else:
                lst.append((sender, payload[0]))
            if key not in wave_parent:
                wave_parent[key] = sender
        member = self.part_of[node]
        told: Dict[int, Set[int]] = {}
        for _sender, payload in inbox:
            tag, pid, token = payload
            heard = told.get(pid)
            if heard is None:
                # Every neighbor that has sent this node pid's token: the
                # recorded in-edges, this tick's included.
                heard = told[pid] = {
                    src for src, _tag in in_edges[(node, pid)]
                }
            if tag == "ku":
                key = (node, pid)
                if key in self.kup_done:
                    continue
                self.kup_done.add(key)
                if member == pid and not self.has_token[node]:
                    self._gain_token(node, pid, token, heard, True)
                self._climb(node, pid, token, heard)
            elif tag == "kd":
                if member == pid and not self.has_token[node]:
                    self._gain_token(node, pid, token, heard, True)
                self._block_down(node, pid, token, heard)
            elif not self.has_token[node]:
                # ru, su, bd: the node's own part.
                self._gain_token(node, pid, token, heard, False)

    def on_activate(self, ctx: Context, node: int) -> None:
        pid = self.part_of[node]
        if node == self.division.part_leader[pid] and pid not in self._started:
            # The leader's own sends go through the activation batch (the
            # flush at the end of this activation ships them this tick).
            self._leader_start(ctx, node)

    def route(self) -> WaveRecord:
        """The finished broadcast's wire record."""
        return self.record


class ReverseProgram(QueuedProgram):
    """Aggregation by exact time-reversal of a route (wire or forest)."""

    name = "pa_reverse"

    def __init__(
        self,
        route: WaveRecord,
        agg: Aggregation,
        values: Sequence[object],
        capacity: int = 1,
    ) -> None:
        super().__init__(capacity=capacity)
        self.record = route
        self.agg = agg
        self.values = values
        self.expected: Dict[Tuple[int, int], int] = {}
        self.acc: Dict[Tuple[int, int], object] = {}
        self.results: Dict[int, object] = {}
        # The None answer for part pid is one value: intern it (identity
        # bit-budget cache + no per-send allocation).
        self._none_answer: Dict[int, Tuple[str, int, None]] = {}

    def _fire(self, ctx: Context, v: int, pid: int) -> None:
        parent = self.record.parent.get((v, pid))
        if parent is None:
            self.results[pid] = self.acc.get((v, pid))
        else:
            self.enqueue(
                ctx, v, parent, (0,), ("a", pid, self.acc.get((v, pid)))
            )

    def on_start(self, ctx: Context) -> None:
        part_of = self.record.part_of
        out_edges = self.record.out_edges
        in_edges = self.record.in_edges
        parent_of = self.record.parent
        reached = self.record.reached
        values = self.values
        expected = self.expected
        acc = self.acc
        # Canonical iteration order: sorted (node, pid).  Sorting is
        # restriction-stable (a shard sees the same relative order as the
        # full run) and relabel-invariant under order-preserving node/part
        # relabelings — the property the sharded backend's bit-for-bit
        # parity rests on.
        key_set = set(out_edges)
        key_set.update(in_edges)
        key_set.update(parent_of)
        keys = sorted(key_set)
        for key in keys:
            v, pid = key
            out = out_edges.get(key)
            expected[key] = len(out) if out is not None else 0
            if part_of[v] == pid and v in reached[pid]:
                acc[key] = values[v]
            else:
                acc[key] = None
        # Answer every non-parent in-edge immediately with None, under a
        # tag of its own: the tag is how a sender learns which of its
        # wave edges are forest edges (answered "a") and which are not.
        none_answer = self._none_answer
        enqueue = self.enqueue
        for key in keys:
            edges = in_edges.get(key)
            if not edges:
                continue
            v, pid = key
            parent = parent_of.get(key)
            answered_parent = False
            payload = none_answer.get(pid)
            if payload is None:
                payload = none_answer[pid] = ("n", pid, None)
            for src, _tag in edges:
                if src == parent and not answered_parent:
                    answered_parent = True  # reserved for the value answer
                    continue
                enqueue(ctx, v, src, (0,), payload)
        for key in keys:
            if expected[key] == 0:
                v, pid = key
                self._fire(ctx, v, pid)

    def handle(self, ctx: Context, node: int, inbox: Inbox) -> None:
        for _sender, payload in inbox:
            _tag, pid, value = payload
            key = (node, pid)
            self.acc[key] = self.agg.merge(self.acc.get(key), value)
            self.expected[key] -= 1
            if self.expected[key] == 0:
                self._fire(ctx, node, pid)


class ReplayProgram(QueuedProgram):
    """Broadcast each part's aggregate along a route's edges."""

    name = "pa_replay"

    def __init__(
        self,
        route: WaveRecord,
        results: Dict[int, object],
        capacity: int = 1,
    ) -> None:
        super().__init__(capacity=capacity)
        self.record = route
        self.results = results
        self.delivered: Dict[int, object] = {}
        self._done: Set[Tuple[int, int]] = set()
        # One interned (tag, pid, result) payload per part, as in the wave.
        self._payload_memo: Dict[int, Tuple[str, int, object]] = {}

    def _forward(self, ctx: Context, v: int, pid: int, value: object) -> None:
        key = (v, pid)
        if key in self._done:
            return
        self._done.add(key)
        if self.record.part_of[v] == pid:
            self.delivered[v] = value
        out = self.record.out_edges.get(key)
        if not out:
            return
        payload = self._payload_memo.get(pid)
        if payload is None:
            payload = self._payload_memo[pid] = ("r", pid, value)
        for dst, _tag in out:
            self.enqueue(ctx, v, dst, (0,), payload)

    def on_start(self, ctx: Context) -> None:
        for pid, value in self.results.items():
            self._forward(ctx, self.record.leaders[pid], pid, value)

    def handle(self, ctx: Context, node: int, inbox: Inbox) -> None:
        for _sender, payload in inbox:
            _tag, pid, value = payload
            self._forward(ctx, node, pid, value)

    def reached(self) -> int:
        """How many part members the replay delivered an aggregate to."""
        return len(self.delivered)

    def value_at_node(self) -> List[object]:
        """Per node, the aggregate its part's replay delivered to it."""
        return [self.delivered.get(v) for v in range(len(self.record.part_of))]


@dataclass
class PAWaveResult:
    """Outcome of one full PA solve over a given shortcut and division.

    ``forest_edges`` is the size of the setup's wave forest;
    ``wire_edges`` the token wave's messages when this solve paid for it,
    ``None`` when it ran on a route learned earlier.
    """

    aggregates: Dict[int, object]
    value_at_node: List[object]
    wire_edges: Optional[int] = None
    forest_edges: int = 0


@dataclass
class WavePlan:
    """Globally computed parameters of one PA wave pass.

    Everything a wave pass needs beyond the setup structures, fixed
    *before* the first tick: capacity/meta-round accounting, the random
    per-part delays (drawn from the solver rng in pid order, so planning
    advances the rng exactly as running used to), the round budget
    (computed from the *global* n/b/c/depth), the leader tokens, the
    array-vs-scalar dispatch decision, and for an array reversal the
    ``FOLDS`` op that folds the values as one int64 column (``fold``;
    ``None``: the aggregation's own merge over a list) — evaluated on the
    *global* values, because a restriction of the values could pass the
    int64-overflow check where the full set does not.  The sharded
    backend ships one plan to every worker, restricted per shard, so all
    shards run under the exact parameters the serial pass would have used.
    """

    capacity: int
    rounds_per_tick: int
    delays: Dict[int, int]
    max_ticks: int
    leader_tokens: Dict[int, object]
    use_array: bool
    fold: Optional[str]


def plan_pa_waves(
    engine: Engine,
    net: Network,
    partition: Partition,
    division: SubPartDivision,
    shortcut: Shortcut,
    values: Sequence[object],
    agg: Aggregation,
    randomized: bool = False,
    rng: Optional[random.Random] = None,
    max_ticks: Optional[int] = None,
    phase_prefix: str = "pa",
) -> WavePlan:
    """Compute the :class:`WavePlan` for one wave pass.

    ``randomized`` switches on the Section 4.2 mode: random per-part delays
    uniform in [0, c) and per-edge capacity ceil(2 log2 n), each engine tick
    charged that many CONGEST rounds.
    """
    n = net.n
    b, c = shortcut.quality()
    depth = shortcut.tree.height()

    capacity = 1
    rounds_per_tick = 1
    delays: Dict[int, int] = {}
    if randomized:
        rng = rng or random.Random(0)
        log_n = ceil_log2(n)
        # Meta-rounds carry Theta(log n) messages per edge (Section 4.2),
        # but per-edge load never exceeds the shortcut congestion c, so a
        # smaller capacity suffices when c is small — same guarantees,
        # fewer charged rounds.
        capacity = max(1, min(2 * log_n, c))
        rounds_per_tick = capacity
        # Delays are drawn over [0, c) CONGEST rounds; one engine tick in
        # this mode represents ``capacity`` rounds, so scale accordingly.
        tick_span = max(1, c // capacity + 1)
        delays = {
            pid: rng.randrange(tick_span)
            for pid in range(partition.num_parts)
        }

    if max_ticks is None:
        max_ticks = 64 + 8 * (b * (depth + 1) + c + depth + n // max(1, depth))

    leader_tokens = {
        pid: net.uid[division.part_leader[pid]]
        for pid in range(partition.num_parts)
    }

    from .array_wave import array_wave_supported, reverse_fold

    use_array = array_wave_supported(
        engine, leader_tokens, phase=f"{phase_prefix}_wave"
    )
    return WavePlan(
        capacity=capacity,
        rounds_per_tick=rounds_per_tick,
        delays=delays,
        max_ticks=max_ticks,
        leader_tokens=leader_tokens,
        use_array=use_array,
        fold=reverse_fold(
            engine, values, agg, phase=f"{phase_prefix}_reverse"
        ) if use_array else None,
    )


def run_pa_waves(
    engine: Engine,
    net: Network,
    partition: Partition,
    division: SubPartDivision,
    shortcut: Shortcut,
    annotations: BlockAnnotations,
    values: Sequence[object],
    agg: Aggregation,
    ledger: CostLedger,
    randomized: bool = False,
    rng: Optional[random.Random] = None,
    max_ticks: Optional[int] = None,
    phase_prefix: str = "pa",
    route: Optional[RouteMemo] = None,
) -> PAWaveResult:
    """Plan and run one solve; returns per-part aggregates.

    Exactly ``plan_pa_waves`` followed by ``run_planned_waves``.
    """
    plan = plan_pa_waves(
        engine, net, partition, division, shortcut, values, agg,
        randomized=randomized, rng=rng, max_ticks=max_ticks,
        phase_prefix=phase_prefix,
    )
    return run_planned_waves(
        engine, net, partition, division, shortcut, annotations,
        values, agg, ledger, plan, phase_prefix=phase_prefix, route=route,
    )


def note_route(phase_prefix: str, outcome: PAWaveResult) -> None:
    """The ``pa.route`` trace instant of one solve (free when tracing is off)."""
    tracer = current_tracer()
    if tracer.enabled:
        args = {"phase": phase_prefix, "forest": outcome.forest_edges}
        if outcome.wire_edges is None:
            args["outcome"] = "reused"
        else:
            args.update(outcome="learned", wire=outcome.wire_edges)
        tracer.instant("pa.route", "pa", args)


def run_planned_waves(
    engine: Engine,
    net: Network,
    partition: Partition,
    division: SubPartDivision,
    shortcut: Shortcut,
    annotations: BlockAnnotations,
    values: Sequence[object],
    agg: Aggregation,
    ledger: CostLedger,
    plan: WavePlan,
    phase_prefix: str = "pa",
    route: Optional[RouteMemo] = None,
) -> PAWaveResult:
    """Run one solve under a precomputed plan, on the setup's route.

    ``route`` is the setup's :class:`RouteMemo` (``None``: a one-off
    solve on structures nobody will solve on again, which keeps
    nothing).  The first solve on it runs broadcast + coverage scan +
    reversal over the wire record, under ``plan.delays``, then the replay
    on the record's forest — the object it commits once all three have
    returned; a later solve runs no token wave and no coverage scan —
    reversal and replay on the remembered forest (re-derived off the
    ledger, under the paid delay draw, where this process does not hold
    it).  ``plan.delays`` goes unused then; it was still drawn, so every
    later draw on the solver's rng is the one it always was.  Either way
    the replay must reach every part member, or the solve raises.

    The plan's parameters (including the array-dispatch decision) are
    honored as given: this is the entry point sharded workers use, with a
    plan computed once on the orchestrator from the global structures and
    restricted per shard.
    """
    from .array_wave import wave_kernels

    broadcast, reversal, replay = (
        wave_kernels(plan.fold) if plan.use_array
        else (WaveProgram, ReverseProgram, ReplayProgram)
    )

    def run(program, name: str, max_ticks: int, charge: bool = True):
        program.name = f"{phase_prefix}_{name}"
        stats = engine.run(
            program, max_ticks=max_ticks, capacity=plan.capacity,
            rounds_per_tick=plan.rounds_per_tick,
        )
        if charge:
            ledger.charge(stats)
        return program

    def token_wave(delays: Dict[int, int], charge: bool):
        wave = run(broadcast(
            net, partition, division, shortcut, annotations,
            plan.leader_tokens, delays=delays, capacity=plan.capacity,
        ), "wave", plan.max_ticks, charge)
        for pid, members in enumerate(partition.members):
            missing = [v for v in members if not wave.has_token[v]]
            if missing:
                raise RuntimeError(
                    f"wave failed to cover part {pid}: missing {missing[:5]}"
                )
        return wave.route()

    learning = route is None or route.delays is None
    if learning:
        wire = token_wave(plan.delays, charge=True)
        forest = wire.forest()
    else:
        forest = route.forests.get(plan.use_array)
        if forest is None:
            forest = route.forests[plan.use_array] = token_wave(
                route.delays, charge=False
            ).forest()
        wire = forest
    reverse = run(
        reversal(wire, agg, values, capacity=plan.capacity),
        "reverse", 4 * plan.max_ticks,
    )
    unanswered = [
        pid for pid in range(partition.num_parts)
        if pid not in reverse.results
    ]
    if unanswered:
        raise RuntimeError(
            f"reversal left parts without a result: {unanswered[:5]}"
        )
    replayed = run(
        replay(forest, reverse.results, capacity=plan.capacity),
        "replay", 4 * plan.max_ticks,
    )
    reached, members = replayed.reached(), sum(map(len, partition.members))
    if reached != members:
        raise RuntimeError(
            f"replay reached {reached} of {members} part members"
        )
    if learning and route is not None:
        route.delays = plan.delays
        route.forests = {plan.use_array: forest}
    outcome = PAWaveResult(
        aggregates=dict(reverse.results),
        value_at_node=replayed.value_at_node(),
        wire_edges=wire.edges if learning else None,
        forest_edges=forest.edges,
    )
    note_route(phase_prefix, outcome)
    return outcome
