"""The PA wave: Algorithm 1 in event-driven form.

Algorithm 1 broadcasts a token ``m_i`` from each part leader to every node
of the part, alternating BlockRoute steps over shortcut blocks with
intra-sub-part broadcasts and boundary crossings, then computes ``f(P_i)``
"symmetrically" and broadcasts the result.  We implement it as four
passes, each a single engine phase over *all parts concurrently*, run by
the kernels of :mod:`repro.core.array_wave` (reference twins:
``tests/twins.py``); a solve runs three of them (the wave, the reversal
and the replay) or one (the all-reduce):

1. The wave (:class:`~repro.core.array_wave.WaveArrayKernel`) — the token
   broadcast.  Five message kinds:

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

2. The reversal (:class:`~repro.core.array_wave.ReverseArrayKernel`) —
   the aggregation.  The broadcast recorded, per (node, part), every wave
   message sent and received and the *wave parent* (first token source):
   its route, a :class:`WaveIndex`.  Reversal answers every recorded wave
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

3. The replay (:class:`~repro.core.array_wave.ReplayArrayKernel`) — the
   result broadcast: the leader's aggregate retraces the wave forest
   (below), one message per non-leader key.

4. The all-reduce (:class:`~repro.core.array_wave.AllReduceArrayKernel`)
   — aggregation and result in one pass on the wave forest, for a solve
   on a route learned earlier.  f is commutative and associative
   (Definition 1.1), so no node needs the leader's answer: each key sends
   each forest neighbor one message, once it has heard from all the
   others, and every key ends holding the total.

**The cost rule: a setup learns its route once.**  Who sends to whom in a
wave is a function of the setup and the delay draw, not of the values
(Lemma 4.4's "symmetrically"), and a CONGEST node keeps what it learned.
What a node remembers of the first solve on a setup, per part it served:
its wave parent, and which of the wave edges it sent on were answered
under the child tag — those are the edges on which it *is* the wave
parent, and the answer's tag is all it takes to tell them from the rest (a
non-parent answer is ``None`` under the other tag; same
``TAG_BITS``).  Those edges are the *wave forest*: one in-edge per
non-leader key, ``#keys - #parts`` edges in all.  A node holds that fact as
soon as the reversal's answers are in, so nothing after the reversal pays
for the wire again: the first solve on a setup runs broadcast and reversal
over the wire record and the replay on the forest — two wire passes and
one forest pass (one wire broadcast and one wire reversal is what a
setup's first solve must keep paying; Lemma 4.4's third pass only ever
needed the tree the first two built) — and when it has returned the setup
keeps the forest (:class:`RouteMemo`, one :class:`WaveIndex`); every later
solve on that setup runs no token wave — one all-reduce on the forest: ``2
(#keys - #parts)`` messages, the reversal's and the replay's together, in
diam(T) ticks of the forest T instead of the 2 height(T) of a convergecast
to the leader and a broadcast back.  A candidate verification inside a
build (Algorithm 2) is such a first solve: it learns into a fresh memo
that rides on the candidate's annotations, and the build returns its last
candidate edge for edge, so the setup over that division and shortcut
adopts the memo (:class:`~repro.core.pa.PASetup`) and its first solve is
already the all-reduce.  A setup pays at most one token wave, in its
build's last verification or in its first solve.  The one place that
decides is :func:`run_planned_waves`.

Each pass has its completeness check there: the broadcast its coverage
scan (every member holds the token), the reversal and the all-reduce
their parts left without a result, and the replay and the all-reduce —
which run on an edge set the scan never validated — the count of members
left holding the aggregate against the members there are.  All raise
``RuntimeError``; under the recovery driver that is an attempt that died.
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..congest.arrays import int_bits_array
from ..congest.engine import Engine
from ..congest.ledger import CostLedger
from ..congest.message import TAG_BITS, TUPLE_OVERHEAD_BITS, ceil_log2
from ..congest.network import Network
from ..graphs.partitions import Partition
from ..obs.tracer import current_tracer
from .aggregation import Aggregation
from .array_queue import first_occurrence_mask, sorted_unique
from .blocks import BlockAnnotations
from .shortcuts import Shortcut
from .subparts import SubPartDivision
from .treeops import build_phase

if TYPE_CHECKING:  # array_wave imports this module
    from .array_wave import FoldLayout

_EMPTY = np.empty(0, dtype=np.int64)


def pid_bits(num_parts: int) -> np.ndarray:
    """Per part, the bits of a ``(tag, pid, ...)`` wave packet before its
    last component."""
    return TUPLE_OVERHEAD_BITS + TAG_BITS + int_bits_array(
        np.arange(num_parts, dtype=np.int64)
    )


class WaveIndex:
    """A setup's route: what the broadcast learned, for the passes after it.

    Key id ``k`` is the rank of
    ``keys[k] == node[k] * stride + part[k]`` among every key that sent,
    received or led — the canonical sorted ``(node, part)`` order.
    ``parent[k]`` is the key's wave parent node, the sender of its first
    arrival (-1: a leader key, the root of its part's wave tree);
    ``out_dst[out_starts[k]:][:out_counts[k]]`` are the destinations of
    the messages key ``k`` sent, in send order; ``fan_kid`` / ``fan_src``
    are the non-parent in-edges reversal answers ``None`` at once
    (receiving key id and sender node, in key order, arrival order within
    a key).  Beside the edges, the few columns the passes need of the
    setup: ``part_of``, the ``reached`` mask, ``leaders``, ``pid_bits``.

    A broadcast hands over its rows: ``(sender key, destination)`` per
    message sent, ``(receiver key, sender)`` per message received, each in
    the order it sent or received them, and the parts whose leader
    started.  Built from them it is the *wire* record; :meth:`forest`
    filters it to the wave forest — the same object with fewer edges, and
    reversal and replay run unchanged on either; the all-reduce reads a
    forest's :meth:`neighbors`, derived once per route.
    """

    __slots__ = (
        "n", "stride", "part_of", "reached", "leaders", "pid_bits",
        "keys", "node", "part", "parent", "out_starts", "out_counts",
        "out_dst", "fan_kid", "fan_src", "_neighbors",
    )

    def __init__(
        self,
        part_of: Sequence[int],
        leaders: Sequence[int],
        started: np.ndarray,
        reached: np.ndarray,
        out_key: Sequence[int],
        out_dst: Sequence[int],
        in_key: Sequence[int],
        in_src: Sequence[int],
    ) -> None:
        part_of, leaders, out_key, out_dst, in_key, in_src = (
            np.asarray(col, dtype=np.int64).reshape(-1) for col in
            (part_of, leaders, out_key, out_dst, in_key, in_src)
        )
        self.n = part_of.size
        P = self.stride = np.int64(max(1, leaders.size))
        self.part_of = part_of
        self.reached = reached
        self.leaders = leaders
        self.pid_bits = pid_bits(leaders.size)
        leader_key = (
            leaders * P + np.arange(leaders.size, dtype=np.int64)
        )[started]
        self.keys = sorted_unique(
            np.concatenate((out_key, in_key, leader_key))
        )
        self.node = self.keys // P
        self.part = self.keys % P
        # The wave parent is the sender of a key's first arrival; a leader
        # key has none, whatever reached it before its delayed start.
        self.parent = np.full(self.keys.size, -1, dtype=np.int64)
        first = first_occurrence_mask(in_key)
        self.parent[self.ids(in_key[first])] = in_src[first]
        self.parent[self.ids(leader_key)] = -1
        self._set_out(self.ids(out_key), out_dst)
        # Every in-edge but a key's parent edge — its first arrival,
        # unless it is a leader key.
        kid = self.ids(in_key)
        order = np.argsort(kid, kind="stable")
        kid = kid[order]
        fan = ~(first_occurrence_mask(kid) & (self.parent[kid] >= 0))
        self.fan_kid = kid[fan]
        self.fan_src = in_src[order[fan]]

    def _set_out(self, sender: np.ndarray, dst: np.ndarray) -> None:
        """The out-edge CSR of ``(sender key id, destination)`` rows."""
        self.out_counts = np.bincount(sender, minlength=self.keys.size)
        self.out_starts = np.cumsum(self.out_counts) - self.out_counts
        self.out_dst = dst[np.argsort(sender, kind="stable")]
        self._neighbors = None

    def neighbors(self) -> Tuple[np.ndarray, ...]:
        """Each key's route neighbors as key ids, its parent's first and
        then its out-edges': ``(counts, starts, flat)`` of a CSR, and per
        key the sum of its neighbors' ids.  Derived once per route."""
        if self._neighbors is None:
            K = self.keys.size
            up = np.flatnonzero(self.parent >= 0)
            counts = self.out_counts.copy()
            counts[up] += 1
            starts = np.cumsum(counts) - counts
            child_of = np.repeat(np.arange(K, dtype=np.int64), self.out_counts)
            parent = self.ids(self.parent[up] * self.stride + self.part[up])
            child = self.ids(self.out_dst * self.stride + self.part[child_of])
            flat = np.empty(int(counts.sum()), dtype=np.int64)
            flat[starts[up]] = parent
            # A child's slot: its out-edge slot, shifted past the parent
            # slots opened ahead of it.
            flat[
                np.arange(child_of.size)
                + (starts + counts - self.out_counts - self.out_starts)[
                    child_of
                ]
            ] = child
            total = np.bincount(
                child_of, weights=child, minlength=K
            ).astype(np.int64)
            total[up] += parent
            self._neighbors = (counts, starts, flat, total)
        return self._neighbors

    def ids(self, keys: np.ndarray) -> np.ndarray:
        """Key ids of recorded ``keys``."""
        return np.searchsorted(self.keys, keys)

    def live(self) -> np.ndarray:
        """Per key, whether it is a part member's own key the token
        reached: the keys that start from their node's value."""
        return (self.part_of[self.node] == self.part) & self.reached[
            self.node
        ]

    @property
    def edges(self) -> int:
        """Messages one pass over this route sends."""
        return int(self.out_dst.size)

    def forest(self) -> "WaveIndex":
        """The route filtered to the wave forest.

        Of the messages a key sent, the first per destination whose
        ``(destination, part)`` key has the sender as its wave parent
        stays, in send order — one in-edge per non-leader key — and no
        in-edge is left to answer ``None``.
        """
        kept = copy.copy(self)
        sender = np.repeat(
            np.arange(self.keys.size, dtype=np.int64), self.out_counts
        )
        child = self.ids(self.out_dst * self.stride + self.part[sender])
        own = self.parent[child] == self.node[sender]
        own[own] = first_occurrence_mask(child[own])
        kept._set_out(sender[own], self.out_dst[own])
        kept.fan_kid = kept.fan_src = _EMPTY
        return kept


@dataclass
class RouteMemo:
    """What a setup's nodes remember of its first solve (one per setup;
    the verification that accepted a build's shortcut, when it ran one).

    ``delays`` is the fact the ledger knows: the delay draw under which
    the setup's token wave was paid for, ``None`` until a solve that ran
    it has *returned* (a solve that raised after its wave commits
    nothing, so its retry pays the wave again).  ``forest`` is this
    process's cache of that wave's forest:
    whoever lacks it — a shard worker after a local learn or a re-ship,
    rank 0 after a sharded learn — re-derives it from the setup and
    ``delays`` off the ledger.
    """

    delays: Optional[Dict[int, int]] = None
    forest: Optional[WaveIndex] = None


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
    (computed from the *global* n/b/c/depth), the leader tokens, and the
    value store's :class:`~repro.core.array_wave.FoldLayout` (``fold``):
    per factor of the aggregation, int64 columns or a list folded with the
    factor's own merge — evaluated on the *global* values, because a
    restriction of the values could pass the int64-overflow check where
    the full set does not.  The sharded backend ships one plan to every
    worker, restricted per shard, so all shards run under the exact
    parameters the serial pass would have used.
    """

    capacity: int
    rounds_per_tick: int
    delays: Dict[int, int]
    max_ticks: int
    leader_tokens: Dict[int, object]
    fold: FoldLayout


def plan_pa_waves(
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

    from .array_wave import reverse_fold

    return WavePlan(
        capacity=capacity,
        rounds_per_tick=rounds_per_tick,
        delays=delays,
        max_ticks=max_ticks,
        leader_tokens=leader_tokens,
        fold=reverse_fold(values, agg, phase=f"{phase_prefix}_reverse"),
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
        net, partition, division, shortcut, values, agg,
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
    one all-reduce on the remembered forest (re-derived off the ledger,
    under the paid delay draw, where this process does not hold it).
    ``plan.delays`` goes unused then; it was still drawn, so every later
    draw on the solver's rng is the one it always was.  Either way every
    part must have a result and the last pass must reach every part
    member, or the solve raises.

    The plan's parameters (including the value store's layout) are
    honored as given: this is the entry point sharded workers use, with a
    plan computed once on the orchestrator from the global structures and
    restricted per shard.
    """
    from .array_wave import wave_kernels

    broadcast, reversal, replay, allreduce = wave_kernels(plan.fold)

    def run(name: str, max_ticks: int, kernel, *args, charge: bool = True,
            **kwargs):
        program = build_phase(
            f"{phase_prefix}_{name}", kernel, *args,
            capacity=plan.capacity, **kwargs,
        )
        stats = engine.run(
            program, max_ticks=max_ticks, capacity=plan.capacity,
            rounds_per_tick=plan.rounds_per_tick,
        )
        if charge:
            ledger.charge(stats)
        return program

    def token_wave(delays: Dict[int, int], charge: bool):
        wave = run(
            "wave", plan.max_ticks, broadcast, net, partition, division,
            shortcut, annotations, plan.leader_tokens, delays=delays,
            charge=charge,
        )
        for pid, members in enumerate(partition.members):
            missing = [v for v in members if not wave.has_token[v]]
            if missing:
                raise RuntimeError(
                    f"wave failed to cover part {pid}: missing {missing[:5]}"
                )
        return wave.route()

    def check_results(results, name: str) -> None:
        unanswered = [
            pid for pid in range(partition.num_parts) if pid not in results
        ]
        if unanswered:
            raise RuntimeError(
                f"{name} left parts without a result: {unanswered[:5]}"
            )

    learning = route is None or route.delays is None
    if learning:
        wire = token_wave(plan.delays, charge=True)
        forest = wire.forest()
        reverse = run(
            "reverse", 4 * plan.max_ticks, reversal, wire, agg, values
        )
        check_results(reverse.results, "reversal")
        results = reverse.results
        final = run("replay", 4 * plan.max_ticks, replay, forest, results)
    else:
        forest = route.forest
        if forest is None:
            forest = route.forest = token_wave(
                route.delays, charge=False
            ).forest()
        final = run(
            "allreduce", 4 * plan.max_ticks, allreduce, forest, agg, values
        )
        results = dict(sorted(final.results.items()))
        check_results(results, "all-reduce")
    reached, members = final.reached(), sum(map(len, partition.members))
    if reached != members:
        raise RuntimeError(
            f"{final.name} reached {reached} of {members} part members"
        )
    if learning and route is not None:
        route.delays = plan.delays
        route.forest = forest
    outcome = PAWaveResult(
        aggregates=dict(results),
        value_at_node=final.value_at_node(),
        wire_edges=wire.edges if learning else None,
        forest_edges=forest.edges,
    )
    note_route(phase_prefix, outcome)
    return outcome
