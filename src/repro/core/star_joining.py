"""The merge step above PA: pick, decode, star-join (Definition 6.1, Algorithm 5).

The paper's corollaries repeat one move: every cluster picks an outgoing
edge with a ``MIN`` aggregation (:func:`outgoing_picks` is the per-node
input, :func:`chosen_edges` decodes the per-cluster answer), symmetry is
broken, clusters merge.  The symmetry breaker is a star joining: it
designates some participating super-nodes as *receivers* and others
(whose chosen edge points at a receiver) as *joiners*, so that joiners
merge into receivers in a star pattern — no joiner is the target of a
joiner, which bounds the diameter growth of merged structures.

Two ways to find one.  :func:`rank_joins` is the randomized one every
Boruvka-style loop shares (MST, CDS, the GHS comparator): under one public
seed a cluster's rank is a keyed hash of ``(seed, round, cluster uid)``,
and a cluster joins its target exactly when the target is a local maximum
— above the cluster itself and above the target's own target — which one
round over the chosen edges tells it.  Every cluster joins with
probability >= 1/3 and one of every mutual pair with certainty, so
O(log n) rounds suffice w.h.p.  Algorithm 5 (:func:`compute_star_joining`)
computes one deterministically: super-nodes with in-degree >= 2 become
receivers immediately; the residual functional graph (paths and cycles)
is 3-colored with Cole-Vishkin, and the three color classes are resolved
in turn.

The algorithm is generic over *how* super-nodes communicate: in
Algorithm 6 a super-node is a sub-part (communication via its O(D)-depth
spanning tree), in Algorithm 9 a super-node is a coarsening part
(communication via full PA).  :class:`SuperOps` is the one implementation
of the pushes over either transport: :func:`TreeSuperOps` here,
:func:`~repro.core.no_leader.PASuperOps` for PA.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..congest.arrays import PayloadColumns, tag_payloads
from ..congest.engine import Engine
from ..congest.ledger import CostLedger
from ..congest.message import ceil_log2
from ..congest.network import Network
from ..congest.schedule import _mix
from ..obs.tracer import current_tracer
from .aggregation import Aggregation, MIN, SUM
from .cole_vishkin import cv_iterations_needed, cv_step, shift_down_step
from .treeops import cross_round, run_broadcast, run_convergecast
from .trees import RootedForest

#: A chosen super-edge: (u, v) with u in the source super-node, v in the
#: target super-node, plus the target's super-node id.
SuperEdge = Tuple[int, int, int]


def outgoing_picks(
    net: Network,
    comp: Sequence[int],
    weighted: bool = False,
    sources: Optional[Sequence[bool]] = None,
    within: Optional[Sequence[int]] = None,
    announced: Optional[Sequence[int]] = None,
) -> PayloadColumns:
    """Per node, its least edge out of its cluster (``None``: no such edge).

    ``comp`` labels the clusters.  Node ``v`` offers the minimum over its
    neighbours ``nb`` in another cluster of ``(uid_v, uid_nb)`` — of
    ``(weight, uid_v, uid_nb)`` when ``weighted``, Boruvka's minimum-weight
    outgoing edge — so a PA ``MIN_TUPLE`` over the result hands every
    cluster one outgoing edge (:func:`chosen_edges` decodes it).
    ``sources`` masks the nodes that offer anything (k-dominating's
    still-growing clusters); ``within`` keeps an edge only if its ends
    share a label (Algorithm 9 stays inside the input part).  With
    ``announced`` — per node, the cluster id it told its neighbours — a
    candidate gains a last column, ``announced[nb]``: it never decides the
    minimum (the uid pair before it names the edge), and it is how every
    member of a cluster learns *which* cluster its pick points at
    (:func:`rank_joins`).

    One lexsort over the network's CSR slots, by node and then by the
    candidate tuple itself: the head of each node's run wins.  The picks
    stay the columns they were chosen from (reading back as the list of
    tuples), which the PA value store folds as they are.
    """
    views = net.array_views
    labels = np.asarray(comp, dtype=np.int64)
    keep = labels[views.src_of_slot] != labels[views.adj]
    if within is not None:
        inside = np.asarray(within, dtype=np.int64)
        keep &= inside[views.src_of_slot] == inside[views.adj]
    if sources is not None:
        keep &= np.asarray(sources, dtype=bool)[views.src_of_slot]
    slots = np.flatnonzero(keep)
    src = views.src_of_slot[slots]
    # A slot's candidate, as columns in tuple order.
    columns = [views.uid[src], views.uid[views.adj[slots]]]
    if weighted:
        columns.insert(0, net.slot_weights[slots])
    if announced is not None:
        columns.append(np.asarray(announced, dtype=np.int64)[views.adj[slots]])
    order = np.lexsort((*columns[::-1], src))
    best = order[np.flatnonzero(np.diff(src[order], prepend=-1))]
    return PayloadColumns([col[best] for col in columns]).scatter(
        net.n, src[best]
    )


def chosen_edges(
    net: Network,
    part_of: Sequence[int],
    aggregates: Dict[int, object],
    announced: bool = False,
) -> Dict[int, SuperEdge]:
    """Decode the clusters' picks: ``{sid: (u, v, target sid)}``.

    ``aggregates`` is the per-cluster minimum of :func:`outgoing_picks`
    (its last two entries are ``(uid_u, uid_v)``, ahead of the target's
    id when the picks were made with ``announced``); a cluster whose
    aggregate is ``None`` has no outgoing edge and gets no entry.
    ``part_of`` maps a node to its cluster's super-node id.
    """
    at = -3 if announced else -2
    chosen: Dict[int, SuperEdge] = {}
    for sid, pick in aggregates.items():
        if pick is not None:
            u, v = net.node_of_uid(pick[at]), net.node_of_uid(pick[at + 1])
            chosen[sid] = (u, v, part_of[v])
    return chosen


#: On the wire of a target exchange: "my cluster picked no edge" (cluster
#: ids are uids, which are never negative).
NO_PICK = -1


def rank_join(seed: int, round_no: int, own: int, target: int, beyond: int) -> bool:
    """Does cluster ``own``, whose pick runs ``own -> target -> beyond``, join?

    The three are cluster ids (uids; ``beyond`` is :data:`NO_PICK` when the
    target picked nothing).  A cluster's rank is ``_mix(seed, round_no,
    id)``, ties to the id, and ``own`` joins exactly when ``target``
    outranks both its neighbours on the path — a receiver is a local
    maximum against its own target, hence never a joiner, whatever cycles
    the pick graph has; on a mutual pair ``beyond == own`` and exactly one
    of the two joins.  A target that picked nothing has nothing to outrank
    there.
    """
    def rank(cluster: int) -> Tuple[int, int]:
        return _mix(seed, round_no, cluster), cluster

    return rank(own) < rank(target) and (
        beyond == NO_PICK or rank(beyond) < rank(target)
    )


def spread_seed(
    engine: Engine, tree: RootedForest, ledger: CostLedger, loop: str, seed: int
) -> Dict[int, int]:
    """The public seed of a run's star joinings, as each node heard it.

    The root of the spanning tree ``tree`` draws O(log n) bits from
    ``seed`` and broadcasts them once (``{loop}_seed``: depth rounds, n - 1
    messages); every :func:`rank_joins` round of the run reads the result.
    A node the broadcast did not reach (a lost hop) has no entry.
    """
    bits = 4 * ceil_log2(engine.network.n)
    drawn = random.Random(seed).getrandbits(bits)
    return run_broadcast(
        engine, tree, {tree.roots[0]: drawn}, ledger, name=f"{loop}_seed"
    ).received


def note_merge_round(
    loop: str, round_no: int, clusters: int, picks: int, joins: int
) -> None:
    """One ``merge.round`` trace instant: what a merging loop's round did."""
    tracer = current_tracer()
    if tracer.enabled:
        tracer.instant("merge.round", "merge", {
            "loop": loop, "round": round_no, "clusters": clusters,
            "picks": picks, "joins": joins,
        })


def rank_joins(
    engine: Engine,
    ledger: CostLedger,
    loop: str,
    round_no: int,
    seed_at: Dict[int, int],
    announced: Sequence[int],
    heard_pick: Sequence[Optional[Tuple[int, ...]]],
    chosen: Dict[int, SuperEdge],
) -> Dict[int, SuperEdge]:
    """One star-joining round by rank: the join edge of every joiner.

    Everything the decision reads is node-local and was delivered: node
    ``v`` holds the public seed ``seed_at[v]`` (:func:`spread_seed`; no
    entry: the broadcast never reached it), its own cluster's id
    ``announced[v]`` and the pick its cluster's aggregation handed it,
    ``heard_pick[v]`` (made with ``outgoing_picks(announced=...)``, so its
    last column is the target's id; ``None``: the cluster picked nothing).  One cross round over the
    chosen edges, both ways (``{loop}_target_exchange`` — like the coin
    exchange it replaces, request and answer share the round), tells the
    source ``u`` of each chosen edge ``(u, v)`` the id ``v``'s cluster
    points at, and ``u`` applies :func:`rank_join` to what it *received*.
    A source that holds no seed, or whose answer was lost, does not join
    this round: staying put is always safe, since nobody joins a cluster
    that its own rule lets join.
    """
    def target_heard_at(node: int) -> int:
        pick = heard_pick[node]
        return NO_PICK if pick is None else pick[-1]

    sends = {
        (a, b): (a, b, ("tgt", target_heard_at(a)))
        for u, v, _t in chosen.values()
        for a, b in ((u, v), (v, u))
    }
    received = cross_round(
        engine, list(sends.values()), ledger, name=f"{loop}_target_exchange"
    ).received

    joins: Dict[int, SuperEdge] = {}
    # Where every cluster picked, the pick graph has a cycle in each
    # component, and the top-ranked cluster of a cycle receives its
    # predecessor: only a lost message then leaves a round without a join.
    certain = bool(chosen)
    for sid, edge in chosen.items():
        u, v, _t = edge
        answer = dict(received.get(u, ())).get(v)
        if answer is None or u not in seed_at:
            certain = False
            continue
        beyond = answer[1]
        certain &= beyond != NO_PICK
        if rank_join(
            seed_at[u], round_no, announced[u], target_heard_at(u), beyond
        ):
            joins[sid] = edge
    assert joins or not certain, "a star-joining round joined nobody"
    return joins


@dataclass
class SuperOps:
    """Pushes over a super-graph of node groups with one chosen edge each.

    For the super-nodes with chosen edges:

    * :meth:`push_up` — each source sends a value over its chosen edge; the
      *target* super-node's leader receives the aggregate of incoming
      values (used for in-degree counting and for predecessor colors in
      the shift-down steps);
    * :meth:`push_down` — each target super-node publishes a value; each
      *source* super-node's leader learns its target's value (used for
      receiver notification and successor colors in Cole-Vishkin).

    Whatever a super-node is, a push is the same three metered steps: the
    publishing leaders' values *spread* to their members, one round across
    the publishers' chosen edges (or their reversals), and what arrived is
    *gathered* at the leaders.  The transport supplies the first and the
    last: ``spread(value_of, at)`` is what each node of the array ``at``
    heard from its super-node's leader, given ``{sid: value}``, and
    ``gather(values, agg, listeners)`` the ``{sid: aggregate}`` of per-node
    values at the super-nodes ``listeners`` (``None``: every one) — over
    sub-part trees (:func:`TreeSuperOps`) or by PA solves
    (:func:`~repro.core.no_leader.PASuperOps`).  ``leaders`` maps every
    super-node id to its leader node.
    """

    engine: Engine
    net: Network
    leaders: Dict[int, int]
    spread: Callable[[Dict[int, object], np.ndarray], Sequence[object]]
    gather: Callable[
        [Sequence[object], Aggregation, Optional[Set[int]]], Dict[int, object]
    ]
    chosen: Dict[int, SuperEdge]
    ledger: CostLedger
    prefix: str

    def __post_init__(self) -> None:
        # The cross edges of a push, as (publishing sid, src, dst) columns:
        # up along the chosen edges, down along their reversals (known to
        # the targets once the requests are announced).
        ends = np.array(
            [(u, v) for u, v, _t in self.chosen.values()], dtype=np.int64
        ).reshape(-1, 2)
        self._up = (list(self.chosen), ends[:, 0], ends[:, 1])
        self._down: Optional[Tuple[List[int], np.ndarray, np.ndarray]] = None

    def initial_color(self, sid: int) -> int:
        """Distinct O(log n)-bit starting color (the leader's uid)."""
        return self.net.uid[self.leaders[sid]]

    def announce_requests(self) -> None:
        """Record in-edge knowledge: targets learn who points at them."""
        sids, src, dst = self._up
        requests = PayloadColumns([np.asarray(sids, dtype=np.int64)], tag="jreq")
        u, v, delivered = cross_round(
            self.engine, (src, dst, requests), self.ledger,
            name=f"{self.prefix}_announce",
        ).delivered
        # A request names its source, whose target is the super-node it reached.
        targets = [self.chosen[sid][2] for sid in delivered.cols[0].tolist()]
        self._down = (targets, v, u)

    # -- pushes --------------------------------------------------------
    def _push(
        self,
        value_of: Dict[int, object],
        tag: str,
        agg: Aggregation,
        listeners: Optional[Set[int]] = None,
    ) -> Dict[int, object]:
        """Spread ``value_of`` inside its super-nodes, send what the source
        of each publishing super-node's edge (``tag`` "up") or reversed
        edge ("down") then holds across it, and gather what arrived at the
        super-nodes ``listeners`` (``None``: every one).
        """
        if tag == "down" and self._down is None:
            self.announce_requests()
        sids, src, dst = self._up if tag == "up" else self._down
        publishing = np.fromiter(
            map(value_of.__contains__, sids), dtype=bool, count=len(sids)
        )
        if not publishing.all():
            src, dst = src[publishing], dst[publishing]
        heard = self.spread(value_of, src)
        if not isinstance(heard, PayloadColumns) or heard.present is not None:
            # A source its leader's value did not reach (a fault plan
            # dropped it on the way) has nothing to send.
            kept = [i for i, value in enumerate(heard) if value is not None]
            src, dst, heard = src[kept], dst[kept], [heard[i] for i in kept]
        cross = cross_round(
            self.engine, (src, dst, tag_payloads(tag, heard)),
            self.ledger, name=f"{self.prefix}_cross_{tag}",
        )
        at_leader = self.gather(cross.merged(agg, self.net.n), agg, listeners)
        return {sid: val for sid, val in at_leader.items() if val is not None}

    def push_up(self, value_of: Dict[int, object], agg: Aggregation) -> Dict[int, object]:
        return self._push(value_of, "up", agg)

    def push_down(self, value_of: Dict[int, object]) -> Dict[int, object]:
        return self._push(value_of, "down", MIN)


def compute_star_joining(
    ops: SuperOps, participants: Set[int]
) -> Tuple[Set[int], Dict[int, SuperEdge]]:
    """Algorithm 5: returns (receivers, join edge per joiner).

    ``participants`` are the super-nodes that want to merge; each must have
    a chosen edge in ``ops.chosen``.  Targets outside ``participants``
    (e.g. already-complete sub-parts) are receivers by default.  Every
    participant ends up either a receiver or a joiner.

    A super-node speaks only when a listener lacks what it says: only a
    fresh receiver publishes its status, only an undecided super-node its
    color, and after the in-degree count (which every super-node hears,
    picked or not) a push gathers only at the super-nodes still undecided.
    Every decision reads what arrived: a super-node has a successor in the
    residual chains exactly when a color came down its chosen edge.
    """
    edges = ops.chosen

    # Line 3: in-degree >= 2 (among participants) makes a receiver, and so
    # does being picked at all by a participant when not one yourself.
    indeg = ops.push_up(dict.fromkeys(participants, 1), SUM)
    receivers: Set[int] = {
        sid for sid, count in indeg.items()
        if count >= 2 or sid not in participants
    }
    joins: Dict[int, SuperEdge] = {}

    def absorb(undecided: Set[int], fresh: Set[int]) -> Set[int]:
        """Undecided super-nodes pointing at a fresh receiver join it (lines
        4 and 9); the rest of ``undecided`` is returned.  A fresh receiver's
        members hear its status in the spread, so the others gather.
        """
        listeners = undecided - fresh
        heard = ops._push(dict.fromkeys(fresh, 1), "down", MIN, listeners)
        joiners = {sid for sid in listeners if sid in heard}
        joins.update((sid, edges[sid]) for sid in joiners)
        return listeners - joiners

    residual = absorb(set(participants), receivers)

    # Lines 6-9: the residual functional graph has in/out degree <= 1;
    # 3-color it with Cole-Vishkin and resolve the color classes in turn.
    if residual:
        colors = {sid: ops.initial_color(sid) for sid in residual}

        def neighbor_colors(tag: str) -> Dict[int, object]:
            return ops._push(colors, tag, MIN, residual)

        for _ in range(cv_iterations_needed(max(colors.values()))):
            succ_colors = neighbor_colors("down")
            colors = {
                sid: cv_step(color, succ_colors.get(sid))
                for sid, color in colors.items()
            }
        for high in (5, 4, 3):
            succ_colors = neighbor_colors("down")
            pred_colors = neighbor_colors("up")
            colors = {
                sid: shift_down_step(
                    color, pred_colors.get(sid), succ_colors.get(sid), high
                )
                for sid, color in colors.items()
            }

        for k in (0, 1, 2):
            fresh = {sid for sid in residual if colors[sid] == k}
            receivers |= fresh
            residual = absorb(residual, fresh)
            if not residual:
                break

    if residual:
        raise AssertionError("star joining left unresolved super-nodes")
    return receivers, joins


def TreeSuperOps(
    engine: Engine,
    net: Network,
    forest: RootedForest,
    chosen: Dict[int, SuperEdge],
    ledger: CostLedger,
    phase_prefix: str = "star",
) -> SuperOps:
    """:class:`SuperOps` over sub-part spanning trees (Algorithm 6).

    Super-nodes are the trees of ``forest``, led by their roots: a spread
    is a broadcast in the publishers' trees, a gather a convergecast in the
    listeners' (:meth:`~repro.core.trees.RootedForest.restrict`).
    """
    trees: Dict[Optional[FrozenSet[int]], RootedForest] = {None: forest}

    def spread(value_of: Dict[int, object], at: np.ndarray) -> Sequence[object]:
        return run_broadcast(
            engine, forest, value_of, ledger, name=f"{phase_prefix}_broadcast",
        ).received_at(at)

    def gather(
        values: Sequence[object], agg: Aggregation,
        listeners: Optional[Set[int]],
    ) -> Dict[int, object]:
        key = None if listeners is None else frozenset(listeners)
        if key not in trees:
            trees[key] = forest.restrict(key)
        return run_convergecast(
            engine, trees[key], agg, values,
            ledger, name=f"{phase_prefix}_convergecast",
        ).at_root

    leaders = dict(zip(forest.roots, forest.roots))
    return SuperOps(
        engine, net, leaders, spread, gather, chosen, ledger, phase_prefix
    )
