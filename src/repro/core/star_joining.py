"""Star joinings (Definition 6.1, Algorithm 5).

A star joining designates a constant fraction of participating super-nodes
as *receivers* and the rest (those whose chosen edge points at a receiver)
as *joiners*, so that joiners can merge into receivers in a star pattern —
bounding the diameter growth of merged structures.  Algorithm 5 computes
one deterministically: super-nodes with in-degree >= 2 become receivers
immediately; the residual functional graph (paths and cycles) is 3-colored
with Cole-Vishkin, and the three color classes are resolved in turn.

The algorithm is generic over *how* super-nodes communicate: in
Algorithm 6 a super-node is a sub-part (communication via its O(D)-depth
spanning tree), in Algorithm 9 a super-node is a coarsening part
(communication via full PA).  :class:`SuperOps` is that interface; the
tree-based implementation lives here, the PA-based one in
:mod:`repro.core.no_leader`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..congest.arrays import PayloadColumns, tag_payloads
from ..congest.engine import Engine
from ..congest.ledger import CostLedger
from ..congest.network import Network
from .aggregation import Aggregation, MIN, SUM
from .cole_vishkin import cv_iterations_needed, cv_step, shift_down_step
from .treeops import cross_round, run_broadcast, run_convergecast
from .trees import RootedForest

#: A chosen super-edge: (u, v) with u in the source super-node, v in the
#: target super-node, plus the target's super-node id.
SuperEdge = Tuple[int, int, int]


class SuperOps:
    """Communication primitives over a super-graph of node groups.

    Implementations must provide, for the super-nodes with chosen edges:

    * :meth:`push_up` — each source sends a value over its chosen edge; the
      *target* super-node's leader receives the aggregate of incoming
      values (used for in-degree counting);
    * :meth:`push_down` — each target super-node publishes a value; each
      *source* super-node's leader learns its target's value (used for
      receiver notification and successor colors in Cole-Vishkin);
    * :meth:`push_pred` — symmetric to push_down: each source publishes,
      each target's leader learns the aggregate of its predecessors'
      values (used for predecessor colors in the shift-down steps).
    """

    def edges(self) -> Dict[int, SuperEdge]:
        """Chosen edge per participating super-node id."""
        raise NotImplementedError

    def all_supernodes(self) -> Sequence[int]:
        raise NotImplementedError

    def push_up(self, value_of: Dict[int, object], agg: Aggregation) -> Dict[int, object]:
        raise NotImplementedError

    def push_down(self, value_of: Dict[int, object]) -> Dict[int, object]:
        raise NotImplementedError

    def push_pred(self, value_of: Dict[int, object], agg: Aggregation) -> Dict[int, object]:
        raise NotImplementedError

    def initial_color(self, sid: int) -> int:
        """Distinct O(log n)-bit starting color (the leader's uid)."""
        raise NotImplementedError


def compute_star_joining(
    ops: SuperOps, participants: Set[int]
) -> Tuple[Set[int], Dict[int, SuperEdge]]:
    """Algorithm 5: returns (receivers, join edge per joiner).

    ``participants`` are the super-nodes that want to merge; each must have
    a chosen edge in ``ops.edges()``.  Targets outside ``participants``
    (e.g. already-complete sub-parts) are receivers by default.  Every
    participant ends up either a receiver or a joiner.
    """
    edges = ops.edges()
    target_of = {sid: edges[sid][2] for sid in participants}

    # Line 3: in-degree >= 2 (among participants) makes a receiver; any
    # non-participant target is a receiver outright.
    indeg = ops.push_up({sid: 1 for sid in participants}, SUM)
    receivers: Set[int] = {
        sid for sid, count in indeg.items() if count is not None and count >= 2
    }
    receivers.update(
        target for target in target_of.values() if target not in participants
    )

    joins: Dict[int, SuperEdge] = {}
    supernodes = ops.all_supernodes()

    def absorb_joiners(residual: Set[int]) -> Set[int]:
        """Participants pointing at a receiver become joiners (line 4/9)."""
        status = dict.fromkeys(supernodes, 0)
        status.update(dict.fromkeys(receivers & status.keys(), 1))
        target_status = ops.push_down(status)
        new_joiners = {
            sid
            for sid in residual
            if sid not in receivers and target_status.get(sid) == 1
        }
        for sid in new_joiners:
            joins[sid] = edges[sid]
        return residual - new_joiners - receivers

    residual = absorb_joiners(set(participants))

    # Lines 6-9: the residual functional graph has in/out degree <= 1;
    # 3-color it with Cole-Vishkin and resolve the color classes in turn.
    if residual:
        colors = {sid: ops.initial_color(sid) for sid in residual}
        has_successor = {sid: target_of[sid] in residual for sid in residual}
        # Every super-node publishes each step (-1 outside the residual),
        # but only the residual's colors ever change.
        published = dict.fromkeys(supernodes, -1)

        def successor_colors() -> Dict[int, object]:
            published.update(colors)
            succ = ops.push_down(published)
            return {
                sid: succ.get(sid) if live else None
                for sid, live in has_successor.items()
            }

        for _ in range(cv_iterations_needed(max(colors.values()))):
            succ_colors = successor_colors()
            colors = {
                sid: cv_step(color, succ_colors[sid])
                for sid, color in colors.items()
            }
        for high in (5, 4, 3):
            succ_colors = successor_colors()
            pred_colors = ops.push_pred(colors, MIN)
            colors = {
                sid: shift_down_step(
                    color, pred_colors.get(sid), succ_colors[sid], high
                )
                for sid, color in colors.items()
            }

        for k in (0, 1, 2):
            receivers.update(sid for sid in residual if colors[sid] == k)
            residual = absorb_joiners(residual)
            if not residual:
                break

    if residual:
        raise AssertionError("star joining left unresolved super-nodes")
    return receivers, joins


class TreeSuperOps(SuperOps):
    """Super-node communication over sub-part spanning trees (Algorithm 6).

    Super-nodes are tree roots of ``forest``; every push is implemented as
    broadcast-down / one cross round / convergecast-up, all metered.  The
    in-edge knowledge required by push_down/push_pred (which member holds
    an edge from a predecessor) is recorded when the caller runs
    :meth:`announce_requests`.
    """

    def __init__(
        self,
        engine: Engine,
        net: Network,
        forest: RootedForest,
        chosen: Dict[int, SuperEdge],
        ledger: CostLedger,
        phase_prefix: str = "star",
    ) -> None:
        self.engine = engine
        self.net = net
        self.forest = forest
        self.chosen = chosen
        self.ledger = ledger
        self.prefix = phase_prefix
        # The cross edges of a push, as (publishing sid, src, dst) columns:
        # up along the chosen edges, down along their reversals (known to
        # the targets once the requests are announced).
        ends = np.array(
            [(u, v) for u, v, _t in chosen.values()], dtype=np.int64
        ).reshape(-1, 2)
        self._up = (list(chosen), ends[:, 0], ends[:, 1])
        self._down: Optional[Tuple[List[int], np.ndarray, np.ndarray]] = None

    # -- plumbing ------------------------------------------------------
    def edges(self) -> Dict[int, SuperEdge]:
        return self.chosen

    def all_supernodes(self) -> Sequence[int]:
        return self.forest.roots

    def initial_color(self, sid: int) -> int:
        return self.net.uid[sid]

    def announce_requests(self) -> None:
        """Record in-edge knowledge: targets learn who points at them."""
        sids, src, dst = self._up
        requests = PayloadColumns([np.asarray(sids, dtype=np.int64)], tag="jreq")
        u, v, _sid = cross_round(
            self.engine, (src, dst, requests), self.ledger,
            name=f"{self.prefix}_announce",
        ).delivered
        self._down = (self.forest.plan.root_of[v].tolist(), v, u)

    # -- pushes --------------------------------------------------------
    def _push(
        self,
        value_of: Dict[int, object],
        edges: Tuple[List[int], np.ndarray, np.ndarray],
        tag: str,
        agg: Aggregation,
    ) -> Dict[int, object]:
        """Broadcast ``value_of`` down the trees, send what the source of
        each publishing super-node's edge then holds across it, and
        convergecast what arrived.
        """
        sids, src, dst = edges
        publishing = np.fromiter(
            map(value_of.__contains__, sids), dtype=bool, count=len(sids)
        )
        if not publishing.all():
            src, dst = src[publishing], dst[publishing]
        heard = run_broadcast(
            self.engine, self.forest,
            {sid: value_of[sid] for sid in self.forest.roots if sid in value_of},
            self.ledger, name=f"{self.prefix}_broadcast",
        ).received_at(src)
        cross = cross_round(
            self.engine, (src, dst, tag_payloads(tag, heard)),
            self.ledger, name=f"{self.prefix}_cross_{tag}",
        )
        at_root = run_convergecast(
            self.engine, self.forest, agg, cross.merged(agg, self.net.n),
            self.ledger, name=f"{self.prefix}_convergecast",
        ).at_root
        return {sid: val for sid, val in at_root.items() if val is not None}

    def push_up(self, value_of: Dict[int, object], agg: Aggregation) -> Dict[int, object]:
        return self._push(value_of, self._up, "up", agg)

    def push_down(self, value_of: Dict[int, object]) -> Dict[int, object]:
        if self._down is None:
            self.announce_requests()
        return self._push(value_of, self._down, "down", MIN)

    def push_pred(self, value_of: Dict[int, object], agg: Aggregation) -> Dict[int, object]:
        return self.push_up(value_of, agg)
