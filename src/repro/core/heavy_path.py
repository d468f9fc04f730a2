"""Distributed heavy path decomposition (Definition 6.5, [39]).

The deterministic shortcut construction processes the BFS tree ``T`` as a
collection of *heavy paths*: maximal chains in which every node is its
parent's largest-subtree child.  Any leaf-to-root path crosses at most
``log2 n`` light edges, which is what bounds Algorithm 8's bottom-up waves.

We use the argmax convention (each internal node's heavy child is its
largest-subtree child, ties to smaller uid) rather than Definition 6.5's
strict-majority test; both give the log2 n light-edge bound, and argmax
additionally guarantees every internal node lies on a non-trivial chain,
which simplifies the position numbering.

Everything is computed distributively, in five metered phases:

1. subtree sizes convergecast, with parents learning per-child sizes;
2. one round of heavy/light notifications down every tree edge;
3. a bottom-up chain scan numbering path positions (1 = path bottom);
4. a top-down chain scan distributing the path id (the top's uid);
5. a convergecast of *light ranks* — ``lrank(v) = max over children c of
   lrank(c) + [edge (c, v) is light]`` — whose value at a path top is the
   index of the bottom-up wave in which Algorithm 8 activates the path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..congest.arrays import PayloadColumns
from ..congest.engine import Context, Engine, Inbox, Program
from ..congest.ledger import CostLedger
from ..congest.network import Network
from .treeops import cross_round
from .trees import RootedForest


@dataclass
class HeavyPathDecomposition:
    """Node-local heavy path knowledge.

    ``heavy_child[v]`` — v's heavy child (-1 for leaves);
    ``on_heavy_parent_edge[v]`` — True iff v's parent edge is heavy;
    ``position[v]`` — 1-based position from the bottom of v's path;
    ``path_id[v]`` — the uid of v's path top;
    ``path_top[v]`` / ``path_bottom[v]`` — chain end flags;
    ``rank[v]`` — the activation wave index of v's path in Algorithm 8;
    ``path_length[v]`` — number of nodes on v's path.
    """

    heavy_child: List[int]
    on_heavy_parent_edge: List[bool]
    position: List[int]
    path_id: List[int]
    path_top: List[bool]
    path_bottom: List[bool]
    rank: List[int]
    path_length: List[int]

    def paths_by_rank(self) -> Dict[int, List[int]]:
        """Map wave rank -> list of path-top nodes (orchestrator view)."""
        out: Dict[int, List[int]] = {}
        for v, is_top in enumerate(self.path_top):
            if is_top:
                out.setdefault(self.rank[v], []).append(v)
        return out


class _PerChildConvergecast(Program):
    """Convergecast where each parent records every child's reported value.

    Used twice: subtree sizes (combine = sum) and light ranks
    (combine = max with +1 on light edges).
    """

    name = "per_child_convergecast"

    def __init__(self, tree: RootedForest, kind: str,
                 light_edge: Optional[Sequence[bool]] = None) -> None:
        self.tree = tree
        self.kind = kind
        self.light_edge = light_edge  # only for "lrank": per-node, True if
        # the node's parent edge is light
        n = tree.net.n
        self.child_values: List[Dict[int, int]] = [dict() for _ in range(n)]
        self.value: List[int] = [0] * n
        self._pending: List[int] = [0] * n

    def _combined(self, v: int) -> int:
        if self.kind == "size":
            return 1 + sum(self.child_values[v].values())
        best = 0
        for c, val in self.child_values[v].items():
            bump = 1 if (self.light_edge is not None and self.light_edge[c]) else 0
            best = max(best, val + bump)
        return best

    def _fire(self, ctx: Context, v: int) -> None:
        self.value[v] = self._combined(v)
        parent = self.tree.parent[v]
        if parent >= 0:
            ctx.send(v, parent, ("cv", self.value[v]))

    def on_start(self, ctx: Context) -> None:
        for v in self.tree.members():
            self._pending[v] = len(self.tree.children[v])
            if self._pending[v] == 0:
                self._fire(ctx, v)

    def on_node(self, ctx: Context, node: int, inbox: Inbox) -> None:
        for sender, payload in inbox:
            _tag, value = payload
            self.child_values[node][sender] = value
            self._pending[node] -= 1
        if self._pending[node] == 0:
            self._pending[node] = -1
            self._fire(ctx, node)


class _ChainScanProgram(Program):
    """Pipelined scans along heavy chains (positions up, ids down).

    Phase "up": bottoms start with position 1; each node, upon learning its
    position, tells its path parent position + 1.  Tops then switch to
    phase "down": (path id = top uid, path length, rank) travel back down.
    Both directions in one program; O(max chain length) rounds, O(n)
    messages each way.
    """

    name = "heavy_chain_scan"

    def __init__(
        self,
        tree: RootedForest,
        heavy_child: Sequence[int],
        is_heavy: Sequence[bool],
        rank_at_top: Dict[int, int],
    ) -> None:
        self.tree = tree
        self.net = tree.net
        self.heavy_child = heavy_child
        self.is_heavy = is_heavy  # per node: parent edge heavy?
        self.rank_at_top = rank_at_top
        n = tree.net.n
        self.position: List[int] = [0] * n
        self.path_id: List[int] = [0] * n
        self.path_length: List[int] = [0] * n
        self.rank: List[int] = [0] * n

    def _is_top(self, v: int) -> bool:
        return self.tree.parent[v] < 0 or not self.is_heavy[v]

    def _is_bottom(self, v: int) -> bool:
        return self.heavy_child[v] < 0

    def _at_position(self, ctx: Context, v: int, pos: int) -> None:
        self.position[v] = pos
        if self._is_top(v):
            info = (
                "dn", self.net.uid[v], pos, self.rank_at_top.get(v, 0)
            )
            self._descend(ctx, v, info)
        else:
            ctx.send(v, self.tree.parent[v], ("up", pos + 1))

    def _descend(self, ctx: Context, v: int, info: Tuple) -> None:
        _tag, path_uid, length, rank = info
        self.path_id[v] = path_uid
        self.path_length[v] = length
        self.rank[v] = rank
        child = self.heavy_child[v]
        if child >= 0:
            ctx.send(v, child, info)

    def on_start(self, ctx: Context) -> None:
        for v in self.tree.members():
            if self._is_bottom(v):
                self._at_position(ctx, v, 1)

    def on_node(self, ctx: Context, node: int, inbox: Inbox) -> None:
        for _sender, payload in inbox:
            if payload[0] == "up":
                self._at_position(ctx, node, payload[1])
            else:
                self._descend(ctx, node, payload)


def build_heavy_path_decomposition(
    engine: Engine,
    tree: RootedForest,
    ledger: CostLedger,
) -> HeavyPathDecomposition:
    """Run all five phases; returns the node-local decomposition."""
    net = tree.net
    n = net.n
    depth_budget = tree.height() + 4

    sizes = _PerChildConvergecast(tree, kind="size")
    sizes.name = "heavy_sizes"
    ledger.charge(engine.run(sizes, max_ticks=depth_budget))

    heavy_child = [-1] * n
    for v in tree.members():
        best = None
        for c in tree.children[v]:
            key = (-sizes.child_values[v][c], net.uid[c])
            if best is None or key < best[0]:
                best = (key, c)
        if best is not None:
            heavy_child[v] = best[1]

    # One round: every parent tells each child whether its edge is heavy.
    # (BFS order lists the children parent by parent, each group ascending.)
    parent = np.asarray(tree.parent, dtype=np.int64)
    child = np.asarray(tree.order, dtype=np.int64)
    child = child[parent[child] >= 0]
    flags = np.asarray(heavy_child, dtype=np.int64)[parent[child]] == child
    _src, heard_by, heard = cross_round(
        engine,
        (parent[child], child,
         PayloadColumns([flags.astype(np.int64)], (True,), tag="hv")),
        ledger, name="heavy_notify",
    ).delivered
    heavy = np.zeros(n, dtype=bool)
    heavy[heard_by] = heard.cols[0]
    is_heavy = heavy.tolist()

    light_edge = [
        tree.parent[v] >= 0 and not is_heavy[v] for v in range(n)
    ]
    lrank = _PerChildConvergecast(tree, kind="lrank", light_edge=light_edge)
    lrank.name = "heavy_lrank"
    ledger.charge(engine.run(lrank, max_ticks=depth_budget))

    rank_at_top = {
        v: lrank.value[v]
        for v in tree.members()
        if tree.parent[v] < 0 or not is_heavy[v]
    }

    scan = _ChainScanProgram(tree, heavy_child, is_heavy, rank_at_top)
    ledger.charge(engine.run(scan, max_ticks=2 * depth_budget + 4))

    return HeavyPathDecomposition(
        heavy_child=heavy_child,
        on_heavy_parent_edge=list(is_heavy),
        position=scan.position,
        path_id=scan.path_id,
        path_top=[tree.parent[v] < 0 or not is_heavy[v] for v in range(n)],
        path_bottom=[heavy_child[v] < 0 for v in range(n)],
        rank=scan.rank,
        path_length=scan.path_length,
    )
