"""Rooted forests: the structural backbone of every algorithm here.

Spanning BFS trees (the ``T`` of tree-restricted shortcuts), sub-part
spanning trees, part spanning trees and Boruvka fragments are all instances
of :class:`RootedForest`: a parent-pointer forest over (a subset of) the
network's nodes, where every parent edge is a real network edge.

The forest is *node-local knowledge*: node ``v`` knows its parent, its
children and its depth — exactly what the distributed constructions below
establish — so engine programs may read ``forest.parent[v]`` inside
``on_node`` without cheating.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..congest.network import Network

#: ``parent`` value for a root node.
ROOT = -1
#: ``parent`` value for a node not in the forest.
ABSENT = -2


class ForestPlan:
    """The array form of one :class:`RootedForest`, derived once.

    Everything the schedule-precomputed kernels of
    :mod:`repro.core.array_kernels` need and that depends only on the
    (immutable) parent pointers, so that a kernel built per phase costs
    its own data and nothing of the forest's: the level structure, the
    convergecast send ticks and fire orders, and each node's root.
    Read it through :attr:`RootedForest.plan`.

    Attributes
    ----------
    parent, depth:
        The forest's ``parent`` / ``depth`` as int64 arrays.
    order:
        ``RootedForest.order`` (BFS from the roots) as an array.
    by_level, level_starts:
        Non-root members sorted by ``(depth, node)``; level ``d >= 1`` is
        ``by_level[level_starts[d - 1]:level_starts[d]]``.  Node-ascending
        within a level is the scalar engine's activation order.
    levels:
        ``(nodes, parents)`` per level ``1..height``, slices of the above.
    root_of:
        Root of each member's tree; a non-member maps to itself, as
        :meth:`RootedForest.root_of` always did.
    senders, sender_parents, send_groups:
        Convergecast schedule: non-root members sorted by ``(send tick,
        node)`` where a node's send tick is its subtree height; tick
        ``t``'s senders are ``senders[send_groups[t]:send_groups[t + 1]]``.
    root_fire:
        Roots in the order their aggregates complete: ``(subtree height,
        node)`` — the scalar convergecast's ``at_root`` insertion order.
    """

    __slots__ = (
        "parent", "depth", "order", "by_level", "level_starts", "levels",
        "root_of", "senders", "sender_parents", "send_groups", "root_fire",
        "_send_tick",
    )

    def __init__(
        self, parent: np.ndarray, depth: np.ndarray, order: np.ndarray
    ) -> None:
        below = np.flatnonzero(parent >= 0)
        self._index(
            parent, depth, order,
            below[np.argsort(depth[below], kind="stable")],
        )
        root_of = np.arange(parent.size, dtype=np.int64)
        for nodes, parents in self.levels:
            root_of[nodes] = root_of[parents]
        send_tick = np.zeros(parent.size, dtype=np.int64)
        for nodes, parents in reversed(self.levels):
            np.maximum.at(send_tick, parents, send_tick[nodes] + 1)
        # ``below`` is node-ascending, so a stable sort by tick leaves each
        # tick's senders ascending: the order the scalar nodes fire in.
        roots = np.flatnonzero(parent == ROOT)
        self._schedule(
            root_of, send_tick,
            below[np.argsort(send_tick[below], kind="stable")],
            roots[np.argsort(send_tick[roots], kind="stable")],
        )

    def _index(self, parent, depth, order, by_level) -> None:
        self.parent = parent
        self.depth = depth
        self.order = order
        self.by_level = by_level
        height = int(depth[by_level[-1]]) if by_level.size else 0
        self.level_starts = np.searchsorted(
            depth[by_level], np.arange(1, height + 2)
        )
        self.levels: List[Tuple[np.ndarray, np.ndarray]] = []
        lo = 0
        for hi in self.level_starts[1:].tolist():
            nodes = by_level[lo:hi]
            self.levels.append((nodes, parent[nodes]))
            lo = hi

    def _schedule(self, root_of, send_tick, senders, root_fire) -> None:
        self.root_of = root_of
        self._send_tick = send_tick
        self.senders = senders
        self.sender_parents = self.parent[senders]
        self.send_groups = np.searchsorted(
            send_tick[senders], np.arange(len(self.levels) + 2)
        )
        self.root_fire = root_fire

    def restrict(self, keep: np.ndarray) -> "ForestPlan":
        """The plan of the trees whose members ``keep`` marks.

        Every tree is kept or dropped whole, so depths, subtree heights
        and every order above survive as they are: each array is this
        plan's, filtered — nothing is sorted or folded again.
        """
        plan = ForestPlan.__new__(ForestPlan)
        plan._index(
            np.where(keep, self.parent, ABSENT),
            np.where(keep, self.depth, -1),
            self.order[keep[self.order]],
            self.by_level[keep[self.by_level]],
        )
        plan._schedule(
            np.where(keep, self.root_of, np.arange(keep.size)),
            self._send_tick,
            self.senders[keep[self.senders]],
            self.root_fire[keep[self.root_fire]],
        )
        return plan


def _group_children(parent: np.ndarray) -> Tuple[np.ndarray, ...]:
    """``(grouped, starts, counts)``: every non-root member, grouped by its
    parent — node ``p``'s children are ``grouped[starts[p]:][:counts[p]]``,
    ascending (the members are, and the sort by parent is stable).
    """
    children = np.flatnonzero(parent >= 0)
    grouped = children[np.argsort(parent[children], kind="stable")]
    counts = np.bincount(parent[children], minlength=parent.size)
    starts = np.zeros(parent.size, dtype=np.int64)
    np.cumsum(counts[:-1], out=starts[1:])
    return grouped, starts, counts


class RootedForest:
    """A forest of rooted trees whose edges are network edges.

    Attributes
    ----------
    parent:
        ``parent[v]`` is v's parent node, :data:`ROOT` for roots, and
        :data:`ABSENT` for nodes outside the forest.
    children:
        ``children[v]`` is the tuple of v's children, ascending (empty for
        leaves and absent nodes); built on first read.
    depth:
        Hop distance to the tree root (0 for roots, -1 for absent nodes).
    roots:
        Tuple of root nodes, sorted.
    """

    def __init__(self, net: Network, parent: Sequence[int]) -> None:
        if len(parent) != net.n:
            raise ValueError("parent array must cover all nodes")
        self.net = net
        self.parent: Tuple[int, ...] = tuple(parent)

        n = net.n
        parr = np.asarray(self.parent, dtype=np.int64)
        child_nodes = np.flatnonzero(parr >= 0)
        cparents = parr[child_nodes]
        # Every parent edge is a network edge: one lookup of the directed
        # keys in the network's sorted key table.
        table = net.array_views.edge_keys
        keys = child_nodes * n + cparents
        pos = table.searchsorted(keys)
        edge = (cparents < n) & (pos < table.size)
        edge[edge] = table[pos[edge]] == keys[edge]
        if not edge.all():
            v = int(child_nodes[np.argmin(edge)])
            raise ValueError(
                f"forest parent edge ({v}, {self.parent[v]}) is not a network edge"
            )
        self.roots: Tuple[int, ...] = tuple(np.flatnonzero(parr == ROOT).tolist())

        self._grouped = grouped, starts, counts = _group_children(parr)

        # Level-synchronous BFS from the roots; each level expands in parent
        # order with children ascending, matching the scalar FIFO order.
        depth = np.full(n, -1, dtype=np.int64)
        order_parts: List[np.ndarray] = []
        cur = np.asarray(self.roots, dtype=np.int64)
        level = 0
        while cur.size:
            depth[cur] = level
            order_parts.append(cur)
            cc = counts[cur]
            total = int(cc.sum())
            if total == 0:
                break
            offsets = np.concatenate(
                ([0], np.cumsum(cc)[:-1])
            )
            within = np.arange(total, dtype=np.int64) - np.repeat(offsets, cc)
            cur = grouped[np.repeat(starts[cur], cc) + within]
            level += 1
        order = (
            np.concatenate(order_parts) if order_parts
            else np.empty(0, dtype=np.int64)
        )
        if order.size != int((parr != ABSENT).sum()):
            raise ValueError("parent pointers contain a cycle")
        self._columns = (parr, depth, order)
        self._plan: Optional[ForestPlan] = None
        self._root_list: Optional[List[int]] = None
        # The forest is immutable, so its height is fixed at construction
        # (the BFS order visits deepest nodes last).
        self._height: int = level if order.size else 0

    # The tuple views of the columns and the child lists, built on first
    # read (a forest made by :meth:`restrict` is often only ever run on
    # the array path).
    @cached_property
    def depth(self) -> Tuple[int, ...]:
        return tuple(self._columns[1].tolist())

    @cached_property
    def order(self) -> Tuple[int, ...]:
        """Topological (BFS) order from the roots: parents precede children."""
        return tuple(self._columns[2].tolist())

    @cached_property
    def parent(self) -> Tuple[int, ...]:
        return tuple(self._columns[0].tolist())

    @cached_property
    def children(self) -> Tuple[Tuple[int, ...], ...]:
        grouped, starts, counts = (
            self._grouped or _group_children(self._columns[0])
        )
        grouped_list = grouped.tolist()
        return tuple(
            tuple(grouped_list[s:s + c])
            for s, c in zip(starts.tolist(), counts.tolist())
        )

    def restrict(self, roots: Iterable[int]) -> "RootedForest":
        """The trees of this forest rooted at ``roots``; every other node
        is absent.

        Its plan is this forest's, filtered (:meth:`ForestPlan.restrict`):
        a phase run over some of the trees costs no search, sort or check
        that running it over all of them did not.
        """
        plan = self.plan
        keep = np.zeros(self.net.n, dtype=bool)
        keep[np.fromiter(roots, dtype=np.int64)] = True
        keep = keep[plan.root_of] & (plan.parent != ABSENT)
        sub = plan.restrict(keep)
        forest = RootedForest.__new__(RootedForest)
        forest.net = self.net
        forest.roots = tuple(np.flatnonzero(sub.parent == ROOT).tolist())
        forest._grouped = None
        forest._columns = (sub.parent, sub.depth, sub.order)
        forest._plan = sub
        forest._root_list = None
        forest._height = len(sub.levels)
        return forest

    # ------------------------------------------------------------------
    def member(self, v: int) -> bool:
        """True iff ``v`` belongs to the forest."""
        return self.parent[v] != ABSENT

    def members(self) -> Iterable[int]:
        """All forest nodes, parents before children."""
        return self.order

    def size(self) -> int:
        """Number of nodes in the forest."""
        return len(self.order)

    def height(self) -> int:
        """Maximum depth over all forest nodes (0 for a single root)."""
        return self._height

    @property
    def plan(self) -> ForestPlan:
        """This forest's :class:`ForestPlan`, computed on first use.

        One plan per forest object: the forest is immutable, so the plan
        is never invalidated, and it is never shared with another forest.
        """
        if self._plan is None:
            self._plan = ForestPlan(*self._columns)
        return self._plan

    def root_of(self, v: int) -> int:
        """Root of the tree containing ``v`` (``v`` itself outside the forest)."""
        if self._root_list is None:
            self._root_list = self.plan.root_of.tolist()
        return self._root_list[v]

    def subtree_nodes(self, v: int) -> List[int]:
        """All nodes in v's subtree (oracle-side)."""
        out = [v]
        head = 0
        while head < len(out):
            u = out[head]
            head += 1
            out.extend(self.children[u])
        return out

    def tree_edges(self) -> List[Tuple[int, int]]:
        """All (child, parent) edges of the forest."""
        return [
            (v, p) for v, p in enumerate(self.parent) if p >= 0
        ]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RootedForest(trees={len(self.roots)}, nodes={self.size()},"
            f" height={self.height()})"
        )
