"""Decomposition oracles for structured graph families (Tables 1-2).

The family-specific shortcut constructions of Appendix C all start from a
*decomposition* of the input graph:

* **BFS layerings** for planar / bounded-genus graphs (the layers of the
  spanning BFS tree are what the tree-restricted construction climbs);
* **tree decompositions** for bounded-treewidth families (k-trees,
  series-parallel graphs);
* **path decompositions** for bounded-pathwidth families (ladders,
  caterpillars).

These are *oracle-side* computations: a real deployment would compute them
distributively (the paper cites standard O~(D)-round constructions), so the
providers charge their structural cost to the ledger via
``CostLedger.charge_local`` rather than running them message-by-message.
What keeps them honest is the **validity certificate**: every decomposition
object carries a ``validate(net)`` method checking the defining invariants
(edges covered, bags connected, widths consistent), and the providers and
tests run it.

Widths computed here are upper bounds produced by deterministic greedy
heuristics — exact for the families the benchmarks use (min-degree
elimination is exact on k-trees and on treewidth-<=2 graphs; the double-BFS
linear order is within a small constant on ladders and caterpillars) but
not in general; ``width`` is always the width actually achieved, and the
certificate guarantees it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..congest.network import Network


class DecompositionError(ValueError):
    """A decomposition violates one of its defining invariants."""


# ----------------------------------------------------------------------
# BFS layerings (planar / genus families)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BFSLayering:
    """Nodes bucketed by BFS depth from ``root``.

    The certificate (checked by :meth:`validate`) is the defining property
    the planar construction relies on: every edge connects nodes whose
    layers differ by at most one, and every non-root node has a neighbor
    one layer up (its BFS parent).
    """

    root: int
    layer: Tuple[int, ...]

    def validate(self, net: Network) -> None:
        if len(self.layer) != net.n:
            raise DecompositionError("layering must cover all nodes")
        if self.layer[self.root] != 0:
            raise DecompositionError("root must be in layer 0")
        if any(l < 0 for l in self.layer):
            raise DecompositionError("layering requires a connected graph")
        for u, v in net.edges:
            if abs(self.layer[u] - self.layer[v]) > 1:
                raise DecompositionError(
                    f"edge ({u}, {v}) spans layers {self.layer[u]}"
                    f" and {self.layer[v]}"
                )
        for v in range(net.n):
            if v == self.root:
                continue
            if not any(
                self.layer[nb] == self.layer[v] - 1 for nb in net.neighbors[v]
            ):
                raise DecompositionError(f"node {v} has no parent layer neighbor")


def bfs_layering(net: Network, root: int) -> BFSLayering:
    """The BFS layering of ``net`` from ``root`` (O(m))."""
    return BFSLayering(root=root, layer=tuple(net.bfs_depths(root)))


# ----------------------------------------------------------------------
# Tree decompositions (treewidth families)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TreeDecomposition:
    """A tree decomposition: bags plus a parent-pointer tree over them.

    ``bags[i]`` is the i-th bag (a frozenset of nodes); ``parent[i]`` is
    the index of its parent bag (-1 for the root bag).  ``width`` is the
    achieved width, max bag size minus one.
    """

    bags: Tuple[FrozenSet[int], ...]
    parent: Tuple[int, ...]
    width: int

    def validate(self, net: Network) -> None:
        """Check the three tree-decomposition axioms plus width consistency."""
        if self.width != max((len(b) for b in self.bags), default=1) - 1:
            raise DecompositionError("recorded width disagrees with the bags")
        bags_of: List[List[int]] = [[] for _ in range(net.n)]
        for i, bag in enumerate(self.bags):
            for v in bag:
                if not 0 <= v < net.n:
                    raise DecompositionError(f"bag {i} holds unknown node {v}")
                bags_of[v].append(i)
        for v in range(net.n):
            if not bags_of[v]:
                raise DecompositionError(f"node {v} appears in no bag")
        for u, v in net.edges:
            if not any(v in self.bags[i] for i in bags_of[u]):
                raise DecompositionError(f"edge ({u}, {v}) is in no bag")
        # Bags containing v must induce a connected subtree: #bags minus
        # #tree-edges between them equals 1 exactly when connected.
        for v in range(net.n):
            ids = set(bags_of[v])
            links = sum(
                1 for i in ids if self.parent[i] >= 0 and self.parent[i] in ids
            )
            if len(ids) - links != 1:
                raise DecompositionError(
                    f"bags containing node {v} do not form a subtree"
                )


def tree_decomposition(net: Network) -> TreeDecomposition:
    """Greedy min-degree elimination tree decomposition (deterministic).

    Classic elimination-game construction: repeatedly eliminate a node of
    minimum current degree (ties by node id), bag = the node plus its
    current neighbors, fill in the neighbors into a clique, and hang the
    bag off the bag of its earliest-eliminated neighbor.  Exact on k-trees
    (every minimum-degree node of a k-tree is simplicial) and on
    treewidth-<=2 graphs (degree-<=2 reduction); an upper bound elsewhere.
    O(n * w^2 + m) for achieved width w.
    """
    import heapq

    n = net.n
    adj: List[set] = [set(net.neighbors[v]) for v in range(n)]
    heap: List[Tuple[int, int]] = [(len(adj[v]), v) for v in range(n)]
    heapq.heapify(heap)
    eliminated = [False] * n
    elim_index = [-1] * n
    order: List[int] = []
    bag_nbrs: List[List[int]] = []
    bags: List[FrozenSet[int]] = []
    while heap:
        d, v = heapq.heappop(heap)
        if eliminated[v] or d != len(adj[v]):
            continue  # stale heap entry
        eliminated[v] = True
        elim_index[v] = len(order)
        order.append(v)
        nbrs = sorted(adj[v])
        bags.append(frozenset([v, *nbrs]))
        bag_nbrs.append(nbrs)
        for i, a in enumerate(nbrs):
            adj[a].discard(v)
            for b in nbrs[i + 1:]:
                if b not in adj[a]:
                    adj[a].add(b)
                    adj[b].add(a)
        for a in nbrs:
            heapq.heappush(heap, (len(adj[a]), a))
    parent = [
        min((elim_index[u] for u in nbrs), default=-1)
        if nbrs else -1
        for nbrs in bag_nbrs
    ]
    width = max((len(b) for b in bags), default=1) - 1
    return TreeDecomposition(bags=tuple(bags), parent=tuple(parent), width=width)


# ----------------------------------------------------------------------
# Path decompositions (pathwidth families)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PathDecomposition:
    """A path decomposition: one bag per position of a linear node order.

    Built from a linear order via the vertex-separation construction:
    node ``u`` lives in bags ``pos[u] .. last_pos[u]`` where ``last_pos``
    is the last position at which ``u`` or one of its neighbors is placed.
    Each node therefore occupies a *contiguous interval* of bags — the
    path-decomposition connectivity axiom holds by construction — and the
    certificate re-checks it along with edge coverage.
    """

    order: Tuple[int, ...]
    bags: Tuple[FrozenSet[int], ...]
    width: int

    def validate(self, net: Network) -> None:
        if self.width != max((len(b) for b in self.bags), default=1) - 1:
            raise DecompositionError("recorded width disagrees with the bags")
        if sorted(self.order) != list(range(net.n)):
            raise DecompositionError("order must be a permutation of the nodes")
        first = [-1] * net.n
        last = [-1] * net.n
        for i, bag in enumerate(self.bags):
            for v in bag:
                if first[v] < 0:
                    first[v] = i
                last[v] = i
        for v in range(net.n):
            if first[v] < 0:
                raise DecompositionError(f"node {v} appears in no bag")
            for i in range(first[v], last[v] + 1):
                if v not in self.bags[i]:
                    raise DecompositionError(
                        f"bags containing node {v} are not contiguous"
                    )
        for u, v in net.edges:
            if not any(u in bag and v in bag for bag in self.bags):
                raise DecompositionError(f"edge ({u}, {v}) is in no bag")


def _bfs_order(net: Network, root: int) -> List[int]:
    """Deterministic BFS visit order from ``root``."""
    order = [root]
    seen = bytearray(net.n)
    seen[root] = 1
    head = 0
    while head < len(order):
        u = order[head]
        head += 1
        for v in net.neighbors[u]:
            if not seen[v]:
                seen[v] = 1
                order.append(v)
    return order


def path_decomposition(
    net: Network,
    order: Optional[Sequence[int]] = None,
    width_guard: Optional[int] = None,
) -> PathDecomposition:
    """Path decomposition from a linear order (default: double-BFS order).

    Without an explicit ``order`` the classic diameter heuristic is used:
    BFS from node 0 to find a far endpoint, then the BFS visit order from
    that endpoint.  On path-like graphs (ladders, caterpillars) this order
    has vertex separation within a small constant of the pathwidth.

    ``width_guard`` aborts (``DecompositionError``) if any bag exceeds
    ``width_guard + 1`` nodes — protection against accidentally feeding a
    wide graph, where the bag lists grow to Theta(n * width).
    """
    if order is None:
        depths = net.bfs_depths(0)
        endpoint = max(range(net.n), key=lambda v: (depths[v], -v))
        order = _bfs_order(net, endpoint)
    order = list(order)
    if sorted(order) != list(range(net.n)):
        raise DecompositionError("order must be a permutation of the nodes")
    pos = [0] * net.n
    for i, v in enumerate(order):
        pos[v] = i
    last_pos = [
        max(pos[v], max((pos[nb] for nb in net.neighbors[v]), default=pos[v]))
        for v in range(net.n)
    ]
    drop_at: Dict[int, List[int]] = {}
    for v in range(net.n):
        drop_at.setdefault(last_pos[v], []).append(v)
    bags: List[FrozenSet[int]] = []
    active: set = set()
    for i, v in enumerate(order):
        active.add(v)
        if width_guard is not None and len(active) > width_guard + 1:
            raise DecompositionError(
                f"bag {i} exceeds the width guard {width_guard}"
            )
        bags.append(frozenset(active))
        for u in drop_at.get(i, ()):
            active.discard(u)
    width = max((len(b) for b in bags), default=1) - 1
    return PathDecomposition(order=tuple(order), bags=tuple(bags), width=width)

