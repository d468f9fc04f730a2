"""Test-side oracles and fixtures: what only the tests call.

The package ships one implementation of each thing a workload runs; the
sequential references the tests compare it against, and the small graph
and partition fixtures they build, live here beside the tests.  Import
with ``from oracles import ...``: pytest puts ``tests/``, the directory
of the suite's root conftest, on ``sys.path``.
"""

from __future__ import annotations

import math
import random
from collections import defaultdict
from typing import Dict, Iterable, List, Sequence, Set, Tuple

from repro.congest import Network
from repro.congest.errors import ShortcutValidationError
from repro.core import ABSENT, ROOT, RootedForest, Shortcut, SubPartDivision
from repro.graphs import Partition

_UID_SEED = 0x5EED  # the shipped generators' default


# ----------------------------------------------------------------------
# Graph fixtures
# ----------------------------------------------------------------------
def cycle_graph(n: int, uid_seed: int = _UID_SEED) -> Network:
    """A cycle on ``n >= 3`` nodes."""
    if n < 3:
        raise ValueError("cycle needs at least three nodes")
    edges = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    return Network(edges, n=n, uid_seed=uid_seed)


def star_graph(n: int, uid_seed: int = _UID_SEED) -> Network:
    """A star: node 0 is the hub, 1..n-1 are leaves."""
    if n < 2:
        raise ValueError("star needs at least two nodes")
    return Network([(0, i) for i in range(1, n)], n=n, uid_seed=uid_seed)


def complete_graph(n: int, uid_seed: int = _UID_SEED) -> Network:
    """The complete graph K_n."""
    if n < 2:
        raise ValueError("complete graph needs at least two nodes")
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return Network(edges, n=n, uid_seed=uid_seed)


def random_tree(n: int, seed: int = 7, uid_seed: int = _UID_SEED) -> Network:
    """A random labeled tree: node v attaches to a uniform earlier node."""
    if n < 1:
        raise ValueError("tree needs at least one node")
    rng = random.Random(seed)
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    return Network(edges, n=n, uid_seed=uid_seed)


def balanced_binary_tree(depth: int, uid_seed: int = _UID_SEED) -> Network:
    """A complete binary tree of the given depth (root = node 0)."""
    n = 2 ** (depth + 1) - 1
    edges = [((v - 1) // 2, v) for v in range(1, n)]
    return Network(edges, n=n, uid_seed=uid_seed)


def random_planar(
    n: int, seed: int = 7, hole_prob: float = 0.25, uid_seed: int = _UID_SEED
) -> Network:
    """A triangulated grid with random holes (planar, connected, exact n).

    A near-square grid skeleton on exactly ``n`` nodes (last row possibly
    partial) is kept intact — that guarantees connectivity — and every
    complete grid cell is triangulated by one diagonal of random
    orientation with probability ``1 - hole_prob``; cells left without a
    diagonal are the holes.  Planar by construction (m <= 3n - 6), the
    irregular planar fixture next to the regular ``grid_2d``.
    """
    if n < 4:
        raise ValueError("random planar graph needs at least four nodes")
    if not 0.0 <= hole_prob <= 1.0:
        raise ValueError("hole probability must be in [0, 1]")
    rng = random.Random(seed)
    cols = max(2, math.isqrt(n))
    rows = (n + cols - 1) // cols
    edges = []
    for v in range(n):
        if v % cols + 1 < cols and v + 1 < n:
            edges.append((v, v + 1))
        if v + cols < n:
            edges.append((v, v + cols))
    for r in range(rows - 1):
        for c in range(cols - 1):
            v = r * cols + c
            if v + cols + 1 >= n:
                continue  # incomplete cell in the partial last row
            if rng.random() < hole_prob:
                continue  # this cell is a hole
            if rng.random() < 0.5:
                edges.append((v, v + cols + 1))
            else:
                edges.append((v + 1, v + cols))
    return Network(edges, n=n, uid_seed=uid_seed)


def euler_planar_bound(net: Network) -> bool:
    """Euler's necessary condition for a planar simple graph: m <= 3n - 6."""
    return net.n < 3 or net.m <= 3 * net.n - 6


def connected_components(net: Network, edge_subset=None) -> List[int]:
    """Component label per node (the minimum node index inside), over
    ``edge_subset`` when given (a subgraph on the same node set)."""
    if edge_subset is None:
        adjacency = net.neighbors
    else:
        adjacency = [[] for _ in range(net.n)]
        for u, v in edge_subset:
            adjacency[u].append(v)
            adjacency[v].append(u)
    label = [-1] * net.n
    for start in range(net.n):
        if label[start] != -1:
            continue
        stack = [start]
        label[start] = start
        while stack:
            u = stack.pop()
            for v in adjacency[u]:
                if label[v] == -1:
                    label[v] = start
                    stack.append(v)
    return label


# ----------------------------------------------------------------------
# Partitions, forests and divisions
# ----------------------------------------------------------------------
def singleton_partition(net: Network) -> Partition:
    """Every node is its own part."""
    return Partition(list(range(net.n)))


def whole_graph_partition(net: Network) -> Partition:
    """All nodes in one part (requires a connected network)."""
    return Partition([0] * net.n)


def root_of(forest: RootedForest, v: int) -> int:
    """Root of the tree containing ``v`` (``v`` itself outside the forest)."""
    return int(forest.plan.root_of[v])


def restrict_roots(forest: RootedForest) -> Dict[int, List[int]]:
    """Map each root of ``forest`` to the members of its tree."""
    by_root: Dict[int, List[int]] = {r: [] for r in forest.roots}
    for v in forest.order:
        by_root[root_of(forest, v)].append(v)
    return by_root


def spanning_forest_of_subsets(
    net: Network, groups: Iterable[Iterable[int]]
) -> RootedForest:
    """One BFS tree per node group, rooted at the group's smallest node."""
    parent = [ABSENT] * net.n
    for group in groups:
        group_set = set(group)
        root = min(group_set)
        parent[root] = ROOT
        frontier = [root]
        seen = {root}
        while frontier:
            nxt = []
            for u in frontier:
                for v in net.neighbors[u]:
                    if v in group_set and v not in seen:
                        seen.add(v)
                        parent[v] = u
                        nxt.append(v)
            frontier = nxt
        if seen != group_set:
            raise ValueError("group does not induce a connected subgraph")
    return RootedForest(net, parent)


def division_from_groups(
    net: Network,
    partition: Partition,
    leaders: Sequence[int],
    groups: Sequence[Sequence[int]],
) -> SubPartDivision:
    """A validated division from explicit sub-part member lists."""
    forest = spanning_forest_of_subsets(net, groups)
    rep_of = [-1] * net.n
    for group in groups:
        root = root_of(forest, group[0])
        for v in group:
            rep_of[v] = root
    division = SubPartDivision(
        partition=partition,
        forest=forest,
        rep_of=tuple(rep_of),
        part_leader=tuple(leaders),
    )
    division.validate()
    return division


# ----------------------------------------------------------------------
# Shortcuts: fixtures and the union-find block oracle
# ----------------------------------------------------------------------
def empty_shortcut(tree: RootedForest, partition: Partition) -> Shortcut:
    """The trivial shortcut H_i = {} for every part."""
    return Shortcut(tree, partition, [frozenset() for _ in range(tree.net.n)])


def star_shortcut_for_parts(
    tree: RootedForest, partition: Partition, pids: Iterable[int]
) -> Shortcut:
    """H_i = the union of its members' root paths, for the parts ``pids``:
    one block per selected part (rooted at the tree root)."""
    up: List[Set[int]] = [set() for _ in range(tree.net.n)]
    for pid in pids:
        for node in partition.members[pid]:
            while tree.parent[node] >= 0:
                up[node].add(pid)
                node = tree.parent[node]
    return Shortcut(tree, partition, up)


def edges_of_part(shortcut: Shortcut, pid: int) -> List[Tuple[int, int]]:
    """The (child, parent) tree edges of ``H_pid``, in node order."""
    parent = shortcut.tree.parent
    return [
        (v, parent[v]) for v, parts in enumerate(shortcut.up_parts)
        if pid in parts
    ]


def total_shortcut_edges(shortcut: Shortcut) -> int:
    """Sum over parts of |H_i| (each tree edge counted per part using it)."""
    return sum(len(parts) for parts in shortcut.up_parts)


def blocks_of_part(shortcut: Shortcut, pid: int) -> List[Set[int]]:
    """Nontrivial blocks of part ``pid``: the edge-bearing components of
    ``H_pid``, by union-find over its edges."""
    parent: Dict[int, int] = {}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges_of_part(shortcut, pid):
        parent.setdefault(u, u)
        parent.setdefault(v, v)
        parent[find(u)] = find(v)
    groups: Dict[int, Set[int]] = defaultdict(set)
    for node in parent:
        groups[find(node)].add(node)
    return list(groups.values())


def block_parameter(shortcut: Shortcut, pid: int) -> int:
    """Number of nontrivial blocks of part ``pid`` (>= 1 by convention)."""
    return max(1, len(blocks_of_part(shortcut, pid)))


def validate_shortcut(shortcut: Shortcut) -> None:
    """Definition 2.2 on the blocks: each has exactly one root (a node
    with no parent edge in ``H_pid``)."""
    tree = shortcut.tree
    for pid in range(shortcut.partition.num_parts):
        for block in blocks_of_part(shortcut, pid):
            roots = [
                v for v in block
                if tree.parent[v] < 0 or pid not in shortcut.up_parts[v]
            ]
            if len(roots) != 1:
                raise ShortcutValidationError(
                    f"part {pid} has a block with {len(roots)} roots"
                )
