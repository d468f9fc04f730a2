"""Sequential reference implementations (correctness oracles).

Every distributed algorithm in this repository is checked against a plain
sequential counterpart on the same inputs.  These run orchestrator-side
and are deliberately straightforward.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Set, Tuple

from ..congest.network import Network, canonical_edge


def kruskal_mst(net: Network) -> Set[Tuple[int, int]]:
    """The minimum spanning tree under (weight, uid, uid) tie-breaking.

    Uses the same lexicographic tie-break as the distributed Boruvka, so
    on any weights the outputs are comparable edge sets.
    """
    if net.weights is None:
        raise ValueError("MST requires weights")
    parent = list(range(net.n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def ordered(e: Tuple[int, int]) -> Tuple[int, int, int]:
        u, v = e
        a, b = sorted((net.uid[u], net.uid[v]))
        return (net.weight(u, v), a, b)

    tree: Set[Tuple[int, int]] = set()
    for u, v in sorted(net.edges, key=ordered):
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            tree.add(canonical_edge(u, v))
    return tree


def mst_weight(net: Network, edges: Set[Tuple[int, int]]) -> int:
    """Total weight of an edge set."""
    return sum(net.weight(u, v) for u, v in edges)


def dijkstra(net: Network, source: int) -> List[int]:
    """Exact single-source shortest path distances."""
    dist = [None] * net.n
    dist[source] = 0
    heap = [(0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if d != dist[u]:
            continue
        for v in net.neighbors[u]:
            nd = d + net.weight(u, v)
            if dist[v] is None or nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


def stoer_wagner_min_cut(net: Network) -> int:
    """Exact global minimum cut value (Stoer-Wagner)."""
    if net.n < 2:
        raise ValueError("min cut needs at least two nodes")
    # Work on a contractible weighted adjacency structure.
    nodes: List[List[int]] = [[v] for v in range(net.n)]
    weight: List[Dict[int, int]] = [dict() for _ in range(net.n)]
    for u, v in net.edges:
        w = net.weight(u, v)
        weight[u][v] = weight[u].get(v, 0) + w
        weight[v][u] = weight[v].get(u, 0) + w
    active = set(range(net.n))
    best = None

    while len(active) > 1:
        # Maximum adjacency order from an arbitrary start.
        start = next(iter(active))
        order = [start]
        added = {start}
        conn = {v: weight[start].get(v, 0) for v in active if v != start}
        while len(order) < len(active):
            nxt = max(conn, key=lambda v: (conn[v], -v))
            order.append(nxt)
            added.add(nxt)
            del conn[nxt]
            for v, w in weight[nxt].items():
                if v in active and v not in added:
                    conn[v] = conn.get(v, 0) + w
        s, t = order[-2], order[-1]
        cut_of_phase = sum(
            w for v, w in weight[t].items() if v in active
        )
        if best is None or cut_of_phase < best:
            best = cut_of_phase
        # Contract t into s.
        for v, w in list(weight[t].items()):
            if v == s or v not in active:
                continue
            weight[s][v] = weight[s].get(v, 0) + w
            weight[v][s] = weight[v].get(s, 0) + w
        for v in list(weight[t]):
            weight[v].pop(t, None)
        weight[t].clear()
        nodes[s].extend(nodes[t])
        active.discard(t)
    return best


def greedy_dominating_set_size(net: Network) -> int:
    """Size of the sequential greedy dominating set (approx-ratio anchor)."""
    dominated = [False] * net.n
    chosen = 0
    while not all(dominated):
        best_v, best_span = -1, -1
        for v in range(net.n):
            span = (0 if dominated[v] else 1) + sum(
                1 for nb in net.neighbors[v] if not dominated[nb]
            )
            if span > best_span:
                best_span, best_v = span, v
        chosen += 1
        dominated[best_v] = True
        for nb in net.neighbors[best_v]:
            dominated[nb] = True
    return chosen
