"""Structural checks the corollary experiments assert on their outputs.

A dominating set dominates, a connected dominating set induces a
connected subgraph, a planted cut weighs what it should.  These run on
the orchestrator side (they are oracles, not distributed algorithms) and
are deliberately simple rather than fast.
"""

from __future__ import annotations

from typing import Set

from ..congest.network import Network


def is_dominating_set(net: Network, dominators: Set[int]) -> bool:
    """True iff every node is in ``dominators`` or adjacent to one."""
    for v in range(net.n):
        if v in dominators:
            continue
        if not any(u in dominators for u in net.neighbors[v]):
            return False
    return True


def is_k_dominating_set(net: Network, centers: Set[int], k: int) -> bool:
    """True iff every node is within hop distance k of some center."""
    if not centers:
        return net.n == 0
    dist = [-1] * net.n
    frontier = []
    for c in centers:
        dist[c] = 0
        frontier.append(c)
    depth = 0
    while frontier and depth < k:
        depth += 1
        nxt = []
        for u in frontier:
            for v in net.neighbors[u]:
                if dist[v] == -1:
                    dist[v] = depth
                    nxt.append(v)
        frontier = nxt
    return all(d != -1 for d in dist)


def induces_connected_subgraph(net: Network, nodes: Set[int]) -> bool:
    """True iff ``nodes`` induces a connected subgraph of ``net``."""
    if not nodes:
        return False
    start = next(iter(nodes))
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for v in net.neighbors[u]:
            if v in nodes and v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == len(nodes)


def cut_weight(net: Network, side: Set[int]) -> int:
    """Total weight of edges crossing (side, V - side)."""
    total = 0
    for u, v in net.edges:
        if (u in side) != (v in side):
            total += net.weight(u, v)
    return total
