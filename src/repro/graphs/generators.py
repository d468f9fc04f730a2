"""Workload graph generators.

Every generator returns a :class:`~repro.congest.network.Network` over nodes
``0..n-1``.  The families mirror the paper's evaluation surface:

* :func:`grid_with_apex` — the Figure 2a counterexample: a D x W grid plus
  an apex node adjacent to the whole top row.  Prior shortcut PA uses
  Theta(nD) messages here; the paper's sub-part PA uses O~(n).
* :func:`grid_2d` — the planar workhorse (Table 1 "Planar" row).
* :func:`torus_2d` — genus-1 family (Table 1 "Genus g" row).
* :func:`k_tree` — treewidth-bounded family (Table 1 "Treewidth t" row).
* :func:`ladder` — pathwidth-bounded family (Table 1 "Pathwidth p" row).
* :func:`random_connected` / :func:`random_regular_ish` — "General" row.
* :func:`preferential_attachment` — heavy-tailed degrees, for hub-heavy
  cases;
* :func:`path_graph` — the simplest high-diameter case.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from ..congest.network import Edge, Network, canonical_edge


def _finish(
    edges: List[Edge],
    n: int,
    uid_seed: int,
    weights: Optional[Dict[Edge, int]] = None,
) -> Network:
    return Network(edges, n=n, weights=weights, uid_seed=uid_seed)


def path_graph(n: int, uid_seed: int = 0x5EED) -> Network:
    """A path on ``n`` nodes: 0 - 1 - ... - n-1."""
    if n < 1:
        raise ValueError("path needs at least one node")
    return _finish([(i, i + 1) for i in range(n - 1)], n, uid_seed)


def grid_2d(rows: int, cols: int, uid_seed: int = 0x5EED) -> Network:
    """A rows x cols planar grid.  Node (r, c) has index r * cols + c."""
    if rows < 1 or cols < 1:
        raise ValueError("grid dimensions must be positive")
    edges: List[Edge] = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return _finish(edges, rows * cols, uid_seed)


def grid_node(r: int, c: int, cols: int) -> int:
    """Index of grid node (r, c) in a ``cols``-wide grid."""
    return r * cols + c


def grid_with_apex(rows: int, cols: int, uid_seed: int = 0x5EED) -> Network:
    """The Figure 2a graph: a rows x cols grid plus an apex node ``r``.

    The apex is node ``rows * cols`` and neighbors every node of row 0
    (the "top row").  With each row as its own part and the columns as
    shortcut edges, block-aggregation PA needs Omega(n * rows) messages
    while the paper's sub-part PA needs O~(n).
    """
    base = grid_2d(rows, cols, uid_seed)
    apex = rows * cols
    edges = list(base.edges)
    edges.extend((grid_node(0, c, cols), apex) for c in range(cols))
    return _finish(edges, apex + 1, uid_seed)


def torus_2d(rows: int, cols: int, uid_seed: int = 0x5EED) -> Network:
    """A rows x cols torus (genus-1, 4-regular)."""
    if rows < 3 or cols < 3:
        raise ValueError("torus needs both dimensions >= 3")
    edges = set()
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            right = r * cols + (c + 1) % cols
            down = ((r + 1) % rows) * cols + c
            edges.add(canonical_edge(v, right))
            edges.add(canonical_edge(v, down))
    return _finish(sorted(edges), rows * cols, uid_seed)


def ladder(length: int, uid_seed: int = 0x5EED) -> Network:
    """A 2 x length ladder (pathwidth 2)."""
    return grid_2d(2, length, uid_seed)


def k_tree(n: int, k: int, seed: int = 7, uid_seed: int = 0x5EED) -> Network:
    """A random k-tree on ``n`` nodes (treewidth exactly k for n > k).

    Construction: start from a (k+1)-clique; each new node is joined to a
    uniformly random existing k-clique.
    """
    if n < k + 1:
        raise ValueError("k-tree needs at least k+1 nodes")
    rng = random.Random(seed)
    edges = set()
    cliques: List[Tuple[int, ...]] = []
    base = tuple(range(k + 1))
    for i in range(k + 1):
        for j in range(i + 1, k + 1):
            edges.add((i, j))
    # All k-subsets of the base clique are attachable k-cliques.
    for drop in range(k + 1):
        cliques.append(tuple(x for x in base if x != drop))
    for v in range(k + 1, n):
        clique = rng.choice(cliques)
        for u in clique:
            edges.add(canonical_edge(u, v))
        for drop in range(k):
            new_clique = tuple(x for x in clique if x != clique[drop]) + (v,)
            cliques.append(tuple(sorted(new_clique)))
    return _finish(sorted(edges), n, uid_seed)


def random_connected(
    n: int, extra_edge_prob: float, seed: int = 7, uid_seed: int = 0x5EED
) -> Network:
    """A connected Erdos-Renyi-style graph ("General" Table 1 row).

    A random spanning tree guarantees connectivity; every other pair is an
    edge independently with probability ``extra_edge_prob``.
    """
    if not 0.0 <= extra_edge_prob <= 1.0:
        raise ValueError("probability must be in [0, 1]")
    rng = random.Random(seed)
    edges = set()
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        u = order[rng.randrange(i)]
        v = order[i]
        edges.add(canonical_edge(u, v))
    if extra_edge_prob > 0:
        for u in range(n):
            for v in range(u + 1, n):
                if (u, v) not in edges and rng.random() < extra_edge_prob:
                    edges.add((u, v))
    return _finish(sorted(edges), n, uid_seed)


def random_regular_ish(
    n: int, degree: int, seed: int = 7, uid_seed: int = 0x5EED
) -> Network:
    """A connected graph with (near-)uniform degree ~ ``degree``.

    Built as a Hamiltonian cycle plus random chords; good expander-like
    "general graph" workload with diameter O(log n).
    """
    if degree < 2:
        raise ValueError("degree must be at least 2")
    if n < degree + 1:
        raise ValueError("need n > degree")
    rng = random.Random(seed)
    edges = set()
    for i in range(n):
        edges.add(canonical_edge(i, (i + 1) % n))
    target = n * degree // 2
    attempts = 0
    while len(edges) < target and attempts < 50 * target:
        attempts += 1
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v:
            edges.add(canonical_edge(u, v))
    return _finish(sorted(edges), n, uid_seed)


def random_regular(
    n: int, degree: int, seed: int = 7, uid_seed: int = 0x5EED
) -> Network:
    """An exactly ``degree``-regular connected simple graph.

    Configuration (pairing) model with local repair: every node
    contributes ``degree`` stubs, a random perfect matching of the stubs
    proposes the edges, and a proposed self-loop or duplicate edge is
    repaired by re-drawing its second endpoint from the unmatched suffix
    (the standard practical variant, expected O(m) work).  If repair
    stalls or the matched graph is disconnected the whole pairing restarts
    with fresh randomness; for ``degree >= 3`` a handful of attempts
    suffice with overwhelming probability.  Unlike
    :func:`random_regular_ish` the result is exactly regular — the
    clean workload for the sqrt(n) scaling regime of Theorem 1.2.
    """
    if degree < 3:
        raise ValueError("random_regular needs degree >= 3 (connectivity)")
    if n <= degree:
        raise ValueError("need n > degree")
    if n * degree % 2:
        raise ValueError("n * degree must be even")
    rng = random.Random(seed)
    for _attempt in range(64):
        stubs = [v for v in range(n) for _ in range(degree)]
        rng.shuffle(stubs)
        edges = set()
        ok = True
        last = len(stubs) - 1
        for i in range(0, last, 2):
            u = stubs[i]
            v = stubs[i + 1]
            retries = 0
            while u == v or (u, v) in edges or (v, u) in edges:
                retries += 1
                if retries > 32 or i + 2 > last:
                    ok = False
                    break
                j = rng.randrange(i + 1, last + 1)
                stubs[i + 1], stubs[j] = stubs[j], stubs[i + 1]
                v = stubs[i + 1]
            if not ok:
                break
            edges.add((u, v) if u < v else (v, u))
        if not ok:
            continue
        net = _finish(sorted(edges), n, uid_seed)
        if net.is_connected():
            return net
    raise RuntimeError(
        f"failed to draw a connected {degree}-regular graph on {n} nodes"
    )


def preferential_attachment(
    n: int, attach: int = 3, seed: int = 7, uid_seed: int = 0x5EED
) -> Network:
    """A Barabási–Albert preferential-attachment graph (connected, O(m)).

    Starts from a star on ``attach + 1`` nodes; every later node joins
    with ``attach`` edges to distinct existing nodes drawn proportionally
    to degree (the classic repeated-endpoints trick: sampling uniformly
    from the flat endpoint list IS degree-proportional sampling).  Heavy
    tails and hub-dominated diameters make this the adversarial
    low-diameter workload of the scaling sweep.
    """
    if attach < 1:
        raise ValueError("attach must be >= 1")
    if n < attach + 2:
        raise ValueError("need n >= attach + 2")
    rng = random.Random(seed)
    edges: List[Edge] = []
    #: Every edge endpoint, once per incidence: uniform draws from this
    #: list are degree-proportional.
    endpoints: List[int] = []
    for v in range(1, attach + 1):
        edges.append((0, v))
        endpoints.extend((0, v))
    for v in range(attach + 1, n):
        targets: set = set()
        while len(targets) < attach:
            targets.add(endpoints[rng.randrange(len(endpoints))])
        for t in sorted(targets):
            edges.append((t, v))
            endpoints.extend((t, v))
    return _finish(edges, n, uid_seed)

