"""Edge-weight assignment for weighted problem instances.

The paper's weighted problems (MST, min-cut, SSSP) assume integer edge
weights in [1, poly(n)], known initially to both endpoints.  These helpers
attach such weights to an unweighted :class:`Network`, including the
structured weightings used by the benchmarks (planted cuts, metric-ish
grids).
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, Optional, Set, Tuple

from ..congest.network import Edge, Network, canonical_edge


def with_random_weights(
    net: Network, max_weight: Optional[int] = None, seed: int = 7
) -> Network:
    """Copy of ``net`` with independent uniform weights in [1, max_weight].

    Default ``max_weight`` is n**2, inside the paper's poly(n) budget and
    large enough that random weights are distinct with high probability
    (convenient for unique-MST tests).
    """
    if max_weight is None:
        max_weight = max(4, net.n * net.n)
    rng = random.Random(seed)
    weights = {e: rng.randint(1, max_weight) for e in net.edges}
    return Network(net.edges, n=net.n, weights=weights, uid_seed=_uid_seed(net))


def with_distinct_weights(net: Network, seed: int = 7) -> Network:
    """Copy of ``net`` with a random permutation of 1..m as weights.

    Distinct weights make the MST unique, which simplifies equality checks
    against the Kruskal reference.
    """
    rng = random.Random(seed)
    perm = list(range(1, net.m + 1))
    rng.shuffle(perm)
    weights = {e: perm[i] for i, e in enumerate(net.edges)}
    return Network(net.edges, n=net.n, weights=weights, uid_seed=_uid_seed(net))


def with_light_edges(
    net: Network, light: Iterable[Edge], seed: int = 7
) -> Network:
    """:func:`with_distinct_weights` re-ranked so ``light`` comes first.

    Weights stay a permutation of 1..m; every edge of ``light`` is lighter
    than every other edge, the order inside each class is the seeded one.
    With the rows of :func:`~repro.graphs.generators.grid_with_apex` as
    ``light`` every Boruvka fragment is a long path in a low-diameter
    graph — the instance where fragment-tree MSTs pay Theta(n) rounds and
    Corollary 1.3 claims O~(D + sqrt n).
    """
    drawn = with_distinct_weights(net, seed=seed).weights
    first = {canonical_edge(u, v) for u, v in light}
    order = sorted(net.edges, key=lambda e: (e not in first, drawn[e]))
    weights = {e: rank for rank, e in enumerate(order, start=1)}
    return Network(net.edges, n=net.n, weights=weights, uid_seed=_uid_seed(net))


def with_planted_cut(
    net: Network,
    side: Set[int],
    cut_weight_each: int = 1,
    bulk_weight: int = 1000,
    seed: int = 7,
) -> Network:
    """Weight ``net`` so the cut around ``side`` is (likely) the min cut.

    Edges crossing (side, rest) get weight ``cut_weight_each``; all other
    edges get weights near ``bulk_weight``.  Used by the min-cut benchmark
    to give a known approximate optimum.
    """
    rng = random.Random(seed)
    weights: Dict[Edge, int] = {}
    for u, v in net.edges:
        crossing = (u in side) != (v in side)
        if crossing:
            weights[(u, v)] = cut_weight_each
        else:
            weights[(u, v)] = bulk_weight + rng.randint(0, bulk_weight // 10)
    return Network(net.edges, n=net.n, weights=weights, uid_seed=_uid_seed(net))


def _uid_seed(net: Network) -> int:
    # Preserve the uid assignment of the source network: rebuilding with
    # the same seed yields the same permutation because n is unchanged.
    # Network does not retain its seed, so we recover it by convention:
    # all generators in this repo thread a uid_seed through; weighted
    # copies keep the default.  uids only need to be *unique*, so this is
    # purely cosmetic for debugging continuity.
    return 0x5EED
