"""k-dominating sets of size O(n/k) (Corollary A.3).

The corollary generalizes the sub-part division machinery: grow clusters
by star joinings until each has at least ``k/6`` nodes (or spans the
graph); cluster leaders then form a k-dominating set of cardinality at
most ``6n/k``.  Crucially — and this is the paper's point versus the
classic O~(k)-round algorithms [26, 38] — the merging steps communicate
via Part-Wise Aggregation, so the round complexity is O~(D + sqrt n)
*independent of k*: each iteration is O(1) PA operations for the edge
choice, O(log* n) PA operations inside the star joining (Lemma 6.3), and
O(1) for relabeling.

Radius: incomplete clusters have fewer than ``k/6`` nodes, hence radius
below ``k/6``; star joinings bound the growth at completion, and the
benchmark measures the realized radius and size against the ``<= k`` and
``<= 6n/k`` targets.
"""

from __future__ import annotations

import math
from typing import List, Optional, Set

from ..congest.ledger import CostLedger, RunResult
from ..congest.message import ceil_log2
from ..congest.network import Network
from ..graphs.partitions import partition_from_component_labels
from ..core.aggregation import MIN_TUPLE, SUM
from ..core.no_leader import PASuperOps
from ..core.pa import RANDOMIZED
from ..core.star_joining import (
    chosen_edges,
    compute_star_joining,
    outgoing_picks,
)
from ..runtime import PASession, ensure_session


def k_dominating_set(
    net: Network,
    k: int,
    mode: str = RANDOMIZED,
    seed: int = 0,
    session: Optional[PASession] = None,
) -> RunResult:
    """Compute a k-dominating set of size at most ~6n/k, via PA merging.

    Returns the set of cluster-leader nodes; ``meta`` carries the final
    cluster assignment so callers (and tests) can check the radius.  With
    a reusing session, each star-joining round coarsens the previous
    round's PA machinery instead of rebuilding it.
    """
    if k < 1:
        raise ValueError("k must be positive")
    session = ensure_session(session, net, mode=mode, seed=seed)
    solver = session.solver
    ledger = CostLedger()
    ledger.merge(solver.tree_ledger, prefix="tree:")
    n = net.n
    # Clusters must reach k/6 nodes; a floor of 2 keeps small k meaningful
    # (singleton clusters dominate nothing beyond themselves).
    threshold = min(n, max(2, math.ceil(k / 6)))

    coarse: List[int] = list(range(n))       # cluster representative node
    leader_of: List[int] = list(range(n))    # cluster leader (the center)
    complete: Set[int] = set()               # cluster rep nodes done growing

    cap = 3 * ceil_log2(n) + 8
    prev_setup = None
    for _iteration in range(cap):
        partition = partition_from_component_labels(coarse)
        leaders = [leader_of[members[0]] for members in partition.members]
        setup = session.prepare_incremental(
            prev_setup, partition, leaders=leaders
        )
        ledger.merge(setup.setup_ledger, prefix="kdom_setup:")
        prev_setup = setup

        sizes = session.solve(
            setup, [1] * n, SUM, charge_setup=False, phase_prefix="kdom_size"
        )
        ledger.merge(sizes.ledger)
        for sid in range(partition.num_parts):
            if sizes.aggregates[sid] >= threshold:
                complete.add(coarse[partition.members[sid][0]])

        growing = [rep not in complete for rep in coarse]
        if not any(growing):
            break

        # Each incomplete cluster picks an edge to any other cluster.
        picked = session.solve(
            setup, outgoing_picks(net, coarse, sources=growing), MIN_TUPLE,
            charge_setup=False, phase_prefix="kdom_pick",
        )
        ledger.merge(picked.ledger)

        chosen = chosen_edges(net, partition.part_of, picked.aggregates)
        # No out-edge: the cluster spans the whole network (or is complete).
        complete.update(
            coarse[members[0]]
            for sid, members in enumerate(partition.members)
            if sid not in chosen
        )
        if not chosen:
            continue

        ops = PASuperOps(
            solver.engine, session.solve, setup, chosen, ledger,
            phase_prefix="kdom_star",
        )
        ops.announce_requests()
        _receivers, joins = compute_star_joining(ops, set(chosen))

        for sid, (_u, _v, target_sid) in joins.items():
            target_rep = coarse[partition.members[target_sid][0]]
            new_leader = leaders[target_sid]
            for v in partition.members[sid]:
                coarse[v] = target_rep
                leader_of[v] = new_leader
    else:
        raise RuntimeError("k-dominating clustering did not converge")

    centers = sorted({leader_of[v] for v in range(n)})
    return RunResult(
        output=frozenset(centers),
        ledger=ledger,
        meta={
            "cluster_of": list(coarse),
            "center_of": list(leader_of),
            "threshold": threshold,
        },
    )
