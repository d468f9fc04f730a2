"""Graph verification problems (Corollary A.1, Das Sarma et al. [5]).

Each verifier takes the network and a subgraph ``H`` (an edge list; node-
locally, every node knows its incident H-edges) and decides a property,
using CC labeling (:mod:`repro.algorithms.components`) plus O(1) global
aggregations over the BFS tree.  The paper's point — which the benchmarks
measure — is that all of these cost O~(D + sqrt n) rounds and O~(m)
messages once PA does.

Implemented verifiers: connectivity, s-t connectivity, cut, s-t cut,
edge-cut size, spanning subgraph/spanning tree, cycle containment, and
bipartiteness.  Bipartiteness deviates from [5] (which uses the bipartite
double cover): we propagate parity along a spanning tree *of H* per
component, costing O(H-diameter) rounds — honest, metered, and flagged in
EXPERIMENTS.md as the one verifier whose round bound is weaker than the
paper's.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..congest.ledger import CostLedger, RunResult
from ..congest.network import Network, canonical_edge
from ..core.aggregation import OR, SUM, SUM_TUPLE
from ..core.pa import PASolver, RANDOMIZED
from ..runtime import PASession, ensure_session
from ..core.treeops import claim_bfs, run_broadcast, run_convergecast
from .components import cc_labeling


def _global_sum(solver: PASolver, values: List[object], ledger: CostLedger,
                name: str) -> int:
    """Convergecast a sum over the global BFS tree, then broadcast it."""
    at_root = run_convergecast(
        solver.engine, solver.tree, SUM, values, ledger, name=f"{name}_up"
    ).at_root
    total = at_root.get(solver.tree.roots[0]) or 0
    run_broadcast(
        solver.engine, solver.tree, {solver.tree.roots[0]: total}, ledger,
        name=f"{name}_down",
    )
    return total


def _labels_and_ledger(net, subgraph_edges, mode, seed, session):
    run = cc_labeling(
        net, subgraph_edges, mode=mode, seed=seed, session=session
    )
    return run.output, run.ledger, run.meta["solver"]


def verify_connectivity(
    net: Network,
    subgraph_edges: Sequence[Tuple[int, int]],
    mode: str = RANDOMIZED,
    seed: int = 0,
    session: Optional[PASession] = None,
) -> RunResult:
    """Is H connected (as a spanning subgraph over all of V)?

    Counts component leaders (nodes whose uid equals their label) with one
    global sum: H is connected iff the count is one.
    """
    labels, ledger, solver = _labels_and_ledger(
        net, subgraph_edges, mode, seed, session
    )
    leader_flags = [1 if labels[v] == net.uid[v] else 0 for v in range(net.n)]
    count = _global_sum(solver, leader_flags, ledger, "connectivity_count")
    return RunResult(output=(count == 1), ledger=ledger,
                     meta={"components": count})


def verify_st_connectivity(
    net: Network,
    subgraph_edges: Sequence[Tuple[int, int]],
    s: int,
    t: int,
    mode: str = RANDOMIZED,
    seed: int = 0,
    session: Optional[PASession] = None,
) -> RunResult:
    """Are s and t in the same H-component?

    s and t ship their labels up the BFS tree (a two-source convergecast
    of ``SUM_TUPLE`` pairs: s's label in the first component, t's in the
    second, each shifted by one so that 0 means "absent"); the root
    compares and broadcasts the verdict.
    """
    labels, ledger, solver = _labels_and_ledger(
        net, subgraph_edges, mode, seed, session
    )
    values: List[object] = [None] * net.n
    values[s] = (labels[s] + 1, 0)
    if t != s:
        values[t] = (0, labels[t] + 1)
    at_root = run_convergecast(
        solver.engine, solver.tree, SUM_TUPLE, values, ledger, name="st_up",
    ).at_root
    gathered = at_root.get(solver.tree.roots[0])
    verdict = s == t or (
        gathered is not None and gathered[0] == gathered[1] != 0
    )
    run_broadcast(
        solver.engine, solver.tree, {solver.tree.roots[0]: verdict},
        ledger, name="st_down",
    )
    return RunResult(output=bool(verdict), ledger=ledger, meta={})


def verify_cut(
    net: Network,
    cut_edges: Sequence[Tuple[int, int]],
    mode: str = RANDOMIZED,
    seed: int = 0,
    session: Optional[PASession] = None,
) -> RunResult:
    """Does removing ``cut_edges`` disconnect the network?

    Runs connectivity verification on the complement subgraph G - C.
    """
    removed = {canonical_edge(u, v) for u, v in cut_edges}
    rest = [e for e in net.edges if e not in removed]
    inner = verify_connectivity(
        net, rest, mode=mode, seed=seed, session=session
    )
    return RunResult(
        output=not inner.output, ledger=inner.ledger, meta=inner.meta
    )


def verify_st_cut(
    net: Network,
    cut_edges: Sequence[Tuple[int, int]],
    s: int,
    t: int,
    mode: str = RANDOMIZED,
    seed: int = 0,
    session: Optional[PASession] = None,
) -> RunResult:
    """Does removing ``cut_edges`` separate s from t?"""
    removed = {canonical_edge(u, v) for u, v in cut_edges}
    rest = [e for e in net.edges if e not in removed]
    inner = verify_st_connectivity(
        net, rest, s, t, mode=mode, seed=seed, session=session
    )
    return RunResult(
        output=not inner.output, ledger=inner.ledger, meta=inner.meta
    )


def verify_spanning_tree(
    net: Network,
    subgraph_edges: Sequence[Tuple[int, int]],
    mode: str = RANDOMIZED,
    seed: int = 0,
    session: Optional[PASession] = None,
) -> RunResult:
    """Is H a spanning tree: connected over V with exactly n - 1 edges?

    The edge count is a global half-degree sum; connectivity reuses the
    same labeling run.
    """
    session = ensure_session(session, net, mode=mode, seed=seed)
    solver = session.solver
    conn = verify_connectivity(
        net, subgraph_edges, mode=mode, seed=seed, session=session
    )
    degree = [0] * net.n
    for u, v in subgraph_edges:
        degree[u] += 1
        degree[v] += 1
    double_edges = _global_sum(solver, degree, conn.ledger, "st_edge_count")
    is_tree = bool(conn.output) and double_edges == 2 * (net.n - 1)
    return RunResult(
        output=is_tree, ledger=conn.ledger,
        meta={"edges": double_edges // 2, "connected": conn.output},
    )


def verify_cycle_containment(
    net: Network,
    subgraph_edges: Sequence[Tuple[int, int]],
    mode: str = RANDOMIZED,
    seed: int = 0,
    session: Optional[PASession] = None,
) -> RunResult:
    """Does H contain a cycle?  (Some component has >= as many edges as nodes.)

    Per-component node and edge counts are two PA sums over the component
    partition — one shared wave pass when the session batches; each node
    contributes half its H-degree to the edge sum.
    """
    session = ensure_session(session, net, mode=mode, seed=seed)
    solver = session.solver
    run = cc_labeling(net, subgraph_edges, mode=mode, seed=seed, session=session)
    setup = run.meta["setup"]

    degree = [0] * net.n
    for u, v in subgraph_edges:
        degree[u] += 1
        degree[v] += 1
    counts = session.solve_many(
        setup,
        [([1] * net.n, SUM), (degree, SUM)],
        charge_setup=False,
        phase_prefix="cyc_counts",
        phase_prefixes=["cyc_nodes", "cyc_edges"],
    )
    run.ledger.merge(counts.ledger)
    node_counts, edge_counts = counts.per_agg

    has_cycle_flags = [0] * net.n
    for pid in range(setup.partition.num_parts):
        nodes = node_counts.aggregates[pid]
        twice_edges = edge_counts.aggregates[pid] or 0
        if twice_edges // 2 >= nodes:
            for v in setup.partition.members[pid]:
                has_cycle_flags[v] = 1
                break
    verdict = _global_sum(solver, has_cycle_flags, run.ledger, "cyc_any") > 0
    return RunResult(output=verdict, ledger=run.ledger, meta={})


def verify_bipartiteness(
    net: Network,
    subgraph_edges: Sequence[Tuple[int, int]],
    mode: str = RANDOMIZED,
    seed: int = 0,
    session: Optional[PASession] = None,
) -> RunResult:
    """Is H bipartite?

    Parity is propagated from each component leader along a BFS tree of H
    (O(H-diameter) rounds — the documented deviation from [5]'s double
    cover); every H-edge then checks its endpoints' parities in one round,
    and a global OR reports any conflict.
    """
    session = ensure_session(session, net, mode=mode, seed=seed)
    solver = session.solver
    run = cc_labeling(net, subgraph_edges, mode=mode, seed=seed, session=session)
    labels = run.output

    # H's edges, both directions, as a mask over the network's CSR slots.
    ends = np.asarray(list(subgraph_edges), dtype=np.int64).reshape(-1, 2)
    in_h = np.isin(
        net.array_views.edge_keys,
        np.concatenate((ends[:, 0] * net.n + ends[:, 1],
                        ends[:, 1] * net.n + ends[:, 0])),
    )

    leaders = {
        v: net.uid[v] for v in range(net.n) if labels[v] == net.uid[v]
    }
    bfs = claim_bfs(
        solver.engine, net, leaders, run.ledger, edge_mask=in_h,
        name="bip_h_bfs",
    )
    parity = [bfs.depth_of[v] % 2 if bfs.depth_of[v] >= 0 else 0
              for v in range(net.n)]

    conflict = [0] * net.n
    for u, v in subgraph_edges:
        if parity[u] == parity[v]:
            conflict[u] = 1
    # Endpoint parity exchange costs one round over H's edges.
    run.ledger.charge_local(
        "bip_parity_exchange", rounds=1, messages=2 * len(list(subgraph_edges))
    )
    verdict = _global_sum(solver, conflict, run.ledger, "bip_any") == 0
    return RunResult(output=verdict, ledger=run.ledger, meta={})
