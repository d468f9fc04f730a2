"""Minimum Spanning Tree via Part-Wise Aggregation (Corollary 1.3).

Boruvka's algorithm [34], with fragments as PA parts: every phase, each
fragment finds its minimum-weight outgoing edge (MOE) with one PA solve
(the tuple ``(weight, uid_u, uid_v)`` under lexicographic MIN), merges
fragments along chosen MOEs, and relabels — O(log n) phases, each costing
O~(PA) (Theorem 1.2's pipeline is rebuilt per phase because the partition
changes; the BFS tree ``T`` is built once).

Two merging disciplines, both star joinings — no joiner is the target of
a joiner, so merged fragments never chain:

* ``"rank"`` (default for randomized mode): under one public seed,
  broadcast once over ``T``, a fragment joins its MOE's target exactly
  when the target outranks both the fragment and its own target
  (:func:`~repro.core.star_joining.rank_joins`).  Every fragment joins
  with probability at least 1/3 and one of every mutual pair always:
  O(log n) phases w.h.p.
* ``"star"`` (default for deterministic mode): Algorithm 5's star joining
  over the MOE digraph, with Cole-Vishkin color exchanges routed through
  PA (the same machinery as Algorithm 9).

An MOE is added to the tree exactly when its fragment merges along it, so
the output has exactly n-1 edges and equals the (unique, under distinct
weights) MST — verified against Kruskal in the tests.

PA is acquired through a :class:`~repro.runtime.PASession`: with its
opt-ins off (the default) every phase prepares afresh; with ``reuse`` on,
each Boruvka merge *coarsens* the previous phase's division and shortcut
instead of rebuilding.
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

from ..congest.ledger import CostLedger, RunResult
from ..congest.message import ceil_log2
from ..congest.network import Network, canonical_edge
from ..graphs.partitions import partition_from_component_labels
from ..core.aggregation import MIN, MIN_TUPLE, OR
from ..core.no_leader import PASuperOps
from ..core.pa import RANDOMIZED
from ..core.star_joining import (
    chosen_edges,
    compute_star_joining,
    note_merge_round,
    outgoing_picks,
    rank_joins,
    spread_seed,
)
from ..core.treeops import announce_labels, cross_round, run_convergecast
from ..runtime import PASession, ensure_session

RANK = "rank"
STAR = "star"


def minimum_spanning_tree(
    net: Network,
    mode: str = RANDOMIZED,
    seed: int = 0,
    merging: Optional[str] = None,
    session: Optional[PASession] = None,
) -> RunResult:
    """Distributed MST; returns the edge set with a fully metered ledger.

    The network must be connected and weighted.  ``merging`` defaults to
    joining by rank in randomized mode and Algorithm 5 in deterministic
    mode.  PA is acquired through ``session`` (see
    :class:`repro.runtime.PASession` for the reuse opt-in, the family-aware
    shortcut constructions and the engine every phase's pipeline runs on);
    the default is ``PASession(net, mode=mode, seed=seed)``.
    """
    if net.weights is None:
        raise ValueError("MST requires a weighted network")
    if merging is None:
        merging = RANK if mode == RANDOMIZED else STAR
    if merging not in (RANK, STAR):
        raise ValueError(f"merging must be {RANK!r} or {STAR!r}, not {merging!r}")
    session = ensure_session(session, net, mode=mode, seed=seed)
    solver = session.solver
    ledger = CostLedger()
    ledger.merge(solver.tree_ledger, prefix="tree:")
    if merging == RANK:
        seed_at = spread_seed(
            solver.engine, solver.tree, ledger, "mst", seed ^ 0xB0B
        )

    n = net.n
    comp: List[int] = list(range(n))        # fragment representative node
    leader_of: List[int] = list(range(n))   # fragment leader node
    mst_edges: Set[Tuple[int, int]] = set()

    max_phases = 4 * ceil_log2(n) + 8

    # Every node knows which neighbors are outside its fragment (the PA
    # input knowledge of Definition 1.1): one round on every edge to begin
    # with; after that the session's part exchange tells each node of the
    # neighbors a merge relabelled, as it prepares each phase's setup.
    announce_labels(
        solver.engine, net, net.array_views.uid, ledger,
        "mst_neighbor_exchange",
    )
    prev_setup = None
    for phase in range(1, max_phases + 1):
        partition = partition_from_component_labels(comp)
        if partition.num_parts == 1:
            break
        leaders = [leader_of[members[0]] for members in partition.members]
        setup = session.prepare_incremental(prev_setup, partition, leaders=leaders)
        ledger.merge(setup.setup_ledger, prefix=f"phase{phase}_setup:")
        prev_setup = setup

        # Every member hears its fragment's MOE; joining by rank also needs
        # *whose* fragment it points at, so there the pick carries the id
        # (the leader's uid) the far endpoint announced.
        announced = (
            [net.uid[leader] for leader in leader_of]
            if merging == RANK else None
        )
        moe = session.solve(
            setup, outgoing_picks(net, comp, weighted=True, announced=announced),
            MIN_TUPLE, charge_setup=False, phase_prefix=f"phase{phase}_moe",
        )
        ledger.merge(moe.ledger)

        chosen = chosen_edges(
            net, partition.part_of, moe.aggregates,
            announced=announced is not None,
        )
        if not chosen:
            break

        if merging == RANK:
            joins = rank_joins(
                solver.engine, ledger, "mst", phase,
                seed_at, announced, moe.value_at_node, chosen,
            )
        else:
            # Deterministic merging: Algorithm 5 over the MOE digraph, its
            # pushes PA solves of the session like the MOE's own.
            ops = PASuperOps(
                solver.engine, session.solve, setup, chosen, ledger,
                phase_prefix="mst_star",
            )
            ops.announce_requests()
            _receivers, joins = compute_star_joining(ops, set(chosen))
        note_merge_round(
            "mst", phase, partition.num_parts, len(chosen), len(joins)
        )

        # Merging fragments mark their MOE (one round over those edges) and
        # relabel via a PA broadcast of the new identity.
        mark_sends = []
        relabel_values: List[object] = [None] * n
        for u, v_nb, target_sid in joins.values():
            mark_sends.append((u, v_nb, ("mark",)))
            new_leader = leaders[target_sid]
            target_rep = comp[partition.members[target_sid][0]]
            relabel_values[u] = (net.uid[new_leader], net.uid[target_rep])
            mst_edges.add(canonical_edge(u, v_nb))
        cross_round(solver.engine, mark_sends, ledger, name="mst_mark")

        relabel = session.solve(
            setup, relabel_values, MIN, charge_setup=False,
            phase_prefix=f"phase{phase}_relabel",
        )
        ledger.merge(relabel.ledger)
        for sid, update in relabel.aggregates.items():
            if update is None or sid not in joins:
                continue
            new_leader_uid, new_rep_uid = update
            new_leader = net.node_of_uid(new_leader_uid)
            new_rep = net.node_of_uid(new_rep_uid)
            for v in partition.members[sid]:
                comp[v] = new_rep
                leader_of[v] = new_leader

        # Termination detection: convergecast "any fragment still active"
        # over the global BFS tree (O(D) rounds, O(n) messages).
        det_values = [1 if comp[v] != comp[0] else 0 for v in range(n)]
        at_root = run_convergecast(
            solver.engine, solver.tree, OR, det_values, ledger,
            name="mst_termination",
        ).at_root
        if not at_root.get(solver.tree.roots[0], 0):
            break

    partition = partition_from_component_labels(comp)
    if partition.num_parts != 1:
        raise RuntimeError("MST did not converge within the phase budget")
    if len(mst_edges) != n - 1:
        raise RuntimeError(
            f"MST has {len(mst_edges)} edges, expected {n - 1}"
        )
    return RunResult(
        output=frozenset(mst_edges),
        ledger=ledger,
        meta={"phases": phase, "mode": mode, "merging": merging},
    )
