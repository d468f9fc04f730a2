"""PA-based super-node communication and leaderless PA (Algorithm 9).

Appendix B shows that the "every part knows a leader" assumption costs
only a logarithmic factor: starting from singletons, parts coarsen by
star joinings — each maintained part keeps an elected leader — until the
coarsening matches the input partition, at which point ordinary PA runs.

The star-joining machinery (Algorithm 5) is shared with the deterministic
sub-part division; here super-nodes are *coarsening parts* whose internal
communication is itself Part-Wise Aggregation.  :func:`PASuperOps`
carries :class:`~repro.core.star_joining.SuperOps`' pushes by PA solves: a
push is PA-broadcast inside the source, one round across the chosen
edges, and PA-aggregation inside the target.  Boruvka's deterministic
merging (Corollary 1.3) and k-dominating sets reuse the same transport.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..congest.engine import Engine
from ..congest.ledger import CostLedger
from ..congest.message import ceil_log2
from ..congest.network import Network
from ..graphs.partitions import Partition, partition_from_component_labels
from .aggregation import MIN, MIN_TUPLE, Aggregation
from .pa import PAResult, PASetup, PASolver
from .star_joining import (
    SuperEdge,
    SuperOps,
    chosen_edges,
    compute_star_joining,
    outgoing_picks,
)


def PASuperOps(
    engine: Engine,
    solve: Callable[..., PAResult],
    setup: PASetup,
    chosen: Dict[int, SuperEdge],
    ledger: CostLedger,
    phase_prefix: str = "alg9",
) -> SuperOps:
    """:class:`SuperOps` whose pushes are PA solves (Algorithm 9).

    Super-nodes are the parts of ``setup.partition``, led by its leaders;
    a spread and a gather are one solve each through ``solve`` — a
    :class:`~repro.core.pa.PASolver`'s or, wherever an algorithm runs on a
    session, the :class:`~repro.runtime.PASession`'s, so the solve is
    counted and routed like any other — merged into ``ledger``.  With the
    cross round on ``engine`` between them, the Lemma B.1 accounting of
    O~(R) rounds and O~(M) messages per push.
    """
    solves = itertools.count(1)

    def pa(kind: str, values: Sequence[object], agg: Aggregation) -> PAResult:
        result = solve(
            setup, values, agg, charge_setup=False,
            phase_prefix=f"{phase_prefix}_{kind}{next(solves)}",
        )
        ledger.merge(result.ledger)
        return result

    def spread(value_of: Dict[int, object], at: np.ndarray) -> List[object]:
        # PA-broadcast: an aggregation in which only the leaders hold values.
        values: List[object] = [None] * engine.network.n
        for sid, value in value_of.items():
            values[setup.leaders[sid]] = value
        heard = pa("bc", values, MIN).value_at_node
        return [heard[v] for v in at.tolist()]

    def gather(
        values: Sequence[object], agg: Aggregation, _listeners
    ) -> Dict[int, object]:
        # One solve covers every part, whoever listens.
        return pa("pa", values, agg).aggregates

    return SuperOps(
        engine, engine.network, dict(enumerate(setup.leaders)),
        spread, gather, chosen, ledger, phase_prefix,
    )


def solve_pa_without_leaders(
    net: Network,
    partition: Partition,
    values: Sequence[object],
    agg: Aggregation,
    mode: str = "randomized",
    seed: int = 0,
    solver: Optional[PASolver] = None,
) -> PAResult:
    """Algorithm 9: PA with no known leaders, via star-joining coarsening.

    Maintains a coarsening partition (P'_i) refining the input partition,
    each coarsening part with an elected leader.  Each round every
    coarsening part picks an edge into a *different* coarsening part of the
    *same* input part (a PA MIN over boundary edges), a star joining merges
    a constant fraction, and joiners adopt their receiver's leader.  After
    O(log n) rounds the coarsening equals the input partition, and the
    final PA runs with known leaders.  Lemma B.1: O~(log n) PA-cost total.
    """
    solver = solver or PASolver(net, mode=mode, seed=seed)
    total = CostLedger()
    n = net.n

    leader_of: List[int] = list(range(n))  # coarsening leaders, per node
    coarse: List[int] = list(range(n))     # coarsening part representative

    cap = 2 * ceil_log2(n) + 6
    for _round in range(cap):
        coarse_partition = partition_from_component_labels(coarse)
        leaders = [
            leader_of[members[0]] for members in coarse_partition.members
        ]
        setup = solver.prepare(coarse_partition, leaders=leaders)
        total.merge(setup.setup_ledger, prefix="alg9_setup:")

        # Pick an exit edge into a sibling coarsening part (same target part).
        picked = solver.solve(
            setup, outgoing_picks(net, coarse, within=partition.part_of),
            MIN_TUPLE, charge_setup=False, phase_prefix="alg9_pick",
        )
        total.merge(picked.ledger)

        # A coarsening part with no pick already spans its input part.
        chosen = chosen_edges(net, coarse_partition.part_of, picked.aggregates)
        if not chosen:
            break

        ops = PASuperOps(solver.engine, solver.solve, setup, chosen, total)
        ops.announce_requests()
        receivers, joins = compute_star_joining(ops, set(chosen))

        # Joiners adopt their receiver's leader (learned via push_down of
        # leader uids, then PA-broadcast inside the joiner).
        leader_uid_of_target = ops.push_down(
            {sid: net.uid[leader] for sid, leader in ops.leaders.items()}
        )
        for sid, (_u, _v, target_sid) in joins.items():
            new_leader = net.node_of_uid(leader_uid_of_target[sid])
            target_root = coarse_partition.members[target_sid][0]
            for v in coarse_partition.members[sid]:
                coarse[v] = coarse[target_root]
                leader_of[v] = new_leader

    final_partition = partition_from_component_labels(coarse)
    if final_partition.num_parts != partition.num_parts:
        raise RuntimeError("Algorithm 9 coarsening did not converge")
    for members in final_partition.members:
        pids = {partition.part_of[v] for v in members}
        if len(pids) != 1:
            raise RuntimeError("coarsening crossed an input part boundary")
    leaders = [
        leader_of[members[0]] for members in final_partition.members
    ]
    setup = solver.prepare(final_partition, leaders=leaders)
    total.merge(setup.setup_ledger, prefix="alg9_final_setup:")
    result = solver.solve(setup, values, agg, charge_setup=False)
    total.merge(result.ledger)
    # The coarsening's part ids are in discovery order; report aggregates
    # under the caller's part ids.
    remapped = {
        partition.part_of[members[0]]: result.aggregates[sid]
        for sid, members in enumerate(final_partition.members)
    }
    return PAResult(
        aggregates=remapped,
        value_at_node=result.value_at_node,
        ledger=total,
        setup=setup,
    )
