"""PA-based super-node communication and leaderless PA (Algorithm 9).

Appendix B shows that the "every part knows a leader" assumption costs
only a logarithmic factor: starting from singletons, parts coarsen by
star joinings — each maintained part keeps an elected leader — until the
coarsening matches the input partition, at which point ordinary PA runs.

The star-joining machinery (Algorithm 5) is shared with the deterministic
sub-part division; here super-nodes are *coarsening parts* whose internal
communication is itself Part-Wise Aggregation.  :class:`PASuperOps`
implements the :class:`~repro.core.star_joining.SuperOps` interface with
PA solves: a push is PA-broadcast inside the source, one round across the
chosen edges, and PA-aggregation inside the target.  Boruvka's
deterministic merging (Corollary 1.3) reuses the same ops.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..congest.ledger import CostLedger
from ..congest.network import Network
from ..graphs.partitions import Partition, partition_from_component_labels
from .aggregation import MIN, MIN_TUPLE, SUM, Aggregation
from .pa import PAResult, PASetup, PASolver
from .star_joining import SuperEdge, SuperOps, compute_star_joining
from .treeops import cross_round


class PASuperOps(SuperOps):
    """Super-node pushes implemented with Part-Wise Aggregation.

    Super-node ids are part ids of ``setup.partition``; each push costs two
    PA solves (broadcast within sources, aggregate within targets) plus one
    cross round — the Lemma B.1 accounting of O~(R) rounds and O~(M)
    messages per operation.
    """

    def __init__(
        self,
        solver: PASolver,
        setup: PASetup,
        chosen: Dict[int, SuperEdge],
        ledger: CostLedger,
        phase_prefix: str = "alg9",
    ) -> None:
        self.solver = solver
        self.setup = setup
        self.chosen = chosen
        self.ledger = ledger
        self.prefix = phase_prefix
        self.partition = setup.partition
        self.net = solver.net
        self.in_edges: Dict[int, List[Tuple[int, int, int]]] = {}
        self._announced = False
        self._push_count = 0

    def edges(self) -> Dict[int, SuperEdge]:
        return self.chosen

    def all_supernodes(self) -> Sequence[int]:
        return range(self.partition.num_parts)

    def initial_color(self, sid: int) -> int:
        return self.net.uid[self.setup.leaders[sid]]

    # ------------------------------------------------------------------
    def _pa(self, values: List[object], agg: Aggregation) -> Dict[int, object]:
        self._push_count += 1
        result = self.solver.solve(
            self.setup, values, agg, charge_setup=False,
            phase_prefix=f"{self.prefix}_pa{self._push_count}",
        )
        self.ledger.merge(result.ledger)
        return result.aggregates

    def _broadcast(self, value_of: Dict[int, object]) -> Dict[int, object]:
        """PA-broadcast each super-node's value to all its members.

        Encoded as an aggregation in which only the leader holds a value.
        Returns per-node received values.
        """
        values: List[object] = [None] * self.net.n
        for sid, value in value_of.items():
            values[self.setup.leaders[sid]] = value
        self._push_count += 1
        result = self.solver.solve(
            self.setup, values, MIN, charge_setup=False,
            phase_prefix=f"{self.prefix}_bc{self._push_count}",
        )
        self.ledger.merge(result.ledger)
        return {v: result.value_at_node[v] for v in range(self.net.n)}

    def _cross(self, sends: List[Tuple[int, int, object]], name: str):
        return cross_round(
            self.solver.engine, sends, self.ledger,
            name=f"{self.prefix}_{name}",
        )

    def announce_requests(self) -> None:
        sends = [
            (u, v, ("jreq", sid)) for sid, (u, v, _t) in self.chosen.items()
        ]
        received = self._cross(sends, "announce").received
        for v, incoming in received.items():
            for u, payload in incoming:
                _tag, sid = payload
                self.in_edges.setdefault(
                    self.partition.part_of[v], []
                ).append((v, u, sid))
        self._announced = True

    def push_up(self, value_of: Dict[int, object], agg: Aggregation) -> Dict[int, object]:
        at_node = self._broadcast(value_of)
        sends = []
        for sid, (u, v, _t) in self.chosen.items():
            if sid in value_of:
                sends.append((u, v, ("up", at_node.get(u))))
        values = self._cross(sends, "cross_up").merged(agg, self.net.n)
        aggregates = self._pa(values, agg)
        return {sid: val for sid, val in aggregates.items() if val is not None}

    def push_down(self, value_of: Dict[int, object]) -> Dict[int, object]:
        if not self._announced:
            self.announce_requests()
        at_node = self._broadcast(value_of)
        sends = []
        for target_sid, holders in self.in_edges.items():
            if target_sid not in value_of:
                continue
            for v, u, _src_sid in holders:
                sends.append((v, u, ("down", at_node.get(v))))
        values = self._cross(sends, "cross_down").merged(MIN, self.net.n)
        aggregates = self._pa(values, MIN)
        return {sid: val for sid, val in aggregates.items() if val is not None}

    def push_pred(self, value_of: Dict[int, object], agg: Aggregation) -> Dict[int, object]:
        return self.push_up(value_of, agg)


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

    cap = 2 * max(1, math.ceil(math.log2(max(2, n)))) + 6
    for _round in range(cap):
        coarse_partition = partition_from_component_labels(coarse)
        leaders = [
            leader_of[members[0]] for members in coarse_partition.members
        ]
        setup = solver.prepare(coarse_partition, leaders=leaders)
        total.merge(setup.setup_ledger, prefix="alg9_setup:")

        # Pick an exit edge into a sibling coarsening part (same target part).
        pick_values: List[object] = [None] * n
        for v in range(n):
            for nb in net.neighbors[v]:
                if partition.part_of[nb] != partition.part_of[v]:
                    continue
                if coarse[nb] == coarse[v]:
                    continue
                cand = (net.uid[v], net.uid[nb])
                if pick_values[v] is None or cand < pick_values[v]:
                    pick_values[v] = cand
        picked = solver.solve(
            setup, pick_values, MIN_TUPLE, charge_setup=False,
            phase_prefix="alg9_pick",
        )
        total.merge(picked.ledger)

        chosen: Dict[int, SuperEdge] = {}
        for sid, choice in picked.aggregates.items():
            if choice is None:
                continue  # coarsening part already spans its input part
            uid_u, uid_nb = choice
            u = net.node_of_uid(uid_u)
            v_nb = net.node_of_uid(uid_nb)
            chosen[sid] = (u, v_nb, coarse_partition.part_of[v_nb])
        if not chosen:
            break

        ops = PASuperOps(solver, setup, chosen, total)
        ops.announce_requests()
        receivers, joins = compute_star_joining(ops, set(chosen))

        # Joiners adopt their receiver's leader (learned via push_down of
        # leader uids, then PA-broadcast inside the joiner).
        leader_uid_of_target = ops.push_down(
            {
                sid: net.uid[leaders[sid]]
                for sid in range(coarse_partition.num_parts)
            }
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
