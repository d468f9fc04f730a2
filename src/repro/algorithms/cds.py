"""O(log n)-approximate Minimum Connected Dominating Set (Corollary A.2).

Ghaffari [14] computes an O(log n)-approximate MCDS whose communication
bottleneck is Thurimella-style connected-component labeling — i.e. PA.
We implement the classic unweighted variant with the same bottleneck
structure (docs/architecture.md, "Deviations from the paper"):

1. **Dominating set** by distributed greedy: O(log n) rounds of "join if
   your (span, uid) is maximal within two hops", where span counts the
   undominated closed neighborhood — the standard ln-Delta-approximate
   greedy, parallelized by 2-hop symmetry breaking.
2. **Connection** a la Guha-Khuller: cluster every node under an adjacent
   dominator, then run Boruvka-over-PA on the cluster partition, adding
   both endpoints of each chosen inter-cluster edge as connectors.  At
   most two connectors per merge keeps the final size within 3x the
   dominating set, preserving the O(log n) approximation against the CDS
   optimum (which is at least the domination optimum).

Every step is metered; the connection phase is where PA's
O~(D + sqrt n) rounds / O~(m) messages dominate, as in the corollary.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set, Tuple

from ..congest.engine import Context, Engine, Inbox, Program
from ..congest.ledger import CostLedger, RunResult
from ..congest.message import ceil_log2
from ..congest.network import Network
from ..graphs.partitions import partition_from_component_labels
from ..core.aggregation import MIN_TUPLE
from ..core.pa import RANDOMIZED
from ..core.star_joining import (
    chosen_edges,
    note_merge_round,
    outgoing_picks,
    rank_joins,
    spread_seed,
)
from ..runtime import PASession, ensure_session


class _SpanExchangeProgram(Program):
    """Two rounds: spans to neighbors, then neighborhood maxima back out."""

    name = "cds_span_exchange"

    def __init__(self, net: Network, span: Sequence[int]) -> None:
        self.net = net
        self.span = span
        self.best_seen: List[Tuple[int, int]] = [
            (span[v], net.uid[v]) for v in range(net.n)
        ]
        self.best_two_hop: List[Tuple[int, int]] = list(self.best_seen)
        self._phase_one_done = False

    def on_start(self, ctx: Context) -> None:
        for v in range(self.net.n):
            for nb in self.net.neighbors[v]:
                ctx.send(v, nb, ("sp", self.span[v], self.net.uid[v]))

    def on_node(self, ctx: Context, node: int, inbox: Inbox) -> None:
        rebroadcast = False
        for _sender, payload in inbox:
            tag = payload[0]
            cand = (payload[1], payload[2])
            if tag == "sp":
                if cand > self.best_seen[node]:
                    self.best_seen[node] = cand
                rebroadcast = True
            else:
                if cand > self.best_two_hop[node]:
                    self.best_two_hop[node] = cand
        if rebroadcast:
            if self.best_two_hop[node] < self.best_seen[node]:
                self.best_two_hop[node] = self.best_seen[node]
            span, uid = self.best_seen[node]
            for nb in self.net.neighbors[node]:
                ctx.send(node, nb, ("mx", span, uid))


def _greedy_dominating_set(
    net: Network, ledger: CostLedger, engine: Engine
) -> Set[int]:
    """Distributed greedy dominating set with 2-hop symmetry breaking."""
    dominated = [False] * net.n
    dominators: Set[int] = set()
    cap = 4 * ceil_log2(net.n) + net.n
    iteration = 0
    while not all(dominated):
        iteration += 1
        if iteration > cap:
            raise RuntimeError("greedy dominating set failed to converge")
        span = [0] * net.n
        for v in range(net.n):
            count = 0 if dominated[v] else 1
            count += sum(1 for nb in net.neighbors[v] if not dominated[nb])
            span[v] = count
        # One round so neighbors know each other's domination status is
        # folded into the span computation above.
        ledger.charge_local("cds_status_exchange", rounds=1, messages=2 * net.m)

        exchange = _SpanExchangeProgram(net, span)
        ledger.charge(engine.run(exchange, max_ticks=4))

        joined = []
        for v in range(net.n):
            if span[v] == 0 or v in dominators:
                continue
            if (span[v], net.uid[v]) >= exchange.best_two_hop[v]:
                joined.append(v)
        for v in joined:
            dominators.add(v)
            dominated[v] = True
            for nb in net.neighbors[v]:
                dominated[nb] = True
        # Joiners announce membership to their neighborhoods.
        ledger.charge_local(
            "cds_join_announce", rounds=1,
            messages=sum(net.degree(v) for v in joined),
        )
    return dominators


def connected_dominating_set(
    net: Network,
    mode: str = RANDOMIZED,
    seed: int = 0,
    session: Optional[PASession] = None,
) -> RunResult:
    """Compute an O(log n)-approximate CDS; returns the node set.

    The Boruvka-over-PA connection phase acquires PA through ``session``:
    a reusing session coarsens across merge phases.
    """
    session = ensure_session(session, net, mode=mode, seed=seed)
    solver = session.solver
    ledger = CostLedger()
    ledger.merge(solver.tree_ledger, prefix="tree:")
    engine = solver.engine
    n = net.n

    dominators = _greedy_dominating_set(net, ledger, engine)
    cds: Set[int] = set(dominators)
    if n == 1:
        return RunResult(output=frozenset(cds or {0}), ledger=ledger, meta={})

    # Cluster every node under its minimum-uid adjacent dominator.
    cluster: List[int] = [-1] * n
    for v in range(n):
        if v in dominators:
            cluster[v] = v
            continue
        candidates = [nb for nb in net.neighbors[v] if nb in dominators]
        cluster[v] = min(candidates, key=lambda u: net.uid[u])
    ledger.charge_local("cds_cluster_assign", rounds=1, messages=2 * net.m)

    # Boruvka-over-PA on clusters: each phase every cluster component picks
    # one outgoing edge, a star joining by rank under one public seed merges
    # (MST's rule and exchange); both endpoints of a join become connectors.
    seed_at = spread_seed(engine, solver.tree, ledger, "cds", seed ^ 0xCD5)
    comp = list(cluster)
    cap = 4 * ceil_log2(n) + 8
    prev_setup = None
    for phase in range(1, cap + 1):
        partition = partition_from_component_labels(comp)
        if partition.num_parts == 1:
            break
        setup = session.prepare_incremental(prev_setup, partition)
        ledger.merge(setup.setup_ledger, prefix="cds_setup:")
        prev_setup = setup

        # A component's id is the uid of the dominator that labels it.
        announced = [net.uid[rep] for rep in comp]
        picked = session.solve(
            setup, outgoing_picks(net, comp, announced=announced), MIN_TUPLE,
            charge_setup=False, phase_prefix="cds_pick",
        )
        ledger.merge(picked.ledger)

        chosen = chosen_edges(
            net, partition.part_of, picked.aggregates, announced=True
        )
        joins = rank_joins(
            engine, ledger, "cds", phase,
            seed_at, announced, picked.value_at_node, chosen,
        )
        note_merge_round(
            "cds", phase, partition.num_parts, len(chosen), len(joins)
        )
        for sid, (u, v_nb, target_sid) in joins.items():
            cds.add(u)
            cds.add(v_nb)
            target_rep = comp[partition.members[target_sid][0]]
            for v in partition.members[sid]:
                comp[v] = target_rep
    else:
        raise RuntimeError("CDS connection phase did not converge")

    return RunResult(
        output=frozenset(cds),
        ledger=ledger,
        meta={"dominators": frozenset(dominators), "connectors": len(cds) - len(dominators)},
    )
