"""Thurimella-style connected components labeling (Appendix A.2).

Given a subgraph ``H`` of the network (each node knows which of its
incident edges are in ``H``), every node learns a label such that two
nodes share a label iff they are ``H``-connected — the workhorse of the
Das Sarma et al. verification suite [5] and of Ghaffari's CDS algorithm.

As the paper observes, this *is* Part-Wise Aggregation: the parts are the
components of ``H`` (connected in G because they are connected in H), the
value is the node uid and ``f = min``; the minimum uid doubles as both the
component's elected leader and its label.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..congest.ledger import CostLedger, RunResult
from ..congest.network import Network, canonical_edge
from ..graphs.partitions import Partition, partition_from_component_labels
from ..core.aggregation import MIN
from ..core.pa import RANDOMIZED
from ..runtime import PASession, ensure_session


def components_partition(
    net: Network, subgraph_edges: Sequence[Tuple[int, int]]
) -> Partition:
    """The partition of V into H-components (orchestrator bookkeeping).

    Node-locally this partition is *implicit* — each node knows its
    incident H-edges — which is exactly the input format of PA; the
    explicit Partition object mirrors that knowledge for the simulator.
    """
    adj: List[List[int]] = [[] for _ in range(net.n)]
    for u, v in subgraph_edges:
        if not net.has_edge(u, v):
            raise ValueError(f"subgraph edge {(u, v)} is not a network edge")
        adj[u].append(v)
        adj[v].append(u)
    label = [-1] * net.n
    for start in range(net.n):
        if label[start] != -1:
            continue
        label[start] = start
        stack = [start]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if label[y] == -1:
                    label[y] = start
                    stack.append(y)
    return partition_from_component_labels(label)


def cc_labeling(
    net: Network,
    subgraph_edges: Sequence[Tuple[int, int]],
    mode: str = RANDOMIZED,
    seed: int = 0,
    session: Optional[PASession] = None,
) -> RunResult:
    """Label H-components with their minimum member uid, via one PA solve.

    Returns labels per node in ``output`` (a list), with the PA setup and
    session kept in ``meta`` for callers chaining further aggregations
    over the same components (the verification suite does this heavily).
    A reusing session also memoizes the setup on the component partition,
    so repeated labelings of the same subgraph are construction-free.
    """
    session = ensure_session(session, net, mode=mode, seed=seed)
    solver = session.solver
    partition = components_partition(net, subgraph_edges)
    setup = session.prepare(partition)
    result = session.solve(
        setup, [net.uid[v] for v in range(net.n)], MIN,
        phase_prefix="cc_label",
    )
    labels = [result.value_at_node[v] for v in range(net.n)]
    ledger = CostLedger()
    ledger.merge(solver.tree_ledger, prefix="tree:")
    ledger.merge(result.ledger)
    return RunResult(
        output=labels,
        ledger=ledger,
        meta={
            "setup": setup,
            "partition": partition,
            "solver": solver,
            "session": session,
        },
    )
