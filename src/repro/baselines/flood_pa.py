"""Intra-part flooding PA: message-frugal but round-suboptimal baseline.

The obvious shortcut-free PA: each part elects a leader by flood-min over
its own edges, builds the election tree, convergecasts ``f`` and
broadcasts the result.  Messages are near-optimal (O(sum_i m_i) = O(m)),
but rounds are Theta(max part diameter), which can be Theta(n) even on
graphs of diameter 2 — the round-suboptimality low-congestion shortcuts
exist to fix (Section 2.2).  Benchmarks use it as the "no shortcuts" arm.
"""

from __future__ import annotations

from typing import Sequence

from ..congest.engine import Engine
from ..congest.ledger import CostLedger, RunResult
from ..congest.network import Network
from ..graphs.partitions import Partition
from ..core.aggregation import Aggregation
from ..core.spanning_tree import ack_parents
from ..core.treeops import (
    BroadcastProgram,
    ConvergecastProgram,
    FloodMinProgram,
)
from ..core.trees import RootedForest


def flood_pa(
    net: Network,
    partition: Partition,
    values: Sequence[object],
    agg: Aggregation,
    seed: int = 0,
) -> RunResult:
    """Flood-based PA; returns per-part aggregates (and per-node values)."""
    ledger = CostLedger()
    engine = Engine(net)
    part_of = partition.part_of

    def same_part(u: int, v: int) -> bool:
        return part_of[u] == part_of[v]

    flood = FloodMinProgram(
        net, tokens={v: net.uid[v] for v in range(net.n)}, allowed=same_part
    )
    flood.name = "flood_pa_election"
    ledger.charge(engine.run(flood, max_ticks=net.n + 2))

    # One ack round so parents know their children (as in leader election).
    ack_parents(engine, flood.parent_of, ledger, "flood_pa_child_ack")
    forest = RootedForest(net, flood.parent_of)

    up = ConvergecastProgram(forest, agg, values)
    up.name = "flood_pa_convergecast"
    ledger.charge(engine.run(up, max_ticks=forest.height() + 3))

    down = BroadcastProgram(
        forest, {leader: up.at_root[leader] for leader in forest.roots}
    )
    down.name = "flood_pa_broadcast"
    ledger.charge(engine.run(down, max_ticks=forest.height() + 3))

    aggregates = {
        part_of[leader]: up.at_root[leader] for leader in forest.roots
    }
    value_at_node = [down.received.get(v) for v in range(net.n)]
    return RunResult(
        output=aggregates,
        ledger=ledger,
        meta={
            "value_at_node": value_at_node,
            "max_part_tree_depth": forest.height(),
        },
    )
