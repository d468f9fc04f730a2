"""Vertex partitions for Part-Wise Aggregation instances.

A :class:`Partition` assigns every node to exactly one part; Definition 1.1
additionally requires every part to induce a connected subgraph, which
:func:`validate_partition` checks.  Generators here produce the workload
partitions used throughout the tests and benchmarks:

* :func:`row_partition` — each grid row is a part (the Figure 2a workload);
* :func:`bfs_ball_partition` — random connected clusters of a target size;
* :func:`random_connected_partition` — random forest-grown parts;
* :func:`singleton_partition` / :func:`whole_graph_partition` — extremes.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..congest.errors import InvalidPartitionError
from ..congest.network import Network


class Partition:
    """An assignment of the n nodes into parts ``0..num_parts-1``.

    The canonical representation is ``part_of``: a list mapping node ->
    part id.  Part ids are always contiguous starting at zero.
    """

    def __init__(self, part_of: Sequence[int]) -> None:
        if len(part_of) == 0:
            raise InvalidPartitionError("partition of an empty node set")
        ids = sorted(set(part_of))
        if ids != list(range(len(ids))):
            raise InvalidPartitionError(
                "part ids must be contiguous integers starting at 0"
            )
        self.part_of: Tuple[int, ...] = tuple(part_of)
        self.num_parts: int = len(ids)
        members: List[List[int]] = [[] for _ in range(self.num_parts)]
        for node, pid in enumerate(self.part_of):
            members[pid].append(node)
        self.members: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(part) for part in members
        )

    @classmethod
    def from_groups(cls, groups: Iterable[Iterable[int]], n: int) -> "Partition":
        """Build a partition from explicit member groups covering 0..n-1."""
        part_of = [-1] * n
        for pid, group in enumerate(groups):
            for node in group:
                if part_of[node] != -1:
                    raise InvalidPartitionError(
                        f"node {node} appears in two parts"
                    )
                part_of[node] = pid
        if any(pid == -1 for pid in part_of):
            missing = [v for v, pid in enumerate(part_of) if pid == -1]
            raise InvalidPartitionError(f"nodes not covered: {missing[:5]}")
        return cls(part_of)

    def size_of(self, pid: int) -> int:
        """Number of nodes in part ``pid``."""
        return len(self.members[pid])

    def __len__(self) -> int:
        return self.num_parts

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Partition(num_parts={self.num_parts}, n={len(self.part_of)})"


def validate_partition(net: Network, partition: Partition) -> None:
    """Check the Definition 1.1 preconditions; raise if violated.

    Every part must induce a connected subgraph of ``net`` and the
    partition must cover exactly the network's node set.
    """
    if len(partition.part_of) != net.n:
        raise InvalidPartitionError(
            f"partition covers {len(partition.part_of)} nodes, network has {net.n}"
        )
    for pid, members in enumerate(partition.members):
        if not members:
            raise InvalidPartitionError(f"part {pid} is empty")
        member_set = set(members)
        seen = {members[0]}
        stack = [members[0]]
        while stack:
            u = stack.pop()
            for v in net.neighbors[u]:
                if v in member_set and v not in seen:
                    seen.add(v)
                    stack.append(v)
        if len(seen) != len(member_set):
            raise InvalidPartitionError(
                f"part {pid} does not induce a connected subgraph"
            )


def singleton_partition(net: Network) -> Partition:
    """Every node is its own part."""
    return Partition(list(range(net.n)))


def whole_graph_partition(net: Network) -> Partition:
    """All nodes in one part (requires a connected network)."""
    return Partition([0] * net.n)


def row_partition(rows: int, cols: int, include_apex: bool = False) -> Partition:
    """Each grid row is one part; Figure 2a's workload.

    If ``include_apex`` the apex node (index rows*cols) joins row 0's part,
    keeping the part connected through the apex edges.
    """
    part_of = [r for r in range(rows) for _ in range(cols)]
    if include_apex:
        part_of.append(0)
    return Partition(part_of)


def bfs_ball_partition(
    net: Network, target_size: int, seed: int = 7
) -> Partition:
    """Connected parts grown as BFS balls of roughly ``target_size`` nodes.

    Seeds are chosen at random; each seed claims unclaimed nodes in BFS
    order until it reaches the target size, then the next seed starts.
    Leftover unclaimed nodes are attached to an adjacent part, keeping all
    parts connected.
    """
    if target_size < 1:
        raise ValueError("target size must be positive")
    rng = random.Random(seed)
    order = list(range(net.n))
    rng.shuffle(order)
    part_of = [-1] * net.n
    next_pid = 0
    for seed_node in order:
        if part_of[seed_node] != -1:
            continue
        pid = next_pid
        next_pid += 1
        part_of[seed_node] = pid
        frontier = [seed_node]
        size = 1
        while frontier and size < target_size:
            nxt = []
            for u in frontier:
                for v in net.neighbors[u]:
                    if part_of[v] == -1:
                        part_of[v] = pid
                        nxt.append(v)
                        size += 1
                        if size >= target_size:
                            break
                if size >= target_size:
                    break
            frontier = nxt
    return Partition(part_of)


def random_connected_partition(
    net: Network, num_parts: int, seed: int = 7
) -> Partition:
    """Exactly ``num_parts`` connected parts grown by competitive BFS.

    ``num_parts`` random seeds expand simultaneously, claiming unclaimed
    neighbors in random order, so the parts tile the graph and each part is
    connected by construction.
    """
    if not 1 <= num_parts <= net.n:
        raise ValueError("num_parts must be in [1, n]")
    rng = random.Random(seed)
    seeds = rng.sample(range(net.n), num_parts)
    part_of = [-1] * net.n
    frontiers: List[List[int]] = []
    for pid, s in enumerate(seeds):
        part_of[s] = pid
        frontiers.append([s])
    remaining = net.n - num_parts
    while remaining > 0:
        progressed = False
        for pid in range(num_parts):
            new_frontier = []
            for u in frontiers[pid]:
                for v in net.neighbors[u]:
                    if part_of[v] == -1:
                        part_of[v] = pid
                        new_frontier.append(v)
                        remaining -= 1
                        progressed = True
            if new_frontier:
                frontiers[pid] = new_frontier
        if not progressed:
            raise InvalidPartitionError(
                "network is disconnected; cannot tile with connected parts"
            )
    return Partition(part_of)


def partition_from_component_labels(labels: Sequence[int]) -> Partition:
    """Compress arbitrary component labels into a contiguous Partition."""
    remap: Dict[int, int] = {}
    part_of = []
    for label in labels:
        if label not in remap:
            remap[label] = len(remap)
        part_of.append(remap[label])
    return Partition(part_of)


def boundary_edges(net: Network, partition: Partition) -> List[Tuple[int, int]]:
    """All edges whose endpoints lie in different parts."""
    out = []
    for u, v in net.edges:
        if partition.part_of[u] != partition.part_of[v]:
            out.append((u, v))
    return out
