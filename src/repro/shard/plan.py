"""Shard plans: conflict components of a PA setup, binned into shards.

A wave pass places traffic on three kinds of edges:

* sub-part forest edges and wave-boundary edges — always *in-part*;
* spanning-tree edges ``(c, tparent[c])`` with ``up_parts[c]`` nonempty
  — used by exactly the parts in ``up_parts[c]`` (``ku``/``kd``), and
  *additionally* by ``part_of[c]`` when the tree edge is itself an
  in-part edge (it can then carry that part's ``ru``/``su``/``bd``
  traffic too).

Two parts conflict when some tree edge serves both.  Union-finding the
per-edge user sets yields the *conflict components*: part groups whose
wave traffic is edge-disjoint and state-disjoint from every other
group's, which is what makes a component's phases replay bit-for-bit in
isolation (see docs/architecture.md, "Sharded backend").

Components are binned into at most ``workers`` shards deterministically:
sorted by (node count desc, min part id), each assigned to the currently
least-loaded bin with ties broken by bin index.  The binning depends
only on the setup, never on timing, so shard composition — and therefore
the merged ledger — is reproducible run to run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..core.pa import PASetup


@dataclass(frozen=True)
class ShardPlan:
    """Deterministic assignment of parts to worker shards.

    ``shard_parts[s]`` lists the global part ids of shard ``s``, sorted
    ascending; every part appears in exactly one shard.
    ``num_components`` is the number of conflict components before
    binning (the parallelism ceiling of this setup).
    """

    shard_parts: Tuple[Tuple[int, ...], ...]
    num_components: int


class _UnionFind:
    __slots__ = ("parent",)

    def __init__(self, n: int) -> None:
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        parent = self.parent
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            # Smaller root id wins: keeps component labels deterministic.
            if rb < ra:
                ra, rb = rb, ra
            self.parent[rb] = ra


def conflict_components(setup: PASetup) -> List[List[int]]:
    """Group the setup's parts into conflict components.

    Returns the components as sorted part-id lists, ordered by their
    minimum part id.  Parts that touch no used tree edge form singleton
    components.
    """
    partition = setup.partition
    part_of = partition.part_of
    tparent = setup.shortcut.tree.parent
    uf = _UnionFind(partition.num_parts)
    for c, parts in enumerate(setup.shortcut.up_parts):
        if not parts:
            continue
        users = list(parts)
        p = tparent[c]
        if p >= 0 and part_of[c] == part_of[p]:
            users.append(part_of[c])
        first = users[0]
        for pid in users[1:]:
            uf.union(first, pid)
    groups: dict = {}
    for pid in range(partition.num_parts):
        groups.setdefault(uf.find(pid), []).append(pid)
    return [groups[root] for root in sorted(groups)]


def build_shard_plan(setup: PASetup, workers: int) -> ShardPlan:
    """Bin the setup's conflict components into ``workers`` shards.

    Longest-processing-time binning over component node counts: sort by
    (size desc, min pid asc), assign each to the least-loaded bin (ties:
    lowest bin index).  With fewer components than workers, each
    component gets its own shard.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    components = conflict_components(setup)
    sizes = [
        sum(setup.partition.size_of(pid) for pid in comp)
        for comp in components
    ]
    num_shards = min(workers, len(components))
    order = sorted(
        range(len(components)), key=lambda i: (-sizes[i], components[i][0])
    )
    load = [0] * num_shards
    bins: List[List[int]] = [[] for _ in range(num_shards)]
    for i in order:
        target = min(range(num_shards), key=lambda s: (load[s], s))
        bins[target].extend(components[i])
        load[target] += sizes[i]
    return ShardPlan(
        shard_parts=tuple(tuple(sorted(b)) for b in bins),
        num_components=len(components),
    )
