"""Distributed block annotation vs. the structural oracle."""

from hypothesis import given, settings, strategies as st

from repro.congest import CostLedger, Engine
from repro.core import (
    ROOT,
    RootedForest,
    Shortcut,
    annotate_blocks,
    bfs_tree,
)
from repro.graphs import (
    Partition,
    grid_2d,
    path_graph,
    random_connected,
    random_connected_partition,
)

from twins import priority_depth, twin_phases


def test_annotation_matches_oracle_blocks(path10, ledger):
    tree = RootedForest(path10, [ROOT] + list(range(9)))
    part = Partition([0] * 5 + [1] * 5)
    up = [set() for _ in range(10)]
    up[3] = {0}
    up[4] = {0}
    up[7] = {1}
    sc = Shortcut(tree, part, up)
    engine = Engine(path10)
    ann = annotate_blocks(engine, sc, ledger)
    # Part 0's block spans nodes 2,3,4 rooted at 2 (depth 2); part 1's
    # spans 6,7 rooted at 6.
    rows = zip(ann.node.tolist(), ann.pid.tolist(), ann.depth.tolist())
    assert set(rows) == {(2, 0, 2), (3, 0, 2), (4, 0, 2), (6, 1, 6), (7, 1, 6)}
    assert priority_depth(ann, 4, 0) == 2
    assert priority_depth(ann, 5, 0) == 1 << 30
    # Counting token lands at the deepest chain node (a part member).
    counts = ann.block_counts(2)
    assert counts == [1, 1]


def test_annotation_counts_disjoint_blocks(path10, ledger):
    tree = RootedForest(path10, [ROOT] + list(range(9)))
    part = Partition([0] * 10)
    up = [set() for _ in range(10)]
    up[2] = {0}
    up[6] = {0}
    up[7] = {0}
    sc = Shortcut(tree, part, up)
    ann = annotate_blocks(Engine(path10), sc, ledger)
    assert ann.block_counts(1) == [2]


def test_annotation_cost_bounds(grid4x6, ledger):
    engine = Engine(grid4x6)
    tree = bfs_tree(engine, grid4x6, 0, CostLedger()).tree
    part = Partition([v % 2 for v in range(grid4x6.n)])
    # Hand the parts alternating claims up the tree (legal: prefixes).
    up = [set() for _ in range(grid4x6.n)]
    for v in range(grid4x6.n):
        if tree.parent[v] >= 0:
            up[v] = {v % 2}
    # Not a valid "connected parts" partition for PA, but annotation only
    # cares about the H_i structure, which is well-formed here.
    sc = Shortcut.__new__(Shortcut)
    sc.tree = tree
    sc.partition = part
    sc.up_parts = tuple(frozenset(s) for s in up)
    ann = annotate_blocks(engine, sc, ledger)
    stats = ledger.phases()[-1]
    # One message per H_i edge plus counting tokens.
    total_edges = sum(len(s) for s in up)
    assert stats.messages <= 2 * total_edges + grid4x6.n


@st.composite
def _claimed_shortcut(draw):
    """A T-restricted shortcut over a random partition, built the way the
    constructions build one: part members climb the BFS tree, each adding
    its part to the parent edges it crosses."""
    net = random_connected(
        draw(st.integers(2, 40)), draw(st.sampled_from([0.0, 0.1, 0.3])),
        seed=draw(st.integers(0, 10**6)), uid_seed=draw(st.integers(0, 50)),
    )
    partition = random_connected_partition(
        net, draw(st.integers(1, max(1, net.n // 2))),
        seed=draw(st.integers(0, 99)),
    )
    root = draw(st.integers(0, net.n - 1))
    tree = bfs_tree(Engine(net), net, root, CostLedger()).tree
    up = [set() for _ in range(net.n)]
    climbers = draw(st.lists(st.integers(0, net.n - 1), max_size=net.n))
    for v in climbers:
        pid = partition.part_of[v]
        for _ in range(draw(st.integers(0, 6))):
            if tree.parent[v] < 0:
                break
            up[v].add(pid)
            v = tree.parent[v]
    return Shortcut(tree, partition, up)


def _annotate(shortcut, impl, capacity):
    """Annotation rows, token multiset and phase stats on one twin."""
    ledger = CostLedger()
    engine = Engine(shortcut.tree.net, strict_bits=True)
    with twin_phases(impl == "scalar"):
        ann = annotate_blocks(engine, shortcut, ledger, capacity=capacity)
    rows = list(zip(ann.node.tolist(), ann.pid.tolist(), ann.depth.tolist()))
    assert len(set((v, pid) for v, pid, _ in rows)) == len(rows)
    tokens = sorted(zip(ann.token_node.tolist(), ann.token_pid.tolist()))
    stats = [
        (p.name, p.rounds, p.messages, p.ticks, p.bits)
        for p in ledger.phases()
    ]
    return set(rows), tokens, stats, ann


@settings(max_examples=100, deadline=None)
@given(_claimed_shortcut(), st.sampled_from([1, 2]))
def test_annotation_twins_store_the_same_columns(shortcut, capacity):
    *scalar, ann = _annotate(shortcut, "scalar", capacity)
    *array, _ = _annotate(shortcut, "array", capacity)
    assert array == scalar
    # One token per nontrivial block: the structural block count.
    num_parts = shortcut.partition.num_parts
    assert [
        max(1, count) for count in ann.block_counts(num_parts)
    ] == shortcut.block_parameters()
