"""RootedForest invariants and helpers."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import ABSENT, ROOT, RootedForest
from repro.graphs import grid_2d, path_graph, random_connected
from oracles import restrict_roots, root_of, spanning_forest_of_subsets


def test_single_tree_structure(path10):
    parent = [ROOT] + list(range(9))
    forest = RootedForest(path10, parent)
    assert forest.roots == (0,)
    assert forest.depth[9] == 9
    assert forest.height() == 9
    assert forest.children[3] == (4,)
    assert root_of(forest, 7) == 0


def test_forest_with_absent_nodes(path10):
    parent = [ROOT, 0, 1, ABSENT, ABSENT, 5 + ROOT * 0 - 6, 5, 6, ABSENT, ABSENT]
    parent[5] = ROOT
    forest = RootedForest(path10, parent)
    assert forest.roots == (0, 5)
    assert not forest.member(3)
    assert len(forest.order) == 6


def test_rejects_non_edge_parent(path10):
    parent = [ROOT] * 10
    parent[5] = 2  # (5, 2) is not a path edge
    with pytest.raises(ValueError):
        RootedForest(path10, parent)


def test_rejects_cycles():
    net = grid_2d(2, 2)  # 0-1, 0-2, 1-3, 2-3
    parent = [1, 3, ROOT, 2]
    parent[0] = 1
    parent[1] = 3
    parent[3] = 2
    parent[2] = 0  # cycle 0->1->3->2->0
    with pytest.raises(ValueError):
        RootedForest(net, parent)


def test_subtree_helpers(path10):
    forest = RootedForest(path10, [ROOT] + list(range(9)))
    assert forest.subtree_nodes(7) == [7, 8, 9]


def test_restrict_roots(path10):
    parent = [ROOT, 0, 1, 2, 3, ROOT, 5, 6, 7, 8]
    forest = RootedForest(path10, parent)
    groups = restrict_roots(forest)
    assert sorted(groups[0]) == [0, 1, 2, 3, 4]
    assert sorted(groups[5]) == [5, 6, 7, 8, 9]


def test_spanning_forest_of_subsets(grid4x6):
    groups = [range(0, 12), range(12, 24)]
    forest = spanning_forest_of_subsets(grid4x6, groups)
    assert len(forest.roots) == 2
    assert len(forest.order) == 24
    with pytest.raises(ValueError):
        spanning_forest_of_subsets(grid4x6, [[0, 23]])  # not connected


def test_plan_is_computed_once_per_forest(path10):
    forest = RootedForest(path10, [ROOT, 0, 1, ROOT, 3, 4, ABSENT, ROOT, 7, 8])
    plan = forest.plan
    assert forest.plan is plan
    assert plan.root_of.tolist() == [0, 0, 0, 3, 3, 3, 6, 7, 7, 7]
    assert [(n.tolist(), p.tolist()) for n, p in plan.levels] == [
        ([1, 4, 8], [0, 3, 7]), ([2, 5, 9], [1, 4, 8]),
    ]
    # Convergecast schedule: leaves at tick 0, then their parents.
    groups = plan.send_groups.tolist()
    assert [
        plan.senders[lo:hi].tolist() for lo, hi in zip(groups, groups[1:])
    ] == [[2, 5, 9], [1, 4, 8], []]
    assert plan.root_fire.tolist() == [0, 3, 7]


def test_plans_are_never_shared_between_forests(path10):
    chain = [ROOT] + list(range(9))
    split = [ROOT, 0, 1, 2, 3, ROOT, 5, 6, 7, 8]
    one, other, twin = (
        RootedForest(path10, chain), RootedForest(path10, split),
        RootedForest(path10, chain),
    )
    assert one.plan is not other.plan and one.plan is not twin.plan
    assert one.plan.root_of.tolist() == [0] * 10
    assert other.plan.root_of.tolist() == [0] * 5 + [5] * 5
    assert len(one.plan.levels) == 9 and len(other.plan.levels) == 4
    # An equal forest gets an equal plan of its own.
    assert twin.plan.senders.tolist() == one.plan.senders.tolist()


def _random_forest(net, rng):
    """A BFS tree of ``net`` cut into pieces: some nodes become roots and
    a few of the roots leave, taking their descendants with them."""
    tree = spanning_forest_of_subsets(net, [range(net.n)])
    parent = list(tree.parent)
    for v in tree.order:
        p = parent[v]
        if p >= 0 and (parent[p] == ABSENT or rng.random() < 0.3):
            parent[v] = ABSENT if parent[p] == ABSENT else ROOT
        elif p == ROOT and rng.random() < 0.2:
            parent[v] = ABSENT
    for v in tree.order:  # the descendants of a dropped node go with it
        if parent[v] >= 0 and parent[parent[v]] == ABSENT:
            parent[v] = ABSENT
    return parent


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 40), density=st.floats(0.05, 0.4),
       seed=st.integers(0, 10_000))
def test_forest_columns_match_the_per_node_construction(n, density, seed):
    rng = random.Random(seed)
    net = random_connected(n, density, seed=seed)
    parent = _random_forest(net, rng)
    forest = RootedForest(net, parent)
    assert forest.children == tuple(
        tuple(c for c in range(n) if parent[c] == v) for v in range(n)
    )
    assert forest.roots == tuple(v for v in range(n) if parent[v] == ROOT)
    # A restriction is the forest its parent pointers would build.
    keep = {r for r in forest.roots if rng.random() < 0.5}
    sub = forest.restrict(keep)
    fresh = RootedForest(net, [
        p if forest.member(v) and root_of(forest, v) in keep else ABSENT
        for v, p in enumerate(parent)
    ])
    for attr in ("parent", "depth", "order", "roots", "children"):
        assert getattr(sub, attr) == getattr(fresh, attr), attr
    assert sub.height() == fresh.height()
    for attr in ("by_level", "level_starts", "root_of", "senders",
                 "sender_parents", "send_groups", "root_fire"):
        assert getattr(sub.plan, attr).tolist() == getattr(
            fresh.plan, attr
        ).tolist(), attr

    # The first offending (child, parent) in node order is named.
    bad = [
        (v, p) for v in range(n) for p in range(n + 2)
        if not net.has_edge(v, p)
    ]
    if bad:
        v, p = bad[rng.randrange(len(bad))]
        broken = list(parent)
        broken[v] = p
        first = min(
            u for u in range(n)
            if broken[u] >= 0 and not net.has_edge(u, broken[u])
        )
        with pytest.raises(ValueError, match=(
            rf"forest parent edge \({first}, {broken[first]}\) is not a "
            "network edge"
        )):
            RootedForest(net, broken)


def test_rejects_a_parent_outside_the_network_and_a_cycle_of_edges(path10):
    # (0, 10) packs to the key of the edge (1, 0): still not an edge
    with pytest.raises(ValueError, match=r"\(0, 10\) is not a network edge"):
        RootedForest(path10, [10] + [ROOT] * 9)
    with pytest.raises(ValueError, match="cycle"):
        RootedForest(path10, [1, 0] + [ROOT] * 8)
