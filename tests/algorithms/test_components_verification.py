"""CC labeling and the verification suite vs. sequential oracles."""

import pytest

from repro.algorithms import (
    cc_labeling,
    verify_bipartiteness,
    verify_connectivity,
    verify_cut,
    verify_cycle_containment,
    verify_spanning_tree,
    verify_st_connectivity,
    verify_st_cut,
)
from repro.analysis import kruskal_mst
from repro.graphs import (
    grid_2d,
    path_graph,
    random_connected,
    with_distinct_weights,
)
from oracles import connected_components, cycle_graph


def test_cc_labels_match_oracle(small_random):
    edges = [e for i, e in enumerate(small_random.edges) if i % 3 != 0]
    run = cc_labeling(small_random, edges, seed=1)
    oracle = connected_components(small_random, edges)
    # Same label iff same oracle component.
    for u in range(small_random.n):
        for v in range(u + 1, small_random.n):
            assert (run.output[u] == run.output[v]) == (oracle[u] == oracle[v])


def test_cc_label_is_min_member_uid(small_random):
    edges = list(small_random.edges)[::2]
    run = cc_labeling(small_random, edges, seed=2)
    oracle = connected_components(small_random, edges)
    groups = {}
    for v in range(small_random.n):
        groups.setdefault(oracle[v], []).append(v)
    for members in groups.values():
        expect = min(small_random.uid[v] for v in members)
        for v in members:
            assert run.output[v] == expect


def test_verify_connectivity_positive_and_negative(small_random):
    full = verify_connectivity(small_random, list(small_random.edges), seed=3)
    assert full.output is True
    partial = verify_connectivity(small_random, list(small_random.edges)[:3], seed=4)
    assert partial.output is False


def test_verify_st_connectivity(path10):
    edges = [(0, 1), (1, 2), (5, 6)]
    yes = verify_st_connectivity(path10, edges, 0, 2, seed=5)
    assert yes.output is True
    no = verify_st_connectivity(path10, edges, 0, 6, seed=6)
    assert no.output is False
    same = verify_st_connectivity(path10, edges, 4, 4, seed=7)
    assert same.output is True


def test_verify_cut(grid4x6):
    # Removing all edges between columns 2 and 3 disconnects the grid.
    cut = [
        (r * 6 + 2, r * 6 + 3) for r in range(4)
    ]
    yes = verify_cut(grid4x6, cut, seed=8)
    assert yes.output is True
    no = verify_cut(grid4x6, cut[:2], seed=9)
    assert no.output is False


def test_verify_st_cut(path10):
    result = verify_st_cut(path10, [(4, 5)], 0, 9, seed=10)
    assert result.output is True
    result = verify_st_cut(path10, [(4, 5)], 0, 3, seed=11)
    assert result.output is False


def test_verify_spanning_tree(weighted_random):
    tree = kruskal_mst(weighted_random)
    yes = verify_spanning_tree(weighted_random, list(tree), seed=12)
    assert yes.output is True
    missing = list(tree)[:-1]
    assert verify_spanning_tree(weighted_random, missing, seed=13).output is False
    extra = list(weighted_random.edges)
    assert verify_spanning_tree(weighted_random, extra, seed=14).output is False


def test_verify_cycle_containment(grid4x6):
    face = [(0, 1), (1, 7), (7, 6), (6, 0)]
    assert verify_cycle_containment(grid4x6, face, seed=15).output is True
    tree_like = [(0, 1), (1, 2), (2, 3)]
    assert verify_cycle_containment(grid4x6, tree_like, seed=16).output is False


def test_verify_bipartiteness():
    even = cycle_graph(8)
    assert verify_bipartiteness(even, list(even.edges), seed=17).output is True
    odd = cycle_graph(9)
    assert verify_bipartiteness(odd, list(odd.edges), seed=18).output is False


def test_verification_costs_are_pa_dominated(small_random):
    run = verify_connectivity(small_random, list(small_random.edges), seed=19)
    by_name = run.ledger.by_name()
    pa_msgs = sum(
        s.messages for name, s in by_name.items() if "cc_label" in name
    )
    extra_msgs = sum(
        s.messages for name, s in by_name.items() if "connectivity" in name
    )
    assert extra_msgs <= pa_msgs + 4 * small_random.n
