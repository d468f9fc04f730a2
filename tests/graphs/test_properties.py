"""Structural oracles: the shipped checks the corollary experiments
assert, and the component oracle the tests use."""

from repro.analysis import (
    cut_weight,
    induces_connected_subgraph,
    is_dominating_set,
    is_k_dominating_set,
)
from repro.graphs import grid_2d, path_graph, with_planted_cut
from oracles import connected_components


def test_connected_components_full_graph():
    net = path_graph(5)
    assert connected_components(net) == [0] * 5


def test_connected_components_subgraph():
    net = path_graph(5)
    labels = connected_components(net, [(0, 1), (3, 4)])
    assert labels[0] == labels[1]
    assert labels[3] == labels[4]
    assert labels[0] != labels[2] != labels[3]


def test_dominating_checks():
    net = path_graph(5)
    assert is_dominating_set(net, {1, 3})
    assert not is_dominating_set(net, {0})
    assert is_k_dominating_set(net, {2}, 2)
    assert not is_k_dominating_set(net, {0}, 2)


def test_induced_connectivity():
    net = path_graph(5)
    assert induces_connected_subgraph(net, {1, 2, 3})
    assert not induces_connected_subgraph(net, {0, 2})


def test_cut_weight_sums_the_crossing_edges():
    net = with_planted_cut(
        grid_2d(2, 4), side={0, 1, 4, 5}, cut_weight_each=1, bulk_weight=100
    )
    assert cut_weight(net, {0, 1, 4, 5}) == 2  # two crossing edges, weight 1
