"""Network construction, validation, uids, weights and oracles."""

import pytest

from repro.congest import Network, canonical_edge
from repro.graphs import grid_2d, path_graph


def test_basic_construction():
    net = Network([(0, 1), (1, 2)])
    assert net.n == 3
    assert net.m == 2
    assert net.neighbors[1] == (0, 2)
    assert net.degree(1) == 2
    assert net.has_edge(2, 1)
    assert not net.has_edge(0, 2)


def test_rejects_self_loops_and_duplicates():
    with pytest.raises(ValueError):
        Network([(0, 0)])
    with pytest.raises(ValueError):
        Network([(0, 1), (1, 0)])


def test_rejects_out_of_range_endpoint():
    with pytest.raises(ValueError):
        Network([(0, 5)], n=3)


def test_uids_are_unique_and_not_indices():
    net = path_graph(50)
    assert len(set(net.uid)) == net.n
    assert set(net.uid) == set(range(net.n, 2 * net.n))
    for v in range(net.n):
        assert net.node_of_uid(net.uid[v]) == v


def test_weights_validation():
    with pytest.raises(ValueError):
        Network([(0, 1)], weights={(0, 1): 0})
    with pytest.raises(ValueError):
        Network([(0, 1), (1, 2)], weights={(0, 1): 5})  # missing edge weight
    net = Network([(0, 1)], weights={(1, 0): 7})  # canonicalized
    assert net.weight(0, 1) == 7


def test_unweighted_weight_defaults_to_one():
    net = path_graph(3)
    assert net.weight(0, 1) == 1


def test_connectivity_and_bfs():
    net = grid_2d(3, 3)
    assert net.is_connected()
    depths = net.bfs_depths(0)
    assert depths[8] == 4
    disconnected = Network([(0, 1), (2, 3)])
    assert not disconnected.is_connected()


def test_diameter_estimate_is_2_approx():
    net = grid_2d(4, 7)
    exact = net.exact_diameter()
    estimate = net.diameter_estimate()
    assert exact <= estimate <= 2 * exact


def test_canonical_edge():
    assert canonical_edge(5, 2) == (2, 5)
    assert canonical_edge(2, 5) == (2, 5)


# ----------------------------------------------------------------------
# CSR storage: the lazy views must be identical to the former eager forms
# ----------------------------------------------------------------------
def test_edges_are_canonical_and_lexicographically_sorted():
    scrambled = [(3, 1), (0, 2), (2, 1), (4, 0), (1, 0)]
    net = Network(scrambled)
    assert net.edges == tuple(sorted(canonical_edge(u, v) for u, v in scrambled))
    assert net.m == len(scrambled)


def test_neighbors_ascending_and_consistent_with_csr():
    net = grid_2d(5, 7)
    offsets, adj = net.adjacency_csr()
    assert offsets[net.n] == 2 * net.m == len(adj)
    for v in range(net.n):
        slice_ = tuple(adj[offsets[v]:offsets[v + 1]])
        assert slice_ == net.neighbors[v]
        assert list(slice_) == sorted(slice_)
        assert net.neighbor_sets[v] == frozenset(slice_)
        assert net.degree(v) == len(slice_)


def test_degrees_matches_per_node_degree():
    net = grid_2d(4, 4)
    assert net.degrees() == [net.degree(v) for v in range(net.n)]


def test_has_edge_out_of_range_nodes_is_false():
    net = path_graph(5)
    assert not net.has_edge(-1, 0)
    assert not net.has_edge(5, 0)
    assert not net.has_edge(99, 100)


def test_rejects_negative_node_ids():
    with pytest.raises(ValueError):
        Network([(-1, 2)])


def test_duplicate_detection_is_orientation_blind():
    with pytest.raises(ValueError):
        Network([(2, 7), (7, 2)], n=8)


def test_isolated_nodes_have_empty_adjacency():
    net = Network([(0, 1)], n=4)
    assert net.neighbors[2] == ()
    assert net.neighbors[3] == ()
    assert net.degree(3) == 0
    assert not net.has_edge(2, 3)


def test_uid_lazy_view_matches_eager_semantics():
    # Same seed -> same permutation regardless of when it is materialized.
    a = path_graph(64, uid_seed=123)
    b = path_graph(64, uid_seed=123)
    assert b.is_connected()  # touch other lazies first on b
    assert a.uid == b.uid
    assert a.uid != tuple(range(64, 128))  # actually shuffled
