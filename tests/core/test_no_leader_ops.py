"""SuperOps over the PA transport (Algorithm 9 / MST and k-dominating merging)."""

from repro.congest import CostLedger
from repro.core import SUM, PASolver
from repro.core.aggregation import MIN
from repro.core.no_leader import PASuperOps
from repro.graphs import Partition, path_graph


def make_ops(chosen_pairs):
    """Path of 12 nodes in three parts of four; edges between parts."""
    net = path_graph(12)
    part = Partition([0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2])
    solver = PASolver(net, seed=41)
    setup = solver.prepare(part)
    ledger = CostLedger()
    chosen = {}
    for src, dst in chosen_pairs:
        # Connect via the path edge between the parts.
        u = max(part.members[src]) if dst > src else min(part.members[src])
        v = u + 1 if dst > src else u - 1
        chosen[src] = (u, v, dst)
    ops = PASuperOps(solver.engine, solver.solve, setup, chosen, ledger)
    ops.announce_requests()
    return net, part, ops


def test_push_up_counts_in_degree():
    net, part, ops = make_ops([(0, 1), (2, 1)])
    indeg = ops.push_up({0: 1, 2: 1}, SUM)
    assert indeg == {1: 2}


def test_push_down_delivers_target_value():
    net, part, ops = make_ops([(0, 1), (2, 1)])
    got = ops.push_down({0: 100, 1: 200, 2: 300})
    assert got[0] == 200
    assert got[2] == 200


def test_push_up_delivers_source_values():
    net, part, ops = make_ops([(0, 1)])
    got = ops.push_up({0: 77}, MIN)
    assert got[1] == 77


def test_initial_colors_are_leader_uids():
    net, part, ops = make_ops([(0, 1)])
    assert ops.initial_color(0) == net.uid[ops.leaders[0]]
