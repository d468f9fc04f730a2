"""Shortcut providers: parity with the general pipeline, caps, correctness."""

import math

import pytest

from repro.core import SUM, PASolver, solve_pa, validate_shortcut
from repro.families import (
    GeneralProvider,
    PathwidthProvider,
    TreeRestrictedProvider,
    TreewidthProvider,
    build_steiner_shortcut,
    provider_for,
    steiner_edges_of_part,
    steiner_up_parts,
)
from repro.graphs import (
    bfs_ball_partition,
    grid_2d,
    k_tree,
    ladder,
    random_connected_partition,
    random_planar,
    random_regular,
    torus_2d,
)
from repro.runtime import PASession


def _oracle_sums(partition):
    return {pid: len(partition.members[pid]) for pid in range(partition.num_parts)}


def _assert_pa_correct(result, partition):
    assert result.aggregates == _oracle_sums(partition)
    for v in range(len(partition.part_of)):
        assert result.value_at_node[v] == len(
            partition.members[partition.part_of[v]]
        )


# ----------------------------------------------------------------------
# GeneralProvider == default pipeline, bit for bit
# ----------------------------------------------------------------------
def _phase_log(ledger):
    return [
        (p.name, p.rounds, p.messages, p.ticks, p.bits)
        for p in ledger.phases()
    ]


@pytest.mark.parametrize("mode", ["randomized", "deterministic"])
def test_general_provider_bitwise_parity(mode):
    """The general row follows the mode ``prepare`` runs in — handed over
    directly, through the registry, or as a session's ``family`` (the
    registry paths used to build randomized CoreFast in either mode)."""
    # BFS balls well above an expander's diameter: the shortcut
    # construction engages (on parts below D both modes build nothing).
    net = random_regular(400, 4, seed=5)
    part = bfs_ball_partition(net, 60, seed=3)
    default = PASolver(net, mode=mode, seed=1)
    setup_d = default.prepare(part)
    result_d = default.solve(setup_d, [1] * net.n, SUM)
    wanted = "heavy_" if mode == "deterministic" else "corefast_"
    assert any(p.name.startswith(wanted) for p in setup_d.setup_ledger.phases())

    def via_provider(provider):
        solver = PASolver(net, mode=mode, seed=1)
        setup = solver.prepare(part, shortcut_provider=provider)
        return setup, solver.solve(setup, [1] * net.n, SUM)

    def via_session():
        session = PASession(net, mode=mode, seed=1, family="general")
        setup = session.prepare(part)
        return setup, session.solve(setup, [1] * net.n, SUM)

    for path in (
        lambda: via_provider(GeneralProvider()),
        lambda: via_provider(provider_for("general")),
        via_session,
    ):
        setup_p, result_p = path()
        assert setup_p.shortcut.up_parts == setup_d.shortcut.up_parts
        assert setup_p.quality() == setup_d.quality()
        assert _phase_log(setup_p.setup_ledger) == _phase_log(
            setup_d.setup_ledger
        )
        assert _phase_log(result_p.ledger) == _phase_log(result_d.ledger)
        assert result_p.aggregates == result_d.aggregates


def test_solve_pa_accepts_provider():
    net = grid_2d(4, 6)
    part = random_connected_partition(net, 4, seed=3)
    result = solve_pa(
        net, part, [1] * net.n, SUM, seed=5,
        shortcut_provider=TreeRestrictedProvider(),
    )
    _assert_pa_correct(result, part)


# ----------------------------------------------------------------------
# Steiner core
# ----------------------------------------------------------------------
def test_steiner_edges_are_minimal_subtree():
    net = grid_2d(4, 4)
    solver = PASolver(net, seed=1, root=0)
    tree = solver.tree
    members = [5, 6, 10]
    edges = steiner_edges_of_part(tree, members)
    # the edge set spans the members and forms one connected subtree
    nodes = set()
    for child in edges:
        nodes.add(child)
        nodes.add(tree.parent[child])
    assert set(members) <= nodes
    # connectivity: nodes minus edges == 1 component
    assert len(nodes) - len(edges) == 1
    # minimality: every leaf of the subtree is a member
    child_count = {v: 0 for v in nodes}
    for child in edges:
        child_count[tree.parent[child]] += 1
    leaves = [v for v in nodes if child_count[v] == 0]
    assert set(leaves) <= set(members)


def test_steiner_skip_small_rule():
    net = grid_2d(4, 8)
    solver = PASolver(net, seed=1)
    part = random_connected_partition(net, 6, seed=2)
    # every part is smaller than the diameter estimate: all exempt
    up, congestion, admitted, truncated = steiner_up_parts(
        tree=solver.tree, partition=part, diameter=solver.diameter,
    )
    assert congestion == 0 and admitted == 0 and truncated == 0
    assert all(not parts for parts in up)
    # forcing claims produces real subtrees
    up, congestion, admitted, truncated = steiner_up_parts(
        tree=solver.tree, partition=part, diameter=solver.diameter,
        skip_small=False,
    )
    assert admitted > 0 and congestion >= 1


def test_steiner_cap_enforces_congestion_and_pa_stays_correct():
    net = grid_2d(6, 10)
    solver = PASolver(net, seed=4)
    part = random_connected_partition(net, 6, seed=7)
    ledger_cap = solver.engine  # noqa: F841 - readability
    from repro.congest.ledger import CostLedger

    ledger = CostLedger()
    build = build_steiner_shortcut(
        solver.engine, net, part, solver.tree, solver.diameter, ledger,
        cap=1, skip_small=False,
    )
    b, c = build.shortcut.quality()
    assert c == 1  # the cap is a hard guarantee
    assert b >= 1
    validate_shortcut(build.shortcut)
    # an uncapped build of the same instance admits more congestion
    ledger2 = CostLedger()
    free = build_steiner_shortcut(
        solver.engine, net, part, solver.tree, solver.diameter, ledger2,
        cap=None, skip_small=False,
    )
    assert free.shortcut.congestion() >= c
    assert ledger.messages > 0 and ledger.rounds > 0


# ----------------------------------------------------------------------
# Family providers: valid shortcuts, envelope caps, correct PA
# ----------------------------------------------------------------------
def test_tree_restricted_provider_planar():
    net = grid_2d(12, 12)
    d = net.diameter_estimate()
    part = bfs_ball_partition(net, 2 * (d + 1), seed=3)
    solver = PASolver(net, seed=6)
    provider = TreeRestrictedProvider()
    setup = solver.prepare(part, shortcut_provider=provider)
    b, c = setup.quality()
    log_n = max(1, math.ceil(math.log2(net.n)))
    assert c <= provider.congestion_cap(net.n, solver.diameter)
    assert c <= solver.diameter * log_n
    assert b <= max(3, 2 * math.ceil(math.log2(max(2, solver.diameter))))
    validate_shortcut(setup.shortcut)
    result = solver.solve(setup, [1] * net.n, SUM)
    _assert_pa_correct(result, part)


def test_tree_restricted_provider_random_planar_and_torus():
    for net, genus in ((random_planar(256, seed=8), 0), (torus_2d(9, 9), 1)):
        d = net.diameter_estimate()
        part = bfs_ball_partition(net, 2 * (d + 1), seed=3)
        solver = PASolver(net, seed=6)
        setup = solver.prepare(
            part, shortcut_provider=TreeRestrictedProvider(genus=genus)
        )
        validate_shortcut(setup.shortcut)
        result = solver.solve(setup, [1] * net.n, SUM)
        _assert_pa_correct(result, part)


def test_treewidth_provider_k_tree():
    net = k_tree(80, 3, seed=4)
    part = bfs_ball_partition(net, 20, seed=3)
    solver = PASolver(net, seed=6)
    setup = solver.prepare(part, shortcut_provider=TreewidthProvider(width=3))
    b, c = setup.quality()
    log_n = max(1, math.ceil(math.log2(net.n)))
    assert c <= 2 * 3 * log_n
    validate_shortcut(setup.shortcut)
    result = solver.solve(setup, [1] * net.n, SUM)
    _assert_pa_correct(result, part)


def test_treewidth_provider_rejects_wider_graph():
    net = k_tree(40, 4, seed=4)  # treewidth 4, declared 2
    part = bfs_ball_partition(net, 12, seed=3)
    solver = PASolver(net, seed=6)
    with pytest.raises(ValueError, match="width"):
        solver.prepare(part, shortcut_provider=TreewidthProvider(width=2))


def test_pathwidth_provider_ladder():
    net = ladder(30)
    part = bfs_ball_partition(net, 12, seed=3)
    solver = PASolver(net, seed=6)
    provider = PathwidthProvider(width=2)
    setup = solver.prepare(part, shortcut_provider=provider)
    b, c = setup.quality()
    assert c <= 2 * (3 + 1)  # gamma * (p + 1) with achieved p <= 3
    validate_shortcut(setup.shortcut)
    result = solver.solve(setup, [1] * net.n, SUM)
    _assert_pa_correct(result, part)


def test_provider_certificates_attached():
    net = grid_2d(8, 8)
    d = net.diameter_estimate()
    part = bfs_ball_partition(net, 2 * (d + 1), seed=3)
    solver = PASolver(net, seed=6)
    from repro.congest.ledger import CostLedger
    from repro.core import build_subpart_division_randomized

    import random as _random

    ledger = CostLedger()
    division = build_subpart_division_randomized(
        solver.engine, net, part, solver.default_leaders(part),
        solver.diameter, ledger, _random.Random(1),
    )
    build = TreeRestrictedProvider().build(
        solver.engine, net, part, division, solver.tree, solver.diameter,
        ledger,
    )
    from repro.families import BFSLayering

    assert isinstance(build.certificate, BFSLayering)
    build.certificate.validate(net)
