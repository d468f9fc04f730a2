"""Shortcut providers: parity with the general pipeline, caps, correctness."""

import hashlib
import math

import pytest

from repro.core import SUM, PASolver, solve_pa
from repro.families import (
    build_steiner_shortcut,
    get_family,
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
from oracles import validate_shortcut


def _oracle_sums(partition):
    return {pid: len(partition.members[pid]) for pid in range(partition.num_parts)}


def _assert_pa_correct(result, partition):
    assert result.aggregates == _oracle_sums(partition)
    for v in range(len(partition.part_of)):
        assert result.value_at_node[v] == len(
            partition.members[partition.part_of[v]]
        )


# ----------------------------------------------------------------------
# provider_for("general") == default pipeline, bit for bit
# ----------------------------------------------------------------------
def _phase_log(ledger):
    return [
        (p.name, p.rounds, p.messages, p.ticks, p.bits)
        for p in ledger.phases()
    ]


@pytest.mark.parametrize("mode", ["randomized", "deterministic"])
def test_general_provider_bitwise_parity(mode):
    """The general row follows the mode ``prepare`` runs in — handed to
    the solver or to a session (the registry used to build randomized
    CoreFast in either mode)."""
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
        session = PASession(
            net, mode=mode, seed=1, shortcut_provider=provider_for("general")
        )
        setup = session.prepare(part)
        return setup, session.solve(setup, [1] * net.n, SUM)

    for path in (
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
        shortcut_provider=provider_for("planar"),
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
    setup = solver.prepare(part, shortcut_provider=provider_for("planar"))
    b, c = setup.quality()
    log_n = max(1, math.ceil(math.log2(net.n)))
    assert c <= get_family("planar").cap(net.n, solver.diameter, 1, 1)
    assert c <= solver.diameter * log_n
    assert b <= max(3, 2 * math.ceil(math.log2(max(2, solver.diameter))))
    validate_shortcut(setup.shortcut)
    result = solver.solve(setup, [1] * net.n, SUM)
    _assert_pa_correct(result, part)


def test_tree_restricted_provider_random_planar_and_torus():
    for net, family in (
        (random_planar(256, seed=8), "planar"), (torus_2d(9, 9), "genus"),
    ):
        d = net.diameter_estimate()
        part = bfs_ball_partition(net, 2 * (d + 1), seed=3)
        solver = PASolver(net, seed=6)
        setup = solver.prepare(part, shortcut_provider=provider_for(family))
        validate_shortcut(setup.shortcut)
        result = solver.solve(setup, [1] * net.n, SUM)
        _assert_pa_correct(result, part)


def test_treewidth_provider_k_tree():
    net = k_tree(80, 3, seed=4)
    part = bfs_ball_partition(net, 20, seed=3)
    solver = PASolver(net, seed=6)
    setup = solver.prepare(
        part, shortcut_provider=provider_for("treewidth", param=3)
    )
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
        solver.prepare(
            part, shortcut_provider=provider_for("treewidth", param=2)
        )


def test_pathwidth_provider_ladder():
    net = ladder(30)
    part = bfs_ball_partition(net, 12, seed=3)
    solver = PASolver(net, seed=6)
    setup = solver.prepare(
        part, shortcut_provider=provider_for("pathwidth", param=2)
    )
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
    build = provider_for("planar").build(
        solver.engine, net, part, division, solver.tree, solver.diameter,
        ledger,
    )
    from repro.families import BFSLayering

    assert isinstance(build.certificate, BFSLayering)
    build.certificate.validate(net)


# ----------------------------------------------------------------------
# Phase logs, not only totals: pinned on the commit before the provider
# classes became rows of one table (PR 22's parent), unchanged by it.
# The deterministic digests were recaptured when Algorithm 6 began to
# speak only on news: its ``det_*`` phases fell, every other phase and
# every solve is the pinned one.  The randomized digests were recaptured
# when flood-min and claim BFS stopped handing a token back to the
# neighbors that had just delivered it: only ``subpart_*`` phases fell.
# All twelve were recaptured when the token wave began to hand a token on
# in the tick a node gains it and never back to a neighbor that sent it:
# only ``*_wave`` / ``*_reverse`` / ``*_replay`` phases moved.  The six
# randomized digests were recaptured when only self-sampled candidates
# began to start the election's flood: the tree's root moved (and with
# it the layering and path-decomposition phases' depths) and the
# candidate draw comes first off the solver's random stream, so the
# claims, the sub-parts and the solves moved; the deterministic digests,
# elected without a draw, did not.  The two ``general`` digests were
# recaptured when a build's last verification became its setup's first
# solve: the solve is one ``pa_allreduce`` at twice its old replay's
# messages instead of wave, reversal and replay, the setup ledger is the
# same; the family rows build without a verification and did not move.
# ----------------------------------------------------------------------
#: case -> (family, param, claim_small values, graph, BFS-ball radius or
#: None for the planar tests' 2 (D + 1)) — the fixtures used above.
_PIN_CASES = {
    "planar": ("planar", None, (False, True), lambda: grid_2d(12, 12), None),
    "genus1": ("genus", 1, (False,), lambda: torus_2d(9, 9), None),
    "genus4": ("genus", 4, (False,), lambda: torus_2d(9, 9), None),
    "treewidth3": (
        "treewidth", 3, (False,), lambda: k_tree(80, 3, seed=4), 20,
    ),
    "pathwidth2": ("pathwidth", 2, (False,), lambda: ladder(30), 12),
    "general": (
        "general", None, (False,), lambda: random_regular(400, 4, seed=5), 60,
    ),
}

_PARENT_PHASE_LOGS = {
    ("planar", "randomized"):
        "0331162b61dcd3bafaa34dd045490a73364f689dbd1910c90e003b9b8d164614",
    ("planar", "deterministic"):
        "03ef93940a6333225c09e2d2c873ba01dd5393a0b23bcd9e2f3843e5213a4073",
    ("genus1", "randomized"):
        "0808b9f9ccf977c3fb695ce4e56b522101957806fa6dcccef85426c573f67ec2",
    ("genus1", "deterministic"):
        "c962385ea3499c84408ef4248ef7f5222f49da35c643a10ed5ea1b6d74c660e6",
    ("genus4", "randomized"):
        "017ca43cfb155828ff292a196d5ea7dce5a4f182f668bb1a3914c5a86a4c17ee",
    ("genus4", "deterministic"):
        "a89daa83927c863aa2c51d913f7b38a5d9cbcd8d7a390e7f7dd7f7e89fad0c86",
    ("treewidth3", "randomized"):
        "d9a58cef6f5819ecff063fc854e7d9607a8978c3e2a99360227d7d2f0feba87c",
    ("treewidth3", "deterministic"):
        "a32690833e4cf89dca906432292a107bce5f964c47334ef07a5bdab197a03187",
    ("pathwidth2", "randomized"):
        "fd2c269b00d0b2516931a6faf29ca523258206a50050b2432531edb717fb4a35",
    ("pathwidth2", "deterministic"):
        "8e99702944a2de1843689cc11c2f2022f8664f0cf7c25ede578696a12fdf2622",
    ("general", "randomized"):
        "c7f5d9109845656d6dc764b27a814da316959c1d814f1d3c19e6f7bde769e977",
    ("general", "deterministic"):
        "9f6ee8871df982a559742869916dd1db3c28d958382f051586481b5a9d59f5c3",
}


@pytest.mark.parametrize("mode", ["randomized", "deterministic"])
@pytest.mark.parametrize("case", list(_PIN_CASES))
def test_family_phase_logs_are_the_parents(case, mode):
    family, param, claim_smalls, make, radius = _PIN_CASES[case]
    net = make()
    if radius is None:
        radius = 2 * (net.diameter_estimate() + 1)
    part = bfs_ball_partition(net, radius, seed=3)
    logs = []
    for claim_small in claim_smalls:
        solver = PASolver(net, mode=mode, seed=6)
        setup = solver.prepare(
            part,
            shortcut_provider=provider_for(
                family, param=param, claim_small=claim_small
            ),
        )
        result = solver.solve(setup, [1] * net.n, SUM, charge_setup=False)
        _assert_pa_correct(result, part)
        logs.append(
            (_phase_log(setup.setup_ledger), _phase_log(result.ledger))
        )
    digest = hashlib.sha256(repr(logs).encode()).hexdigest()
    assert digest == _PARENT_PHASE_LOGS[case, mode]
