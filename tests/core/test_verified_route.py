"""The verification that accepts a shortcut is its setup's first solve.

Each candidate of a shortcut build verifies its block parameters with PA
(Algorithm 2) into a fresh ``RouteMemo``; the build returns the last
candidate edge for edge, and a ``PASetup`` over that same division and
shortcut adopts the last memo.  So a fresh ``prepare`` whose build
verified already holds its route: its first solve runs no token wave,
only one ``pa_allreduce`` at twice the forest's edges, and answers what a
learning solve on the same setup answers.  A setup over other objects —
a session carry — starts from a fresh memo, as does a copy handed
``route`` explicitly.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from repro import MIN, SUM, PASession, PASolver
from repro.congest import CostLedger, make_schedule
from repro.core import corefast
from repro.core.corefast import build_shortcut_randomized
from repro.core.pa import DETERMINISTIC, RANDOMIZED, PASetup
from repro.core.subparts import build_subpart_division_randomized
from repro.core.wave import RouteMemo
from repro.graphs import bfs_ball_partition, grid_2d, random_regular
from repro.graphs.partitions import partition_from_component_labels

from twins import twin_phases


def _instance():
    """Parts wider than D: every build here claims and verifies."""
    net = random_regular(256, 4, seed=3)
    return net, bfs_ball_partition(net, 17, seed=3)


def _names(ledger):
    return [p.name for p in ledger.phases()]


def _verified(setup) -> bool:
    return any("verify" in name for name in _names(setup.setup_ledger))


def test_a_build_hands_its_setup_the_last_candidates_memo(monkeypatch):
    """Hand-assembled like ``PASolver.prepare`` does it (division, then
    the randomized build): with a block target of 1 the build iterates,
    each candidate's verification learns into its own memo, and the setup
    over the division and the returned shortcut adopts the last one."""
    net, partition = _instance()
    solver = PASolver(net, seed=4)
    memos = []
    verify = corefast.verify_block_parameters

    def spy(*args, route=None, **kwargs):
        memos.append(route)
        return verify(*args, route=route, **kwargs)

    monkeypatch.setattr(corefast, "verify_block_parameters", spy)
    ledger = CostLedger()
    leaders = solver.default_leaders(partition)
    division = build_subpart_division_randomized(
        solver.engine, net, partition, leaders, solver.diameter, ledger,
        solver.rng,
    )
    build = build_shortcut_randomized(
        solver.engine, net, partition, division, solver.tree,
        solver.diameter, ledger, solver.rng, block_target=1,
    )
    assert build.iterations >= 2
    assert len(memos) == build.iterations
    assert len({id(memo) for memo in memos}) == len(memos)
    assert all(memo.delays is not None for memo in memos)
    assert build.annotations.verified == (division, build.shortcut, memos[-1])

    setup = PASetup(
        partition=partition, leaders=leaders, division=division,
        shortcut=build.shortcut, annotations=build.annotations,
        setup_ledger=ledger,
    )
    assert setup.route is memos[-1]
    forest = setup.route.forest
    result = solver.solve(setup, list(range(net.n)), SUM, charge_setup=False)
    assert [(p.name, p.messages) for p in result.ledger.phases()] == [
        ("pa_allreduce", 2 * forest.edges),
    ]


ENGINES = {
    "array": lambda net: {},
    "scalar": lambda net: {},  # under ``twin_phases``
    "async": lambda net: {"schedule": make_schedule("random", seed=7)},
}


@pytest.mark.parametrize("mode", [RANDOMIZED, DETERMINISTIC])
@pytest.mark.parametrize("engine", ENGINES)
def test_a_verified_setups_first_solve_is_one_allreduce(mode, engine):
    """The first solve on a fresh verified ``prepare`` answers what a
    learning solve on the same setup with a fresh memo answers, in one
    ``pa_allreduce`` of twice the forest's edges; the learning solve pays
    the wave, reversal and replay the verification already paid."""
    with twin_phases(engine == "scalar"):
        net = grid_2d(12, 12)
        partition = bfs_ball_partition(net, 40, seed=2)
        solver = PASolver(net, mode=mode, seed=5, **ENGINES[engine](net))
        setup = solver.prepare(partition)
        assert _verified(setup)
        forest = setup.route.forest
        assert forest.edges == len(forest.parent) - partition.num_parts
        rng = random.Random(1)
        values = [rng.randrange(1000) for _ in range(net.n)]

        first = solver.solve(setup, values, MIN, charge_setup=False)
        learning = solver.solve(
            replace(setup, route=RouteMemo()), values, MIN, charge_setup=False
        )
        assert first.aggregates == learning.aggregates == {
            pid: min(values[v] for v in members)
            for pid, members in enumerate(partition.members)
        }
        assert first.value_at_node == learning.value_at_node
        assert [(p.name, p.messages) for p in first.ledger.phases()] == [
            ("pa_allreduce", 2 * forest.edges),
        ]
        assert _names(learning.ledger) == ["pa_wave", "pa_reverse", "pa_replay"]


def test_a_carry_starts_a_fresh_memo():
    """Adoption needs the very division and shortcut the verification ran
    on: a session carry builds a new division and a relabelled shortcut,
    and ``replace`` hands the copy its ``route`` explicitly."""
    net, partition = _instance()
    session = PASession(net, seed=4, reuse=True)
    setup = session.prepare(partition)
    assert _verified(setup) and setup.route.delays is not None

    # Merge the two parts across one boundary edge: a carry of the
    # verified setup.
    part_of = partition.part_of
    keep, gone = next(
        (part_of[u], part_of[v])
        for u in range(net.n) for v in net.neighbors[u]
        if part_of[u] != part_of[v]
    )
    coarse = session.prepare_incremental(
        setup, partition_from_component_labels(
            [keep if p == gone else p for p in part_of]
        ),
    )
    assert (session.stats.coarsenings, session.stats.implied) == (1, 1)
    assert _names(coarse.setup_ledger) == ["part_exchange", "annotate_blocks"]
    # The carried annotations are new, the division and shortcut too: the
    # caller's first query learns.
    assert coarse.route is not setup.route
    assert coarse.route.delays is None

    fresh = replace(setup, route=RouteMemo())
    assert fresh.route.delays is None and setup.route.delays is not None
