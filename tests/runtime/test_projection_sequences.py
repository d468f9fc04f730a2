"""Randomised update sequences against a from-scratch oracle.

Merge two adjacent parts / split the last merge back / peel a node off a
part (a split that severs sub-part tree edges) / add a chord / remove an
added chord / re-present an old partition, in both modes.  After every
step the setup the session serves must answer a tuple-batched and an int
solve — the second always on the setup's learned route, no token wave —
exactly as a from-scratch
``solve_pa`` on the *current* graph and partition does, and its
division's wave boundary must be the one a freshly built
``SubPartDivision`` over the current network computes — the invariant
three hand-written incremental repairs used to maintain, now true by
construction (the division owns its boundary) and pinned here.

A projection verifies its block parameter only when the bound its parent
implies does not already certify the budget, so every step also checks
the chain the skipped verification rests on: the carried per-part bound
>= the setup's own block count (``annotations.block_counts``) >= what a
from-scratch ``verify_block_parameters`` measures on a scratch ledger.
A second family of sequences, on parts large enough to claim shortcut
edges and under budgets small enough to be crossed, keeps both branches
alive: implied (no ``*_verify_*`` phase, the first query learns the
route) and verified (today's path, rebuild included).
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import MIN, SUM, PASession, PASolver, solve_pa
from repro.analysis.theory import TABLE1
from repro.congest import CostLedger
from repro.core.corefast import verify_block_parameters
from repro.core.subparts import SubPartDivision
from repro.core.trees import RootedForest
from repro.graphs import (
    bfs_ball_partition,
    grid_2d,
    random_connected_partition,
)
from repro.graphs.partitions import (
    boundary_edges,
    partition_from_component_labels,
)
from repro.runtime.session import _partition_image

from twins import wave_boundary

#: Merges and splits twice as likely as the rest: a split-back is only a
#: projection (not a cache hit) two merges deep.
OPS = (
    "merge", "split_back", "peel", "add_chord", "remove_chord",
    "re_present", "merge", "split_back",
)


def _peel(net, partition, pick):
    """Split a BFS leaf off a part of >= 3 nodes (both sides connected)."""
    big = [pid for pid, m in enumerate(partition.members) if len(m) >= 3]
    if not big:
        return None
    members = partition.members[big[pick % len(big)]]
    order = [members[pick % len(members)]]
    for u in order:
        order.extend(
            nb for nb in net.neighbors[u]
            if nb in members and nb not in order
        )
    part_of = list(partition.part_of)
    part_of[order[-1]] = partition.num_parts
    return partition_from_component_labels(part_of)


def _reference_boundary(net, partition, forest):
    """Per node: in-part neighbors that are not sub-part tree neighbors."""
    part_of, parent = partition.part_of, forest.parent
    return [
        tuple(
            nb for nb in net.neighbors[v]
            if part_of[nb] == part_of[v]
            and parent[v] != nb and parent[nb] != v
        )
        for v in range(net.n)
    ]


def _check_bound_chain(session, setup):
    """Carried bound >= the setup's own block counts >= a from-scratch
    verification (scratch ledger, scratch rng, no route: nothing of the
    session moves)."""
    partition = setup.partition
    counts = setup.annotations.block_counts(partition.num_parts)
    measured = verify_block_parameters(
        session.engine, session.net, partition, setup.division,
        setup.shortcut, setup.annotations, CostLedger(),
        randomized=(session.mode == "randomized"), rng=random.Random(0),
    )
    assert len(setup.block_bound) == partition.num_parts
    for bound, count, seen in zip(setup.block_bound, counts, measured):
        assert bound >= count >= seen
    return counts


def _check(session, setup, mode, values, other):
    net, partition = session.net, setup.partition
    _check_bound_chain(session, setup)
    want_min = solve_pa(net, partition, values, MIN, mode=mode, seed=1)
    want_sum = solve_pa(net, partition, other, SUM, mode=mode, seed=1)
    batch = session.solve_many(
        setup, [(values, MIN), (other, SUM)], charge_setup=False
    )
    for got, want in zip(batch.per_agg, (want_min, want_sum)):
        assert got.aggregates == want.aggregates
        assert got.value_at_node == want.value_at_node
    # The second solve of a step always runs on the setup's route — the
    # one its verification or the batch above learned, and which an edge
    # update must have dropped (a removed chord may have carried it).
    routed = session.stats.routed_solves
    single = session.solve(setup, other, SUM, charge_setup=False)
    assert session.stats.routed_solves == routed + 1
    assert [p.name for p in single.ledger.phases()] == ["pa_allreduce"]
    assert single.aggregates == want_sum.aggregates
    assert single.value_at_node == want_sum.value_at_node

    division = setup.division
    assert division.forest.net is net
    fresh = SubPartDivision(
        partition=partition,
        forest=RootedForest(net, division.forest.parent),
        rep_of=division.rep_of,
        part_leader=division.part_leader,
    )
    boundary = wave_boundary(division)
    assert boundary == wave_boundary(fresh)
    assert boundary == _reference_boundary(net, partition, division.forest)


@settings(max_examples=25, deadline=None)
@given(
    mode=st.sampled_from(("randomized", "deterministic")),
    steps=st.lists(
        st.tuples(st.sampled_from(OPS), st.integers(0, 1 << 16)),
        min_size=4, max_size=8,
    ),
)
def test_every_step_matches_a_from_scratch_solve(mode, steps):
    base = grid_2d(5, 5)
    start = random_connected_partition(base, 7, seed=2)
    values = [(v * 7) % 11 for v in range(base.n)]
    other = [(v * 5) % 13 for v in range(base.n)]
    session = PASession(base, mode=mode, seed=3, reuse=True, batch=True)
    setup = session.prepare(start)
    merges = [start]      # the current chain of merges, for split_back
    presented = [start]   # everything ever served, for re_present
    chords = []
    _check(session, setup, mode, values, other)

    for op, pick in steps:
        partition = setup.partition
        if op == "merge":
            # Along edges of the base grid only, so that no later chord
            # removal can disconnect a part.
            borders = boundary_edges(base, partition)
            if not borders:
                continue
            u, v = borders[pick % len(borders)]
            keep, gone = partition.part_of[u], partition.part_of[v]
            merged = partition_from_component_labels(
                [keep if p == gone else p for p in partition.part_of]
            )
            merges.append(merged)
            presented.append(merged)
            setup = session.prepare_incremental(setup, merged)
        elif op == "split_back":
            if len(merges) < 2 or merges[-1].part_of != partition.part_of:
                continue
            merges.pop()
            setup = session.prepare_incremental(setup, merges[-1])
        elif op == "peel":
            peeled = _peel(base, partition, pick)
            if peeled is None:
                continue
            merges = [peeled]
            presented.append(peeled)
            setup = session.prepare_incremental(setup, peeled)
        elif op == "re_present":
            old = presented[pick % len(presented)]
            merges = [old]
            setup = session.prepare_incremental(setup, old)
        else:
            if op == "add_chord":
                u, v = pick % base.n, (pick // base.n) % base.n
                if u == v or session.net.has_edge(u, v):
                    continue
                chords.append((u, v))
                report = session.apply_edge_updates(add=[(u, v)])
            else:
                if not chords:
                    continue
                chord = chords.pop(pick % len(chords))
                report = session.apply_edge_updates(remove=[chord])
            assert report.repaired  # chords are never tree edges
            setup = session.prepare(partition)
        _check(session, setup, mode, values, other)


class _Budget(PASession):
    """A session whose block budget the test sets (``None``: the real one)."""

    budget = None

    def block_budget(self) -> int:
        return super().block_budget() if self.budget is None else self.budget


def _lemma_bound(previous, partition):
    """What ``previous``'s bound implies for ``partition``: a merged part
    has at most the sum of its constituents' blocks, a fragment at most its
    ancestor's — written from the member lists, not from the session's
    ``image``."""
    old = previous.partition
    bound = []
    for members in partition.members:
        drawn_from = sorted({old.part_of[v] for v in members})
        whole = all(
            set(old.members[pid]) <= set(members) for pid in drawn_from
        )
        assert whole or len(drawn_from) == 1  # merge-only or split-only
        bound.append(sum(previous.block_bound[pid] for pid in drawn_from))
    return tuple(bound)


def _project_and_check_branch(session, setup, partition):
    """One ``prepare_incremental`` held to the rule: implied exactly when
    the parent's bound certifies the budget, otherwise today's path."""
    lemma = _lemma_bound(setup, partition)
    stats = session.stats
    before = (stats.implied, stats.rebuilds, stats.cache_hits)
    projected = session.prepare_incremental(setup, partition)
    if stats.cache_hits > before[2]:
        return projected, "hit"
    names = [p.name for p in projected.setup_ledger.phases()]
    verified = [name for name in names if "_verify_" in name]
    rebuilt = stats.rebuilds > before[1]
    assert rebuilt == any(name.startswith("rebuild:") for name in names)
    if max(lemma) <= session.block_budget():
        assert stats.implied == before[0] + 1
        assert not verified
        if not rebuilt:  # (a rebuild here is the congestion half's)
            assert projected.block_bound == lemma
            assert projected.route.delays is None  # the first query learns
        return projected, "implied"
    assert stats.implied == before[0]
    assert [name.rsplit("_", 1)[1] for name in verified[:3]] == [
        "wave", "reverse", "replay",
    ]
    counts = tuple(
        projected.annotations.block_counts(partition.num_parts)
    )
    assert projected.block_bound == counts
    if not rebuilt:
        assert max(counts) <= session.block_budget()
        assert projected.route.delays is not None  # verification learned
    return projected, "rebuilt" if rebuilt else "verified"


def _shortcut_instance():
    """10x10 grid in four BFS balls: three of them larger than the
    2-approximate diameter, so they claim — one block each."""
    net = grid_2d(10, 10)
    return net, bfs_ball_partition(net, 34, seed=3)


@settings(max_examples=12, deadline=None)
@given(
    mode=st.sampled_from(("randomized", "deterministic")),
    budget=st.sampled_from((0, 1, 2, None)),
    steps=st.lists(
        st.tuples(
            st.sampled_from(("merge", "split_back", "peel", "merge")),
            st.integers(0, 1 << 16),
        ),
        min_size=3, max_size=6,
    ),
)
def test_a_bound_that_crosses_the_budget_takes_the_verifying_branch(
    mode, budget, steps
):
    net, start = _shortcut_instance()
    values = [(v * 7) % 11 for v in range(net.n)]
    other = [(v * 5) % 13 for v in range(net.n)]
    session = _Budget(net, mode=mode, seed=3, reuse=True, batch=True)
    session.budget = budget
    setup = session.prepare(start)
    assert setup.block_bound == (1, 1, 1, 0)
    merges = [start]
    for op, pick in steps:
        partition = setup.partition
        if op == "merge":
            borders = boundary_edges(net, partition)
            if not borders:
                continue
            u, v = borders[pick % len(borders)]
            keep, gone = partition.part_of[u], partition.part_of[v]
            target = partition_from_component_labels(
                [keep if p == gone else p for p in partition.part_of]
            )
            merges.append(target)
        elif op == "split_back":
            if len(merges) < 2 or merges[-1].part_of != partition.part_of:
                continue
            merges.pop()
            target = merges[-1]
        else:
            target = _peel(net, partition, pick)
            if target is None:
                continue
            merges = [target]
        setup, _branch = _project_and_check_branch(session, setup, target)
        _check(session, setup, mode, values, other)


@pytest.mark.parametrize("mode", ["randomized", "deterministic"])
def test_one_merge_under_three_budgets(mode):
    """The directed case: merging two one-block parts carries a bound of
    two.  The real budget certifies it (implied: no verification, the
    first query learns the route); a budget of one does not — the
    verification runs, finds the two blocks fused into one, keeps the
    projection and replaces the bound with what it counted; a budget of
    zero verifies and rebuilds."""
    net, start = _shortcut_instance()
    merged = partition_from_component_labels(
        [0 if p == 1 else p for p in start.part_of]
    )
    branches = {}
    for budget in (None, 1, 0):
        session = _Budget(net, mode=mode, seed=3, reuse=True, batch=True)
        session.budget = budget
        setup = session.prepare(start)
        projected, branches[budget] = _project_and_check_branch(
            session, setup, merged
        )
        _check_bound_chain(session, projected)
        if budget is None:
            assert sorted(projected.block_bound) == [0, 1, 2]
        elif budget == 1:
            assert sorted(projected.block_bound) == [0, 1, 1]
    assert branches == {None: "implied", 1: "verified", 0: "rebuilt"}


def _phases(ledger):
    return [(p.name, p.rounds, p.messages) for p in ledger.phases()]


def _merge_or_peel(net, partition, op, pick):
    """A merge along a border edge, or a peel; ``None`` if there is none."""
    if op == "peel":
        return _peel(net, partition, pick)
    borders = boundary_edges(net, partition)
    if not borders:
        return None
    u, v = borders[pick % len(borders)]
    keep, gone = partition.part_of[u], partition.part_of[v]
    return partition_from_component_labels(
        [keep if p == gone else p for p in partition.part_of]
    )


@settings(max_examples=16, deadline=None)
@given(
    mode=st.sampled_from(("randomized", "deterministic")),
    budget=st.sampled_from((0, 1, None)),
    steps=st.lists(
        st.tuples(
            st.sampled_from(("merge", "peel")),
            st.integers(0, 1 << 16),
            st.integers(0, (1 << 8) - 1),
        ),
        min_size=1, max_size=4,
    ),
)
def test_random_dirty_sets_through_the_one_body(mode, budget, steps):
    """The session's one construction with any subset of the parts dirty
    on a carried base: the clean parts keep their trees, edge sets and
    bound, the dirty ones are divided and claimed afresh — and the setup
    answers like a from-scratch ``solve_pa``, keeps Definition 4.1 with
    trees of depth at most 2D, keeps the bound chain, and is served
    within the budget (the real one, or one small enough to force the
    verifying and rebuilding branches) unless the step was a counted
    rebuild."""
    net, start = _shortcut_instance()
    values = [(v * 7) % 11 for v in range(net.n)]
    session = _Budget(net, mode=mode, seed=3, reuse=True, batch=True)
    session.budget = budget
    setup = session.prepare(start)
    diameter = session.solver.diameter
    envelope = TABLE1["general"].congestion(net.n, diameter, 1)
    for op, pick, mask in steps:
        target = _merge_or_peel(net, setup.partition, op, pick)
        if target is None:
            continue
        image = _partition_image(setup.partition, target)
        dirty = {pid for pid in range(target.num_parts) if mask >> pid & 1}
        rebuilds = session.stats.rebuilds
        served = session._prepare(target, None, setup, image, dirty)

        want = solve_pa(net, target, values, SUM, mode=mode, seed=1)
        got = session.solve(served, values, SUM, charge_setup=False)
        assert got.aggregates == want.aggregates
        assert got.value_at_node == want.value_at_node
        served.division.validate(2 * diameter)
        _check_bound_chain(session, served)
        if len(dirty) < target.num_parts:  # a carried base, held to budget
            cap = max(setup.shortcut.congestion(), math.ceil(envelope))
            assert session.stats.rebuilds > rebuilds or (
                max(served.block_bound) <= session.block_budget()
                and served.shortcut.congestion() <= cap
            )
        setup = served


@pytest.mark.parametrize("mode", ["randomized", "deterministic"])
def test_every_part_dirty_is_a_fresh_prepare(mode):
    """With every part dirty the carried base is dropped whole: the setup
    ledger is, phase for phase, a fresh solver's ``prepare`` on the same
    seed."""
    net, start = _shortcut_instance()
    previous = PASession(net, mode=mode, seed=3).prepare(start)
    merged = partition_from_component_labels(
        [0 if p == 1 else p for p in start.part_of]
    )
    image = _partition_image(start, merged)
    session = PASession(net, mode=mode, seed=3, reuse=True)
    got = session._prepare(
        merged, None, previous, image, range(merged.num_parts)
    )
    want = PASolver(net, mode=mode, seed=3).prepare(merged)
    assert _phases(got.setup_ledger) == _phases(want.setup_ledger)
    assert got.block_bound == want.block_bound
    assert (session.stats.prepares, session.stats.coarsenings) == (1, 0)


def _forest_edges(setup):
    """The directed (parent, child) node pairs of a setup's learned route."""
    forest = setup.route.forest
    senders = np.repeat(forest.node, forest.out_counts).tolist()
    return set(zip(senders, forest.out_dst.tolist()))


@pytest.mark.parametrize("mode", ["randomized", "deterministic"])
def test_a_removed_chord_that_carried_the_route_is_not_routed_over(mode):
    """The directed case the random sequences rarely draw: an in-part chord
    that became a wave-forest edge is removed again.  The rebound setup
    must start without a route — its next solve runs a token wave on the
    current graph, and the routed one after it is right."""
    base = grid_2d(5, 5)
    rows = partition_from_component_labels([v // 5 for v in range(base.n)])
    values = [(v * 5) % 13 for v in range(base.n)]
    for row in range(5):
        for chord in ((5 * row, 5 * row + 4), (5 * row, 5 * row + 3)):
            session = PASession(base, mode=mode, seed=3, reuse=True)
            session.prepare(rows)  # the division predates the chord
            session.apply_edge_updates(add=[chord])
            setup = session.prepare(rows)
            session.solve(setup, values, SUM, charge_setup=False)
            carried = {chord, chord[::-1]} & _forest_edges(setup)
            if not carried:
                continue
            assert session.apply_edge_updates(remove=[chord]).repaired
            setup = session.prepare(rows)
            want = solve_pa(session.net, rows, values, SUM, mode=mode, seed=1)
            for expected_phases in (3, 1):  # learns afresh, then routed
                got = session.solve(setup, values, SUM, charge_setup=False)
                assert len(got.ledger.phases()) == expected_phases
                assert got.aggregates == want.aggregates
                assert got.value_at_node == want.value_at_node
            assert not {chord, chord[::-1]} & _forest_edges(setup)
            return
    pytest.fail("no chord carried the route on this instance")
