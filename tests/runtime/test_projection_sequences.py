"""Randomised update sequences against a from-scratch oracle.

Merge two adjacent parts / split the last merge back / peel a node off a
part (a split that severs sub-part tree edges) / add a chord / remove an
added chord / re-present an old partition, in both modes, with and
without an LRU bound.  After every step the setup the session serves
must answer a tuple-batched and an int solve — the second always on the
setup's learned route, no token wave — exactly as a from-scratch
``solve_pa`` on the *current* graph and partition does, and its
division's wave boundary must be the one a freshly built
``SubPartDivision`` over the current network computes — the invariant
three hand-written incremental repairs used to maintain, now true by
construction (the division owns its boundary) and pinned here.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import MIN, SUM, PASession, solve_pa
from repro.core.subparts import SubPartDivision
from repro.core.trees import RootedForest
from repro.graphs import grid_2d, random_connected_partition
from repro.graphs.partitions import (
    boundary_edges,
    partition_from_component_labels,
)

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


def _check(session, setup, mode, values, other):
    net, partition = session.net, setup.partition
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
    assert [p.name for p in single.ledger.phases()] == [
        "pa_reverse", "pa_replay",
    ]
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
    assert division.wave_boundary == fresh.wave_boundary
    assert division.wave_boundary == _reference_boundary(
        net, partition, division.forest
    )
    starts, counts, flat = (c.tolist() for c in division.wave_boundary_csr)
    assert [
        tuple(flat[lo:lo + k]) for lo, k in zip(starts, counts)
    ] == division.wave_boundary


@settings(max_examples=25, deadline=None)
@given(
    mode=st.sampled_from(("randomized", "deterministic")),
    max_entries=st.sampled_from((None, 2)),
    steps=st.lists(
        st.tuples(st.sampled_from(OPS), st.integers(0, 1 << 16)),
        min_size=4, max_size=8,
    ),
)
def test_every_step_matches_a_from_scratch_solve(mode, max_entries, steps):
    base = grid_2d(5, 5)
    start = random_connected_partition(base, 7, seed=2)
    values = [(v * 7) % 11 for v in range(base.n)]
    other = [(v * 5) % 13 for v in range(base.n)]
    session = PASession(
        base, mode=mode, seed=3, reuse=True, batch=True,
        max_entries=max_entries,
    )
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


def _forest_edges(setup):
    """The directed (parent, child) node pairs of a setup's learned route."""
    (forest,) = setup.route.forests.values()
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
            for expected_phases in (3, 2):  # learns afresh, then routed
                got = session.solve(setup, values, SUM, charge_setup=False)
                assert len(got.ledger.phases()) == expected_phases
                assert got.aggregates == want.aggregates
                assert got.value_at_node == want.value_at_node
            assert not {chord, chord[::-1]} & _forest_edges(setup)
            return
    pytest.fail("no chord carried the route on this instance")
