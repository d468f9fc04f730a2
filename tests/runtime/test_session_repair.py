"""Session-layer repair: split-part refinement and edge insert/delete.

The two `prepare_incremental` extensions beyond merge-only coarsening:
a split-only refinement projects the standing machinery (cut forest,
relabeled shortcut) and re-verifies it under the PA budget rule, and
`apply_edge_updates` absorbs topology changes by a tree-preserving
rebind whenever no spanning-tree edge was removed.  Repaired setups must
answer queries identically to full prepares, and a budget miss must be
a *counted* fallback whose rebuild ledger equals the full prepare's bit
for bit.
"""

from __future__ import annotations

import re

import pytest

from repro import PASession, PASolver
from repro.congest import Engine
from repro.core import MIN, SUM
from repro.graphs import random_connected, random_connected_partition
from repro.graphs.partitions import Partition
from repro.graphs.weights import with_random_weights
from repro.runtime.session import _partition_image

from oracles import TwinEngine


def _net_and_parts(n=44, seed=13):
    net = random_connected(n, 0.09, seed=seed)
    coarse = random_connected_partition(net, 4, seed=5)
    fine = _split_every_part(net, coarse)
    return net, coarse, fine


def _split_every_part(net, partition):
    """Split a BFS-tree leaf off each part: both fragments stay connected."""
    from collections import deque

    part_of = list(partition.part_of)
    next_pid = partition.num_parts
    for pid in range(partition.num_parts):
        members = set(partition.members[pid])
        if len(members) < 2:
            continue
        # BFS inside the part; the last-visited node is a tree leaf, and
        # removing a leaf never disconnects the remainder.
        start = min(members)
        order = [start]
        seen = {start}
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for nb in net.neighbors[u]:
                if nb in members and nb not in seen:
                    seen.add(nb)
                    order.append(nb)
                    queue.append(nb)
        part_of[order[-1]] = next_pid
        next_pid += 1
    labels = {pid: i for i, pid in enumerate(sorted(set(part_of)))}
    fine = Partition([labels[p] for p in part_of])
    assert fine.num_parts > partition.num_parts
    return fine


# -- the one relation ---------------------------------------------------

def test_refinement_map_inverts_coarsening_map():
    net, coarse, fine = _net_and_parts()
    split = _partition_image(coarse, fine)
    merge = _partition_image(fine, coarse)
    assert split is not None and merge is not None
    # Split-only: every fragment sits in exactly one old part's image ...
    for node, new_pid in enumerate(fine.part_of):
        assert new_pid in split[coarse.part_of[node]]
    assert sorted(f for frags in split for f in frags) == list(
        range(fine.num_parts)
    )
    assert max(map(len, split)) > 1
    # ... and the merge direction is its inverse, one new part per old.
    assert merge == [
        [old_pid for old_pid, frags in enumerate(split) if new_pid in frags]
        for new_pid in range(fine.num_parts)
    ]


def test_refinement_map_rejects_crossing_partitions():
    net, coarse, _fine = _net_and_parts()
    crossing = random_connected_partition(net, 6, seed=99)
    assert _partition_image(coarse, crossing) is None
    assert _partition_image(crossing, coarse) is None
    assert _partition_image(coarse, Partition([0] * (net.n + 1))) is None


# -- refine vs full prepare --------------------------------------------

def test_refined_setup_answers_like_a_full_prepare():
    net, coarse, fine = _net_and_parts()
    values = [(v * 17) % 101 for v in range(net.n)]

    session = PASession(net, seed=3, reuse=True)
    base = session.prepare(coarse)
    refined = session.prepare_incremental(base, fine)
    assert session.stats.refinements == 1
    twin = PASession(net, seed=3)
    full = twin.prepare(fine)

    for agg in (MIN, SUM):
        got = session.solve(refined, values, agg, charge_setup=False)
        want = twin.solve(full, values, agg, charge_setup=False)
        assert got.aggregates == want.aggregates


def test_refined_division_nests_in_the_fine_partition():
    net, coarse, fine = _net_and_parts()
    session = PASession(net, seed=3, reuse=True)
    base = session.prepare(coarse)
    refined = session.prepare_incremental(base, fine)
    if session.stats.rebuilds:
        pytest.skip("budget rejected the projection on this instance")
    refined.division.validate()
    assert refined.partition is fine


def test_refinement_is_cached_unpinned():
    net, coarse, fine = _net_and_parts()
    session = PASession(net, seed=3, reuse=True)
    base = session.prepare(coarse)
    refined = session.prepare_incremental(base, fine)
    hits_before = session.stats.cache_hits
    again = session.prepare_incremental(base, fine)
    assert session.stats.cache_hits == hits_before + 1
    assert again.partition is refined.partition
    # The parent (coarse) entry is NOT superseded: splits can re-merge.
    assert session.prepare(coarse).partition is base.partition
    assert session.stats.cache_hits == hits_before + 2


# -- the budget rule ----------------------------------------------------

class _ZeroBudget(PASession):
    """Force every projection out of budget (deterministic fallback)."""

    def block_budget(self) -> int:
        return 0


def test_budget_miss_is_a_counted_fallback_with_full_prepare_ledger():
    net, coarse, fine = _net_and_parts()
    session = _ZeroBudget(net, seed=3, reuse=True)
    base = session.prepare(coarse)
    refined = session.prepare_incremental(base, fine)
    assert session.stats.refinements == 1
    assert session.stats.rebuilds == 1

    # The rebuild sub-ledger (the ``rebuild:``-prefixed phases) must be
    # the full prepare's ledger bit for bit — same phases, same rounds,
    # same messages, in the same order.
    twin = PASession(net, seed=3)
    full = twin.prepare(fine)
    rebuilt_phases = [
        (p.name[len("rebuild:"):], p.rounds, p.messages)
        for p in refined.setup_ledger.phases()
        if p.name.startswith("rebuild:")
    ]
    full_phases = [
        (p.name, p.rounds, p.messages)
        for p in full.setup_ledger.phases()
    ]
    assert rebuilt_phases == full_phases

    values = list(range(net.n))
    got = session.solve(refined, values, MIN, charge_setup=False)
    want = twin.solve(full, values, MIN, charge_setup=False)
    assert got.aggregates == want.aggregates


# -- edge updates: repair path ------------------------------------------

def _non_tree_edge(session):
    tree_edges = {
        (min(v, p), max(v, p))
        for v, p in enumerate(session.tree.parent)
        if p >= 0
    }
    return next(e for e in session.net.edges if e not in tree_edges)


def _missing_edge(net):
    for u in range(net.n):
        for v in range(u + 2, net.n):
            if not net.has_edge(u, v):
                return (u, v)
    raise AssertionError("network is complete")


def test_edge_insert_and_delete_repair_preserves_answers():
    net, coarse, _fine = _net_and_parts()
    values = [(v * 29) % 97 for v in range(net.n)]

    session = PASession(net, seed=3, reuse=True)
    setup = session.prepare(coarse)
    removed = _non_tree_edge(session)
    added = _missing_edge(net)
    report = session.apply_edge_updates(add=[added], remove=[removed])
    assert report.repaired
    assert report.added == 1 and report.removed == 1
    assert session.stats.repairs == 1
    assert session.stats.graph_rebuilds == 0
    assert session.net.has_edge(*added)
    assert not session.net.has_edge(*removed)

    # The cached setup was rebound, not evicted: a re-prepare is a hit...
    hits_before = session.stats.cache_hits
    rebound = session.prepare(coarse)
    assert session.stats.cache_hits == hits_before + 1
    # ...and it solves on the *new* topology with correct answers.
    got = session.solve(rebound, values, SUM, charge_setup=False)
    expect = {
        pid: sum(values[v] for v in coarse.members[pid])
        for pid in range(coarse.num_parts)
    }
    assert got.aggregates == expect


def test_edge_repair_parity_with_a_fresh_session():
    """A repaired session answers exactly like one built on the new graph."""
    net, coarse, _fine = _net_and_parts()
    values = [(v * 31) % 89 for v in range(net.n)]

    session = PASession(net, seed=3, reuse=True)
    session.prepare(coarse)
    added = _missing_edge(net)
    session.apply_edge_updates(add=[added])
    got = session.solve(
        session.prepare(coarse), values, MIN, charge_setup=False
    )

    fresh = PASession(session.net, seed=3, reuse=True)
    want = fresh.solve(fresh.prepare(coarse), values, MIN, charge_setup=False)
    assert got.aggregates == want.aggregates


def test_tree_edge_removal_forces_counted_rebuild():
    net, coarse, _fine = _net_and_parts()
    session = PASession(net, seed=3, reuse=True)
    session.prepare(coarse)
    tree_edge = next(
        (min(v, p), max(v, p))
        for v, p in enumerate(session.tree.parent)
        if p >= 0
    )
    # Keep the graph connected: add a replacement edge in the same batch.
    replacement = _missing_edge(net)
    report = session.apply_edge_updates(add=[replacement], remove=[tree_edge])
    assert not report.repaired
    assert session.stats.graph_rebuilds == 1
    # Everything cached belonged to the old machinery.
    assert report.evicted_setups == 1
    assert len(session._cache) == 0
    # The rebuild charged a fresh tree election to the report's ledger.
    assert any(
        p.name.startswith("rebuild:") for p in report.ledger.phases()
    )
    # And the session still serves.
    values = list(range(net.n))
    result = session.solve(
        session.prepare(coarse), values, SUM, charge_setup=False
    )
    assert set(result.aggregates) == set(range(coarse.num_parts))


def test_a_twin_engine_survives_an_edge_update():
    """A rebind, and a rebuild, build an engine of the old one's type:
    a session on the scalar twins stays on them, at the kernels' ledger."""
    net, coarse, _fine = _net_and_parts()
    values = [(v * 29) % 97 for v in range(net.n)]
    runs = []
    for engine in (TwinEngine(net), None):
        session = PASession(
            net, reuse=True, solver=PASolver(net, seed=3, engine=engine)
        )
        session.prepare(coarse)
        report = session.apply_edge_updates(
            add=[_missing_edge(net)], remove=[_non_tree_edge(session)]
        )
        assert report.repaired
        assert type(session.solver.engine) is type(engine or Engine(net))
        assert session.solver.engine.network is session.net
        got = session.solve(session.prepare(coarse), values, SUM)
        runs.append((got.aggregates, [
            (p.name, p.rounds, p.messages, p.ticks, p.bits)
            for p in got.ledger.phases()
        ]))
    assert runs[0] == runs[1]

    session = PASession(
        net, reuse=True, solver=PASolver(net, seed=3, engine=TwinEngine(net))
    )
    tree_edge = next(
        (min(v, p), max(v, p))
        for v, p in enumerate(session.tree.parent)
        if p >= 0
    )
    report = session.apply_edge_updates(
        add=[_missing_edge(net)], remove=[tree_edge]
    )
    assert not report.repaired
    assert type(session.solver.engine) is TwinEngine


def test_async_overhead_survives_an_edge_update():
    """An async engine cannot be rebound, so an edge update rebuilds it:
    the synchronizer tax already paid must stay on ``async_overhead``
    (same ledger, totals monotone, equal to old + what the rebuilt engine
    charges — which is what a fresh solver on the new graph charges)."""
    from repro import PASolver, make_schedule
    from repro.graphs import grid_2d

    def schedule():
        return make_schedule("random", 5)

    def serve(session):
        setup = session.prepare(partition)
        session.solve(setup, values, MIN, charge_setup=False)

    net = grid_2d(8, 8)
    partition = Partition([v // 16 for v in range(net.n)])
    values = list(range(net.n))
    session = PASession(
        net, solver=PASolver(net, seed=3, schedule=schedule()), reuse=True
    )
    serve(session)
    overhead = session.async_overhead
    paid = (overhead.rounds, overhead.messages, len(overhead.phases()))
    assert paid[0] > 0 and paid[1] > 0

    report = session.apply_edge_updates(add=[(0, 9)])
    assert not report.repaired and session.stats.graph_rebuilds == 1
    assert session.async_overhead is overhead
    assert (overhead.rounds, overhead.messages) >= paid[:2]
    serve(session)

    twin = PASession(
        session.net,
        solver=PASolver(session.net, seed=3, schedule=schedule()),
        reuse=True,
    )
    serve(twin)
    fresh = twin.async_overhead
    assert overhead.rounds == paid[0] + fresh.rounds
    assert overhead.messages == paid[1] + fresh.messages
    assert len(overhead.phases()) == paid[2] + len(fresh.phases())
    # The per-phase records travel with the ledger they itemise.
    assert len(session.engine.overhead_log) == len(overhead.phases())


def test_deletion_that_disconnects_a_part_evicts_its_setup():
    # A path: every internal edge is a tree edge of the BFS tree rooted
    # anywhere, so use a path plus one chord and delete the chord's
    # bypassed path edge... simpler: build a net where some part relies
    # on a specific non-tree edge for connectivity.
    net = random_connected(30, 0.12, seed=21)
    session = PASession(net, seed=7, reuse=True)
    # Find a non-tree edge whose removal disconnects some cached part:
    # take a 2-node part {u, v} connected only through edge (u, v).
    target = _non_tree_edge(session)
    u, v = target
    rest = [w for w in range(net.n) if w not in (u, v)]
    # Partition: {u, v} as one part iff the rest stays connected under
    # the part structure; fall back to skipping if not expressible.
    part_of = [0] * net.n
    for w in (u, v):
        part_of[w] = 1
    try:
        two_part = Partition(part_of)
        from repro.graphs.partitions import validate_partition

        validate_partition(net, two_part)
    except Exception:
        pytest.skip("instance cannot express the two-node part")
    session.prepare(two_part)
    report = session.apply_edge_updates(remove=[target])
    if not report.repaired:
        pytest.skip("chord was needed by the spanning tree on this seed")
    # Part {u, v} lost its only internal edge: the setup must be evicted.
    assert report.evicted_setups == 1
    assert session.stats.repair_evictions == 1


def test_edge_update_validation():
    net, coarse, _fine = _net_and_parts()
    session = PASession(net, seed=3, reuse=True)
    with pytest.raises(ValueError):
        session.apply_edge_updates(remove=[_missing_edge(net)])
    with pytest.raises(ValueError):
        session.apply_edge_updates(add=[net.edges[0]])
    e = _missing_edge(net)
    with pytest.raises(ValueError):
        session.apply_edge_updates(add=[e], remove=[e])
    with pytest.raises(ValueError):
        session.apply_edge_updates(add=[e], weights={e: 3})  # unweighted

    # On a weighted network a weight may only name an edge being added:
    # re-weighting an existing edge (or any other) is refused by name.
    weighted = PASession(with_random_weights(net, seed=4), seed=3)
    existing = weighted.net.edges[0]
    with pytest.raises(ValueError, match=re.escape(str(existing))):
        weighted.apply_edge_updates(add=[e], weights={e: 3, existing: 5})
    assert weighted.stats.edge_updates == 0
    assert weighted.apply_edge_updates(add=[e], weights={e[::-1]: 3}).added
    assert weighted.net.weights[e] == 3
