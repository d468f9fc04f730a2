"""Shard plans: conflict-component closure and deterministic binning."""

from __future__ import annotations

import pytest

from repro import PASession
from repro.graphs import grid_2d, random_connected, random_connected_partition
from repro.shard import ShardPlan, build_shard_plan
from repro.shard.plan import conflict_components


def _setup(mode="randomized", n_parts=8, seed=3):
    net = random_connected(48, 0.08, seed=11)
    partition = random_connected_partition(net, n_parts, seed=5)
    session = PASession(net, mode=mode, seed=seed)
    return session.prepare(partition), partition


def test_components_partition_the_parts():
    setup, partition = _setup()
    components = conflict_components(setup)
    seen = sorted(pid for comp in components for pid in comp)
    assert seen == list(range(partition.num_parts))
    for comp in components:
        assert comp == sorted(comp)


def test_components_are_conflict_closed():
    """No used tree edge may have users in two different components."""
    setup, _partition = _setup()
    components = conflict_components(setup)
    comp_of = {}
    for k, comp in enumerate(components):
        for pid in comp:
            comp_of[pid] = k
    part_of = setup.partition.part_of
    tparent = setup.shortcut.tree.parent
    for c, parts in enumerate(setup.shortcut.up_parts):
        if not parts:
            continue
        users = set(parts)
        p = tparent[c]
        if p >= 0 and part_of[c] == part_of[p]:
            users.add(part_of[c])
        assert len({comp_of[pid] for pid in users}) == 1


@pytest.mark.parametrize("workers", [1, 2, 3, 8])
def test_plan_covers_every_part_once(workers):
    setup, partition = _setup()
    plan = build_shard_plan(setup, workers)
    assert isinstance(plan, ShardPlan)
    assert len(plan.shard_parts) <= workers
    assert len(plan.shard_parts) <= plan.num_components
    seen = sorted(pid for shard in plan.shard_parts for pid in shard)
    assert seen == list(range(partition.num_parts))
    for shard in plan.shard_parts:
        assert shard == tuple(sorted(shard))


def test_plan_is_deterministic():
    setup, _partition = _setup()
    a = build_shard_plan(setup, 4)
    b = build_shard_plan(setup, 4)
    assert a == b


def test_plan_rejects_bad_workers():
    setup, _partition = _setup()
    with pytest.raises(ValueError):
        build_shard_plan(setup, 0)


def test_workers_one_is_a_single_shard():
    setup, partition = _setup()
    plan = build_shard_plan(setup, 1)
    assert len(plan.shard_parts) == 1
    assert plan.shard_parts[0] == tuple(range(partition.num_parts))


def test_grid_partition_shards():
    """A grid with block parts usually yields multiple components."""
    net = grid_2d(8, 8)
    partition = random_connected_partition(net, 10, seed=9)
    session = PASession(net, seed=1)
    setup = session.prepare(partition)
    plan = build_shard_plan(setup, 4)
    seen = sorted(pid for shard in plan.shard_parts for pid in shard)
    assert seen == list(range(partition.num_parts))
