"""The Algorithm 1 waves: coverage, aggregation, reversal accounting."""

import random

from repro.congest import CostLedger, Engine
from repro.core import (
    MIN,
    SUM,
    PASolver,
    annotate_blocks,
    bfs_tree,
    division_from_groups,
    empty_shortcut,
    run_pa_waves,
    star_shortcut_for_parts,
)
from repro.core.wave import WaveProgram
from repro.graphs import (
    Partition,
    grid_2d,
    path_graph,
    random_connected,
    random_connected_partition,
)


def manual_setup(net, partition, groups, shortcut_builder):
    engine = Engine(net)
    ledger = CostLedger()
    leaders = [min(m, key=lambda v: net.uid[v]) for m in partition.members]
    tree = bfs_tree(engine, net, 0, CostLedger()).tree
    division = division_from_groups(net, partition, leaders, groups)
    shortcut = shortcut_builder(tree, partition)
    ann = annotate_blocks(engine, shortcut, CostLedger())
    return engine, ledger, division, shortcut, ann


def test_wave_covers_parts_with_empty_shortcut():
    """Coverage never depends on shortcut quality (only rounds do)."""
    net = path_graph(12)
    partition = Partition([0] * 6 + [1] * 6)
    groups = [range(0, 3), range(3, 6), range(6, 9), range(9, 12)]
    engine, ledger, division, shortcut, ann = manual_setup(
        net, partition, groups, empty_shortcut
    )
    outcome = run_pa_waves(
        engine, net, partition, division, shortcut, ann,
        [net.uid[v] for v in range(net.n)], MIN, ledger,
    )
    assert outcome.aggregates[0] == min(net.uid[v] for v in range(6))
    assert outcome.aggregates[1] == min(net.uid[v] for v in range(6, 12))
    for v in range(net.n):
        assert outcome.value_at_node[v] == outcome.aggregates[partition.part_of[v]]


def test_wave_uses_blocks_when_present():
    net = grid_2d(4, 8)
    partition = Partition([v % 4 for c in range(8) for v in range(4)])
    # Columns as parts is invalid (not connected); use rows instead.
    partition = Partition([r for r in range(4) for _ in range(8)])
    groups = [
        [r * 8 + c for c in range(4)] for r in range(4)
    ] + [
        [r * 8 + c for c in range(4, 8)] for r in range(4)
    ]
    engine, ledger, division, shortcut, ann = manual_setup(
        net, partition, groups,
        lambda tree, part: star_shortcut_for_parts(tree, part, range(4)),
    )
    outcome = run_pa_waves(
        engine, net, partition, division, shortcut, ann,
        [1] * net.n, SUM, ledger,
    )
    assert outcome.aggregates == {0: 8, 1: 8, 2: 8, 3: 8}
    # Block traffic appears in the record the reversal consumes: some
    # node relays ku/kd.
    wave = WaveProgram(
        net, partition, division, shortcut, ann,
        {pid: net.uid[leader] for pid, leader in enumerate(division.part_leader)},
    )
    engine.run(wave, max_ticks=200)
    tags = {
        tag
        for edges in wave.record.out_edges.values()
        for (_dst, tag) in edges
    }
    assert "ku" in tags or "kd" in tags


def test_reversal_message_accounting_mirrors_wave():
    net = random_connected(40, 0.08, seed=5)
    partition = random_connected_partition(net, 4, seed=6)
    solver = PASolver(net, seed=7)
    setup = solver.prepare(partition)
    result = solver.solve(setup, [1] * net.n, SUM, charge_setup=False)
    phases = {p.name: p for p in result.ledger.phases()}
    wave = phases["pa_wave"]
    reverse = phases["pa_reverse"]
    replay = phases["pa_replay"]
    # One answer per wave message; replay retraces wave edges.
    assert reverse.messages == wave.messages
    assert replay.messages <= wave.messages
    assert replay.messages > 0


def test_wave_rounds_scale_with_blocks_not_part_diameter():
    """A snake-shaped part has huge diameter; shortcuts keep rounds low."""
    rows, cols = 4, 30
    net = grid_2d(rows, cols)
    partition = Partition([r for r in range(rows) for _ in range(cols)])
    solver = PASolver(net, seed=3)
    setup = solver.prepare(partition)
    result = solver.solve(setup, [1] * net.n, SUM, charge_setup=False)
    assert result.aggregates == {r: cols for r in range(rows)}


def test_randomized_delays_stay_correct():
    net = grid_2d(3, 20)
    partition = Partition([r for r in range(3) for _ in range(20)])
    for seed in (1, 2, 3):
        solver = PASolver(net, seed=seed)
        setup = solver.prepare(partition)
        result = solver.solve(setup, [net.uid[v] for v in range(net.n)], MIN,
                              charge_setup=False)
        expected = {
            pid: min(net.uid[v] for v in partition.members[pid])
            for pid in range(3)
        }
        assert result.aggregates == expected
