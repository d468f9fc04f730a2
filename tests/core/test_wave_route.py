"""A setup learns its route once.

The first solve on a ``PASetup`` runs broadcast and reversal over the wire
record and replays on the forest the reversal's answer tags just taught
it — bit for bit what a solve on a fresh ``prepare`` runs — and when it
has returned the setup keeps that forest; every later solve on that setup
runs no ``*_wave`` phase, and its ``*_reverse`` and ``*_replay`` send
``#keys - #parts`` messages each.  The answers are those of a per-part
fold either way, and the sync-scalar engine, the sync-array engine and the
async engine at delay 0 agree on every phase's ``(name, rounds, messages,
ticks, bits)``, learned or routed.  Every pass has its completeness check:
the wave its coverage scan, the reversal its unanswered parts, the replay
its count of members reached.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import PASolver, SUM
from repro.core import wave as wave_module
from repro.core.array_wave import WaveIndex
from repro.core.pa import DETERMINISTIC, RANDOMIZED
from repro.graphs import grid_2d, random_connected, random_connected_partition

from test_wave_values import ENGINES, _items

#: The four value shapes of ``test_wave_values`` ("big" is "ints" again as
#: far as the route is concerned).
KINDS = ("ints", "tuples", "product", "floats")


def _log(ledger):
    return [
        (p.name, p.rounds, p.messages, p.ticks, p.bits) for p in ledger.phases()
    ]


def _answers(batch):
    return [(dict(res.aggregates), list(res.value_at_node)) for res in batch.per_agg]


def _keys(forest) -> int:
    """How many ``(node, part)`` keys a forest of either twin spans."""
    return len(forest.parent)


@given(
    seed=st.integers(0, 2**20),
    n=st.integers(17, 30),
    parts=st.integers(1, 5),
    mode=st.sampled_from([RANDOMIZED, DETERMINISTIC]),
    kind=st.sampled_from(KINDS),
    agg_pick=st.integers(0, 5),
)
@settings(
    max_examples=20, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_three_solves_on_one_setup_against_three_fresh_prepares(
    seed, n, parts, mode, kind, agg_pick
):
    net = random_connected(n, 0.12, seed=seed, uid_seed=seed)
    partition = random_connected_partition(net, parts, seed=seed)
    rng = random.Random(seed)
    solves = [_items(kind, agg_pick + k, net.n, rng) for k in range(3)]
    exact = (lambda want: want) if kind != "floats" else pytest.approx

    def solver(kwargs):
        return PASolver(
            net, mode=mode, seed=seed % 97, strict_bits=True, **kwargs
        )

    runs = {}
    for label, kwargs in ENGINES:
        reused, fresh = solver(kwargs), solver(kwargs)
        setup = reused.prepare(partition)
        logs, answers, fresh_logs = [], [], []
        for items in solves:
            batch = reused.solve_many(setup, items, charge_setup=False)
            logs.append(_log(batch.ledger))
            answers.append(_answers(batch))
            again = fresh.solve_many(
                fresh.prepare(partition), items, charge_setup=False
            )
            fresh_logs.append(_log(again.ledger))
            for (aggregates, at_node), (want, want_at_node) in zip(
                _answers(again), answers[-1]
            ):
                assert aggregates == exact(want)
                assert at_node == exact(want_at_node)
        (forest,) = setup.route.forests.values()
        runs[label] = (logs, answers, _keys(forest), forest.edges)

        # Solve 1 is a fresh prepare's solve, bit for bit.
        assert logs[0] == fresh_logs[0]
        assert [name.rsplit("_", 1)[1] for name, *_ in logs[0]] == [
            "wave", "reverse", "replay",
        ] * (len(logs[0]) // 3)
        # Solves 2 and 3 run two passes over the forest, nothing else.
        keys = _keys(forest)
        assert forest.edges == keys - partition.num_parts
        # Solve 1: two wire passes, then the replay on that same forest.
        sent = [messages for _n, _r, messages, *_ in logs[0]]
        for wave, reverse, replay in zip(sent[0::3], sent[1::3], sent[2::3]):
            assert wave == reverse >= replay == forest.edges
        for log in logs[1:]:
            assert [name.rsplit("_", 1)[1] for name, *_ in log] == [
                "reverse", "replay",
            ] * (len(log) // 2)
            assert {messages for _n, _r, messages, *_ in log} == {forest.edges}

    for label in ("array", "async"):
        assert runs[label] == runs["scalar"], label

    # The oracle, part by part.
    for items, answered in zip(solves, runs["scalar"][1]):
        for (values, agg), (aggregates, value_at_node) in zip(items, answered):
            want = {
                pid: agg.fold(values[v] for v in members)
                for pid, members in enumerate(partition.members)
            }
            assert aggregates == exact(want)
            assert value_at_node == exact(
                [want[pid] for pid in partition.part_of]
            )


@pytest.mark.parametrize("mode", [RANDOMIZED, DETERMINISTIC])
def test_the_answer_tag_is_how_a_node_learns_its_forest_edges(
    mode, monkeypatch
):
    """Scalar twin, on the wire: the wave edges answered under the child
    tag are exactly the forest's edges — one per non-leader key — and every
    other answer is a ``None`` under the other tag."""
    net = grid_2d(6, 6, uid_seed=3)
    partition = random_connected_partition(net, 4, seed=2)
    answered = []

    class Watched(wave_module.ReverseProgram):
        def handle(self, ctx, node, inbox):
            for sender, (tag, pid, value) in inbox:
                assert tag == "a" or (tag, value) == ("n", None)
                if tag == "a":
                    answered.append(((node, pid), sender))
            super().handle(ctx, node, inbox)

    solver = PASolver(net, mode=mode, seed=5, engine_impl="scalar")
    setup = solver.prepare(partition)
    monkeypatch.setattr(wave_module, "ReverseProgram", Watched)
    solver.solve(setup, list(range(net.n)), SUM, charge_setup=False)
    forest = setup.route.forests[False]
    edges = [
        ((v, pid), dst)
        for (v, pid), out in forest.out_edges.items() for dst, _tag in out
    ]
    assert sorted(answered) == sorted(edges)
    assert len(edges) == len(set(edges)) == forest.edges
    assert {((dst, pid), v) for (v, pid), dst in edges} == {
        (key, parent) for key, parent in forest.parent.items()
        if parent is not None
    }


@pytest.mark.parametrize("impl", ["scalar", "array"])
def test_a_reversal_that_leaves_a_part_without_a_result_raises(impl):
    """No token wave, no coverage scan: a routed reversal that cannot
    finish (here: a leader made to wait for a child that does not exist)
    raises instead of returning a short ``aggregates`` dict."""
    net = grid_2d(5, 5)
    partition = random_connected_partition(net, 3, seed=4)
    solver = PASolver(net, seed=2, engine_impl=impl)
    setup = solver.prepare(partition)
    values = list(range(net.n))
    first = solver.solve(setup, values, SUM, charge_setup=False)
    assert set(first.aggregates) == {0, 1, 2}
    (forest,) = setup.route.forests.values()
    leader = setup.leaders[1]
    if impl == "scalar":
        forest.out_edges.setdefault((leader, 1), []).append((leader, "su"))
    else:
        key = int(forest.ids(leader * forest.stride + 1))
        forest.out_counts = forest.out_counts.copy()
        forest.out_counts[key] += 1
    with pytest.raises(RuntimeError, match=r"without a result: \[1\]"):
        solver.solve(setup, values, SUM, charge_setup=False)


@pytest.mark.parametrize("impl", ["scalar", "array"])
@pytest.mark.parametrize("solve", ["learning", "routed"])
def test_a_replay_that_reaches_fewer_members_than_the_part_has_raises(
    impl, solve, monkeypatch
):
    """The replay runs on the forest, an edge set no coverage scan ever
    validated: a forest that has lost an edge strands a subtree, and the
    solve raises on the count instead of returning ``None`` for the
    stranded members — the learning solve (which then commits no route)
    and the routed one alike."""
    net = grid_2d(5, 5)
    partition = random_connected_partition(net, 3, seed=4)
    solver = PASolver(net, seed=2, engine_impl=impl)
    setup = solver.prepare(partition)
    values = list(range(net.n))

    def cut(forest):
        if impl == "scalar":
            key = max(forest.out_edges)
            forest.out_edges[key] = forest.out_edges[key][:-1]
        else:
            forest.out_counts = forest.out_counts.copy()
            forest.out_counts[np.flatnonzero(forest.out_counts)[-1]] -= 1
        return forest

    if solve == "routed":
        solver.solve(setup, values, SUM, charge_setup=False)
        (forest,) = setup.route.forests.values()
        cut(forest)
    else:
        route_type = (
            wave_module.WaveRecord if impl == "scalar" else WaveIndex
        )
        derive = route_type.forest
        monkeypatch.setattr(
            route_type, "forest", lambda self: cut(derive(self))
        )
    with pytest.raises(RuntimeError, match=r"replay reached \d+ of 25 part"):
        solver.solve(setup, values, SUM, charge_setup=False)
    if solve == "learning":
        assert setup.route.delays is None
