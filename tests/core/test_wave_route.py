"""A setup learns its route once.

The first solve on a ``PASetup`` runs broadcast and reversal over the wire
record and replays on the forest the reversal's answer tags just taught
it — bit for bit what a solve on a fresh ``prepare`` runs — and when it
has returned the setup keeps that forest; every later solve on that setup
runs no ``*_wave`` phase, only one ``*_allreduce`` that sends ``2 (#keys -
#parts)`` messages.  When the build verified its shortcut (a ``*verify*``
phase in the setup ledger), that verification was the first solve: the
caller's first solve is already the all-reduce.  The answers are those of
a per-part fold either way, and the sync-scalar engine, the sync-array
engine and the async engine at delay 0 agree on every phase's ``(name,
rounds, messages, ticks, bits)``, learned or routed.  Every pass has its
completeness check: the wave its coverage scan, the reversal and the
all-reduce their parts without a result, the replay and the all-reduce
their count of members reached.
"""

from __future__ import annotations

import hashlib
import random

import numpy as np
import pytest
from hypothesis import (
    HealthCheck, example, given, settings, strategies as st,
)

from repro import PASolver, SUM
from repro.core import array_wave, wave as wave_module
from repro.core.array_wave import AllReduceArrayKernel, WaveArrayKernel
from repro.core.pa import DETERMINISTIC, RANDOMIZED
from repro.core.wave import WaveIndex
from repro.graphs import (
    Partition,
    bfs_ball_partition,
    grid_2d,
    random_connected,
    random_connected_partition,
    random_regular,
)

from oracles import ENGINE_OF, TwinEngine
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
    """How many ``(node, part)`` keys a forest spans."""
    return int(forest.keys.size)


def _verified(setup) -> bool:
    """Whether the setup's build verified its shortcut with PA."""
    return any("verify" in p.name for p in setup.setup_ledger.phases())


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
# Parts no wider than D: no verification, so solve 1 learns.
@example(seed=2, n=19, parts=5, mode=RANDOMIZED, kind="tuples", agg_pick=1)
@example(seed=8, n=25, parts=5, mode=DETERMINISTIC, kind="ints", agg_pick=0)
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
            net, mode=mode, seed=seed % 97, strict_bits=True, **kwargs(net)
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
        forest = setup.route.forest
        runs[label] = (logs, answers, _keys(forest), forest.edges)

        # Solve 1 is a fresh prepare's solve, bit for bit.
        assert logs[0] == fresh_logs[0]
        keys = _keys(forest)
        assert forest.edges == keys - partition.num_parts
        routed = logs[1:]
        if _verified(setup):
            # The verification that accepted the shortcut learned the
            # route: solve 1 is routed too.
            routed = logs
        else:
            assert [name.rsplit("_", 1)[1] for name, *_ in logs[0]] == [
                "wave", "reverse", "replay",
            ] * (len(logs[0]) // 3)
            # Solve 1: two wire passes, then the replay on that same
            # forest.
            sent = [messages for _n, _r, messages, *_ in logs[0]]
            for wave, reverse, replay in zip(
                sent[0::3], sent[1::3], sent[2::3]
            ):
                assert wave == reverse >= replay == forest.edges
        # The routed solves run one all-reduce over the forest, nothing
        # else.
        for log in routed:
            assert [name.rsplit("_", 1)[1] for name, *_ in log] == [
                "allreduce",
            ] * len(log)
            assert {messages for _n, _r, messages, *_ in log} == {
                2 * forest.edges
            }

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
    # Parts small enough that no verification runs: the solve learns.
    partition = random_connected_partition(net, 6, seed=2)
    answered = []

    class Watched(wave_module.ReverseProgram):
        def handle(self, ctx, node, inbox):
            for sender, (tag, pid, value) in inbox:
                assert tag == "a" or (tag, value) == ("n", None)
                if tag == "a":
                    answered.append(((node, pid), sender))
            super().handle(ctx, node, inbox)

    solver = PASolver(net, mode=mode, seed=5, engine=TwinEngine(net))
    setup = solver.prepare(partition)
    assert setup.route.delays is None
    monkeypatch.setattr(wave_module, "ReverseProgram", Watched)
    solver.solve(setup, list(range(net.n)), SUM, charge_setup=False)
    forest = setup.route.forest
    edges = [
        (key, dst)
        for key, out in zip(forest.pairs(), forest.out_lists()) for dst in out
    ]
    assert sorted(answered) == sorted(edges)
    assert len(edges) == len(set(edges)) == forest.edges
    assert {((dst, pid), v) for (v, pid), dst in edges} == {
        (key, parent)
        for key, parent in zip(forest.pairs(), forest.parent.tolist())
        if parent >= 0
    }


def _phantom_children(route, leader, pid, count):
    """Give key ``(leader, pid)`` of a route ``count`` out-edges to nodes
    it never sent to: it waits for answers, or for forest neighbors, that
    never come."""
    key = int(route.ids(leader * route.stride + pid))
    known = set(route.out_dst[route.out_starts[key]:][
        :route.out_counts[key]
    ].tolist())
    phantoms = [v for v in range(route.n) if v not in known][:count]
    sender = np.repeat(np.arange(route.keys.size), route.out_counts)
    route._set_out(
        np.concatenate((sender, [key] * count)),
        np.concatenate((route.out_dst, phantoms)),
    )
    return route


@pytest.mark.parametrize("impl", ["scalar", "array"])
def test_a_reversal_that_leaves_a_part_without_a_result_raises(
    impl, monkeypatch
):
    """A pass that cannot finish leaves its part without a result, and the
    solve raises instead of returning a short ``aggregates`` dict: the
    learning solve's reversal (a leader made to wait for the answer to a
    message it never sent), which then commits no route, and — with no
    token wave and no coverage scan — the routed all-reduce (a leader
    made to wait for two forest children that do not exist: it never
    hears from all its neighbors but one, so no key of the part ever holds
    the total)."""
    net = grid_2d(5, 5)
    # Parts small enough that no verification runs: the first solve learns.
    partition = random_connected_partition(net, 5, seed=4)
    solver = PASolver(net, seed=2, engine=ENGINE_OF[impl](net))
    setup = solver.prepare(partition)
    assert setup.route.delays is None
    values = list(range(net.n))
    leader = setup.leaders[1]

    program = wave_module.WaveProgram if impl == "scalar" else WaveArrayKernel
    wire = program.route
    with monkeypatch.context() as patch:
        patch.setattr(
            program, "route",
            lambda self: _phantom_children(wire(self), leader, 1, 1),
        )
        with pytest.raises(
            RuntimeError, match=r"reversal left parts without a result: \[1\]"
        ):
            solver.solve(setup, values, SUM, charge_setup=False)
    assert setup.route.delays is None

    first = solver.solve(setup, values, SUM, charge_setup=False)
    assert set(first.aggregates) == set(range(partition.num_parts))
    forest = setup.route.forest
    _phantom_children(forest, leader, 1, 2)
    with pytest.raises(
        RuntimeError, match=r"all-reduce left parts without a result: \[1\]"
    ):
        solver.solve(setup, values, SUM, charge_setup=False)


class _LossyAllReduce(wave_module.AllReduceProgram):
    """The scalar all-reduce with its first total packet lost."""

    lost = False

    def enqueue(self, ctx, src, dst, priority, payload):
        if payload[0] == "d" and not self.lost:
            self.lost = True
            return
        super().enqueue(ctx, src, dst, priority, payload)


class _LossyAllReduceKernel(AllReduceArrayKernel):
    """The array all-reduce with its first total packet lost."""

    lost = False

    def _finish(self, kids, pos, em):
        super()._finish(kids, pos, em)
        if not self.lost and em[-1][0].size:
            self.lost = True
            em[-1] = tuple(col[1:] for col in em[-1])


@pytest.mark.parametrize("impl", ["scalar", "array"])
@pytest.mark.parametrize("solve", ["learning", "routed"])
def test_a_replay_that_reaches_fewer_members_than_the_part_has_raises(
    impl, solve, monkeypatch
):
    """A solve's last pass must leave every member holding its part's
    aggregate, or the solve raises on the count instead of returning
    ``None`` for the stranded members.  The learning solve's replay runs
    on the forest, an edge set no coverage scan ever validated: a forest
    that has lost an edge strands a subtree, and the solve commits no
    route.  A routed solve's all-reduce strands the subtree behind a lost
    total packet."""
    net = grid_2d(5, 5)
    # Parts small enough that no verification runs: the first solve learns.
    partition = random_connected_partition(net, 5, seed=4)
    solver = PASolver(net, seed=2, engine=ENGINE_OF[impl](net))
    setup = solver.prepare(partition)
    assert setup.route.delays is None
    values = list(range(net.n))

    def cut(forest):
        forest.out_counts = forest.out_counts.copy()
        forest.out_counts[np.flatnonzero(forest.out_counts)[-1]] -= 1
        return forest

    if solve == "routed":
        solver.solve(setup, values, SUM, charge_setup=False)
        if impl == "scalar":
            monkeypatch.setattr(
                wave_module, "AllReduceProgram", _LossyAllReduce
            )
        else:
            monkeypatch.setattr(
                array_wave, "AllReduceArrayKernel", _LossyAllReduceKernel
            )
        pattern = r"pa_allreduce reached \d+ of 25 part"
    else:
        derive = WaveIndex.forest
        monkeypatch.setattr(
            WaveIndex, "forest", lambda self: cut(derive(self))
        )
        pattern = r"pa_replay reached \d+ of 25 part"
    with pytest.raises(RuntimeError, match=pattern):
        solver.solve(setup, values, SUM, charge_setup=False)
    if solve == "learning":
        assert setup.route.delays is None


def _forest_digest(forest) -> str:
    """SHA-256 over the sorted ``(node, part, wave parent)`` of a forest
    (-1: a leader key)."""
    rows = sorted(zip(
        forest.node.tolist(), forest.part.tolist(), forest.parent.tolist()
    ))
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def _rows_as_parts(rows, cols):
    net = grid_2d(rows, cols)
    return net, Partition([r for r in range(rows) for _ in range(cols)])


def _balls(n, seed):
    net = random_regular(n, 4, seed=seed)
    return net, bfs_ball_partition(net, 55, seed=seed)


def _random(n, parts, seed):
    net = random_connected(n, 0.1, seed=seed, uid_seed=seed)
    return net, random_connected_partition(net, parts, seed=seed)


#: ``(instance, mode, keys, digest)``: the forest a setup's first solve
#: learns, pinned from the wave that hands a token on in the tick it gains
#: it and never back to a neighbor that sent it.  The second instance
#: was recaptured (422 keys before) when only self-sampled candidates
#: began to start the election's flood: the candidate draw comes first
#: off the solver's random stream, so its division and shortcut moved.
FOREST_PINS = [
    (lambda: _rows_as_parts(8, 12), RANDOMIZED, 96,
     "71e0bdbcfe022663ef67c4953692b1af251e91800ab3fb00c78bc61dd159558f"),
    (lambda: _balls(256, 11), RANDOMIZED, 461,
     "534f664d5d0365c3a9c2d602afc7975ca9b4c0e5eb5a7872c6ed13708c1b0a11"),
    (lambda: _balls(256, 5), DETERMINISTIC, 275,
     "f5d737d796f6564b9a4979120a8fe1d990e7b44a72d7fce981cdfe3ba38fb746"),
    (lambda: _random(48, 5, 7), DETERMINISTIC, 53,
     "f7488d6b8f60e513d74824da829cfb7de7023a121de4a9fa8b3eeda431120cb1"),
]


@pytest.mark.parametrize("impl", ["scalar", "array"])
@pytest.mark.parametrize("case", range(len(FOREST_PINS)))
def test_the_learned_forest_is_pinned_on_both_twins(case, impl):
    make, mode, keys, digest = FOREST_PINS[case]
    net, partition = make()
    solver = PASolver(net, mode=mode, seed=5, engine=ENGINE_OF[impl](net))
    setup = solver.prepare(partition)
    solver.solve(setup, list(range(net.n)), SUM, charge_setup=False)
    forest = setup.route.forest
    assert (_keys(forest), _forest_digest(forest)) == (keys, digest)


@pytest.mark.parametrize("mode", [RANDOMIZED, DETERMINISTIC])
def test_a_route_the_array_twin_learned_serves_the_scalar_twin(
    mode, monkeypatch
):
    """One route type: the forest the array kernels learned is the one the
    scalar all-reduce runs on — one ``pa_allreduce``, no token wave (not
    even an uncharged one), at the array twin's routed cost."""
    net = grid_2d(6, 6, uid_seed=3)
    # Parts small enough that no verification runs: the first solve learns.
    partition = random_connected_partition(net, 6, seed=2)
    array = PASolver(net, mode=mode, seed=5, strict_bits=True)
    scalar = PASolver(net, mode=mode, seed=5, engine=TwinEngine(net))
    setup = array.prepare(partition)
    values = list(range(net.n))
    array.solve(setup, values, SUM, charge_setup=False)
    assert setup.route.delays is not None

    ran = []
    run = scalar.engine.run

    def spy(program, *args, **kwargs):
        ran.append(program.name)
        return run(program, *args, **kwargs)

    monkeypatch.setattr(scalar.engine, "run", spy)
    got = scalar.solve(setup, values, SUM, charge_setup=False)
    want = array.solve(setup, values, SUM, charge_setup=False)
    assert ran == ["pa_allreduce"]
    assert _log(got.ledger) == _log(want.ledger)
    assert (got.aggregates, got.value_at_node) == (
        want.aggregates, want.value_at_node
    )
