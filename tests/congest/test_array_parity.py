"""Scalar-vs-vectorized differential parity: the pin for the array core.

The array engine (:mod:`repro.congest.arrays` plus the kernels in
:mod:`repro.core.array_queue` / :mod:`repro.core.array_wave`) is a pure
implementation change, never a cost-model change: for every program pair
(scalar program, array kernel) the phase ledger — name, rounds, messages,
ticks — and all program outputs must be bit-for-bit identical.  These
tests pin that contract at the algorithm level over seeded graphs, both
PA modes, several aggregations and all three fuzzed workloads; the
scalar twins run inside ``twins.twin_phases()``.
``tests/fuzz/test_engine_parity.py`` extends the same check to the fuzz
harness's random cases.
"""

from __future__ import annotations

import pytest

from repro.algorithms import cc_labeling, minimum_spanning_tree
from repro.analysis import kruskal_mst
from repro.congest import CostLedger, Engine, Network, SynchronousSchedule
from repro.congest.arrays import KernelDecline
from repro.core import (
    AND,
    DETERMINISTIC,
    MAX,
    MIN,
    MIN_TUPLE,
    OR,
    PASolver,
    RANDOMIZED,
    SUM,
    solve_pa,
)
from repro.core.treeops import run_convergecast
from repro.graphs import (
    bfs_ball_partition,
    grid_2d,
    path_graph,
    preferential_attachment,
    random_connected,
    random_connected_partition,
    random_regular,
    with_distinct_weights,
)
from repro.obs import Tracer, use_tracer
from repro.runtime import PASession

from twins import twin_phases


def _on(impl, run):
    """``run()`` on the scalar twins (``impl == "scalar"``) or the kernels."""
    with twin_phases(impl == "scalar"):
        return run()


def _solve_pa(net, partition, values, agg, impl, mode=RANDOMIZED, seed=0):
    return _on(impl, lambda: solve_pa(
        net, partition, values, agg, mode=mode, seed=seed,
        solver=PASolver(net, mode=mode, seed=seed),
    ))


def _session(net, mode=RANDOMIZED, seed=0):
    return PASession(net, solver=PASolver(net, mode=mode, seed=seed))


def _phase_log(ledger):
    return [(p.name, p.rounds, p.messages, p.ticks) for p in ledger.phases()]


def _graphs():
    return [
        ("grid", grid_2d(5, 7, uid_seed=3)),
        ("random", random_connected(40, 0.1, seed=11, uid_seed=11)),
        ("regular", random_regular(36, 3, seed=7, uid_seed=7)),
        ("pref-attach", preferential_attachment(34, attach=2, seed=5,
                                                uid_seed=5)),
    ]


# ----------------------------------------------------------------------
# PA: aggregates, per-node values and the full phase log
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind,net", _graphs())
@pytest.mark.parametrize("mode", [RANDOMIZED, DETERMINISTIC])
def test_pa_bit_for_bit_across_engines(kind, net, mode):
    partition = random_connected_partition(net, 5, seed=13)
    values = [(v * 11 + 2) % 251 for v in range(net.n)]
    results = {
        impl: _solve_pa(net, partition, values, SUM, impl, mode=mode, seed=17)
        for impl in ("scalar", "array")
    }
    sc, ar = results["scalar"], results["array"]
    assert dict(ar.aggregates) == dict(sc.aggregates)
    assert list(ar.value_at_node) == list(sc.value_at_node)
    assert _phase_log(ar.ledger) == _phase_log(sc.ledger)


@pytest.mark.parametrize("agg", [SUM, MIN, MAX])
def test_pa_parity_holds_for_every_identity_aggregation(agg):
    # Every aggregation rides beside the same wire schedule, and only the
    # reversal's value store depends on it — the ledger must not move.
    net = grid_2d(6, 6, uid_seed=9)
    partition = bfs_ball_partition(net, 7, seed=4)
    values = [(v * 3 + 1) % 97 for v in range(net.n)]
    sc = _solve_pa(net, partition, values, agg, "scalar", seed=5)
    ar = _solve_pa(net, partition, values, agg, "array", seed=5)
    assert dict(ar.aggregates) == dict(sc.aggregates)
    assert _phase_log(ar.ledger) == _phase_log(sc.ledger)


def test_pa_parity_with_tuple_values_falls_back_identically():
    # Tuple values ride beside the wire schedule like any other: only the
    # reversal's value store differs (a list folded with the aggregation's
    # merge instead of an int64 column), without any ledger drift.
    net = random_connected(30, 0.12, seed=21, uid_seed=21)
    partition = random_connected_partition(net, 4, seed=8)
    values = [(net.uid[v] % 7, net.uid[v]) for v in range(net.n)]
    sc = _solve_pa(net, partition, values, MIN_TUPLE, "scalar", seed=2)
    ar = _solve_pa(net, partition, values, MIN_TUPLE, "array", seed=2)
    assert dict(ar.aggregates) == dict(sc.aggregates)
    assert _phase_log(ar.ledger) == _phase_log(sc.ledger)


# ----------------------------------------------------------------------
# Whole algorithms on top of PA
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode", [RANDOMIZED, DETERMINISTIC])
def test_mst_bit_for_bit_across_engines(mode):
    net = with_distinct_weights(grid_2d(5, 6, uid_seed=2), seed=19)
    sc, ar = (
        _on(impl, lambda: minimum_spanning_tree(
            net, mode=mode, seed=3, session=_session(net, mode, 3)
        ))
        for impl in ("scalar", "array")
    )
    assert ar.output == sc.output == frozenset(kruskal_mst(net))
    assert _phase_log(ar.ledger) == _phase_log(sc.ledger)


def test_components_bit_for_bit_across_engines():
    net = random_connected(42, 0.09, seed=31, uid_seed=31)
    subgraph = [e for i, e in enumerate(net.edges) if i % 3 != 0]
    sc, ar = (
        _on(impl, lambda: cc_labeling(
            net, subgraph, seed=6, session=_session(net, seed=6)
        ))
        for impl in ("scalar", "array")
    )
    assert list(ar.output) == list(sc.output)
    assert _phase_log(ar.ledger) == _phase_log(sc.ledger)


# ----------------------------------------------------------------------
# The ledger really is phase-for-phase, not just in aggregate
# ----------------------------------------------------------------------
def test_parity_covers_every_named_phase():
    net = grid_2d(6, 5, uid_seed=1)
    partition = random_connected_partition(net, 4, seed=3)
    values = list(range(net.n))
    sc = _solve_pa(net, partition, values, SUM, "scalar", seed=9)
    ar = _solve_pa(net, partition, values, SUM, "array", seed=9)
    sc_log, ar_log = _phase_log(sc.ledger), _phase_log(ar.ledger)
    assert [p[0] for p in sc_log] == [p[0] for p in ar_log]
    # The pipeline's interesting phases all actually ran on both sides.
    names = {p[0] for p in sc_log}
    assert any("wave" in name for name in names)
    assert len(sc_log) > 3


# ----------------------------------------------------------------------
# The deterministic set-up (Algorithms 5 and 6) on the multi-column
# broadcast / convergecast / cross-round kernels
# ----------------------------------------------------------------------
def _star_of_cliques(cliques=5, size=6, uid_seed=4):
    """A hub joined to one node of each of ``cliques`` ``size``-cliques."""
    edges = []
    for c in range(cliques):
        base = 1 + c * size
        edges.append((0, base))
        edges.extend(
            (base + i, base + j) for i in range(size) for j in range(i + 1, size)
        )
    return Network(edges, uid_seed=uid_seed)


def _det_prepare(net, partition, impl):
    """Strict-bits deterministic prepare: (phase log with bits, division)."""
    solver = PASolver(net, mode=DETERMINISTIC, seed=5)
    setup = _on(impl, lambda: solver.prepare(partition))
    log = [
        (p.name, p.rounds, p.messages, p.ticks, p.bits)
        for p in setup.setup_ledger.phases()
    ]
    division = setup.division
    return log, (division.forest.parent, division.rep_of)


def _det_inputs():
    grid = grid_2d(8, 9, uid_seed=3)
    regular = random_regular(120, 4, seed=7, uid_seed=7)
    path = path_graph(48, uid_seed=2)
    cliques = _star_of_cliques()
    return [
        ("grid", grid, bfs_ball_partition(grid, 12, seed=4)),
        ("regular", regular, bfs_ball_partition(regular, 20, seed=4)),
        ("path", path, bfs_ball_partition(path, 16, seed=1)),
        ("star-of-cliques", cliques, random_connected_partition(cliques, 3, seed=2)),
    ]


@pytest.mark.parametrize("kind,net,partition", _det_inputs())
def test_deterministic_prepare_bit_for_bit_across_engines(kind, net, partition):
    sc_log, sc_division = _det_prepare(net, partition, "scalar")
    ar_log, ar_division = _det_prepare(net, partition, "array")
    assert ar_log == sc_log
    assert ar_division == sc_division
    # Sub-part trees more than one level deep actually ran.
    assert any(name.startswith("det_star_2_") for name, *_ in sc_log)


def _pipeline(net, partition, mode, twins=False, **engine):
    """Strict-bits tree + prepare + one solve: (phase log with bits, outputs)."""
    with twin_phases(twins):
        solver = PASolver(net, mode=mode, seed=5, strict_bits=True, **engine)
        session = PASession(net, solver=solver)
        setup = session.prepare(partition)
        result = session.solve(
            setup, [(v * 7 + 3) % 101 for v in range(net.n)], SUM
        )
    log = [
        (p.name, p.rounds, p.messages, p.ticks, p.bits)
        for ledger in (solver.tree_ledger, setup.setup_ledger, result.ledger)
        for p in ledger.phases()
    ]
    return log, (dict(result.aggregates), list(result.value_at_node))


@pytest.mark.parametrize("kind,net,partition", _det_inputs()[:3])
@pytest.mark.parametrize("mode", [RANDOMIZED, DETERMINISTIC])
def test_whole_pipeline_bit_for_bit_on_three_engines(kind, net, partition, mode):
    """Every phase has one driver body: scalar, array and delay-0 async
    engines charge the same (name, rounds, messages, ticks, bits), in the
    same order — the one-round phases that run as ``cross_round`` included.
    """
    scalar = _pipeline(net, partition, mode, twins=True)
    assert _pipeline(net, partition, mode) == scalar
    assert _pipeline(
        net, partition, mode, schedule=SynchronousSchedule()
    ) == scalar
    charged = {name: cost for name, *cost in scalar[0]}
    assert any(name.endswith("_announce") for name in charged)
    for name in ["child_ack"] + ["heavy_notify"] * (mode == DETERMINISTIC):
        rounds, messages, ticks, bits = charged[name]
        assert (rounds, ticks) == (1, 1) and 0 < messages < bits


def test_deterministic_prepare_reaches_the_kernels_and_declines_a_huge_uid():
    net = random_regular(60, 4, seed=3, uid_seed=3)
    partition = bfs_ball_partition(net, 15, seed=2)

    # Ordinary uids: every Algorithm 5/6 exchange runs on its kernel, and
    # the value store folds no list.
    tracer = Tracer()
    with use_tracer(tracer):
        log, division = _det_prepare(net, partition, "array")
    assert (log, division) == _det_prepare(net, partition, "scalar")
    assert not [e for e in tracer.events if e["name"] == "kernel_fallback"]

    # One uid at 2**62 (a ``Network`` draws them in [n, 2n)): the first
    # phase that would carry it, the election, cannot, and raises, naming
    # itself.
    huge = random_regular(60, 4, seed=3, uid_seed=3)
    uids = list(huge.uid)
    uids[uids.index(max(uids))] = (1 << 62) + 7
    huge.__dict__["uid"] = tuple(uids)
    with pytest.raises(KernelDecline) as declined:
        _det_prepare(huge, partition, "array")
    assert (declined.value.phase, declined.value.reason) == (
        "leader_election", "overflow",
    )


def test_mixed_shape_values_raise_at_the_convergecast():
    """Tuples of two lengths order fine under min(), but share no layout:
    the convergecast raises, naming its phase and the reason, where the
    scalar twin would have folded them."""
    net = grid_2d(5, 5, uid_seed=1)
    forest = PASolver(net, seed=1).tree
    values = [(v % 3, v) if v % 2 else (v % 3, v, 1) for v in range(net.n)]
    with pytest.raises(KernelDecline) as declined:
        run_convergecast(
            Engine(net), forest, MIN_TUPLE, values, CostLedger(), name="mixed",
        )
    assert (declined.value.phase, declined.value.reason) == (
        "mixed", "mixed_shape",
    )


@pytest.mark.parametrize("agg", [OR, AND], ids=["or", "and"])
def test_or_and_fold_zero_one_ints_on_the_kernel(agg):
    """OR / AND over 0 / 1 ints are max / min on the convergecast kernel,
    to the bit of the scalar program under the strict audit; any other
    value (a bool, a 2) raises ``non_int``."""
    net = grid_2d(5, 6, uid_seed=2)
    forest = PASolver(net, seed=2).tree
    n = net.n
    for values in (
        [v % 2 for v in range(n)],
        [None if v % 3 == 0 else int(v % 5 == 1) for v in range(n)],
        [int(agg is AND)] * n,
    ):
        outcomes = []
        for twins in (True, False):
            ledger = CostLedger()
            with twin_phases(twins):
                program = run_convergecast(
                    Engine(net), forest, agg, values, ledger, name="flag",
                )
            partial = program.partial
            outcomes.append((
                program.at_root, partial, [type(v) for v in partial.values()],
                [(p.name, p.rounds, p.messages, p.ticks, p.bits)
                 for p in ledger.phases()],
            ))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][3][0][4] > 0  # the audit counted the bits
    for values in ([bool(v % 2) for v in range(n)], [v % 3 for v in range(n)]):
        with pytest.raises(KernelDecline) as declined:
            run_convergecast(
                Engine(net), forest, agg, values, CostLedger(), name="flag",
            )
        assert (declined.value.phase, declined.value.reason) == (
            "flag", "non_int",
        )
