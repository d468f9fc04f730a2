"""Scalar-vs-vectorized differential parity: the pin for the array core.

The array engine (:mod:`repro.congest.arrays` plus the kernels in
:mod:`repro.core.array_queue` / :mod:`repro.core.array_wave`) is a pure
implementation change, never a cost-model change: for every program pair
(scalar program, array kernel) the phase ledger — name, rounds, messages,
ticks — and all program outputs must be bit-for-bit identical.  These
tests pin that contract at the algorithm level over seeded graphs, both
PA modes, several aggregations and all three fuzzed workloads; the
scalar twins run on ``oracles.TwinEngine``.  ``tests/fuzz/test_engine_parity.py``
extends the same check to the fuzz harness's random cases.
"""

from __future__ import annotations

import pytest

from repro.algorithms import cc_labeling, minimum_spanning_tree
from repro.analysis import kruskal_mst
from repro.congest import CostLedger, Engine, Network, SynchronousSchedule
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

from oracles import ENGINE_OF, TwinEngine


def _solver(net, impl, mode=RANDOMIZED, seed=0):
    """A PASolver on the scalar twins (``TwinEngine``) or the kernels."""
    return PASolver(net, mode=mode, seed=seed, engine=ENGINE_OF[impl](net))


def _session(net, impl, mode=RANDOMIZED, seed=0):
    return PASession(net, solver=_solver(net, impl, mode=mode, seed=seed))


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
        impl: solve_pa(
            net, partition, values, SUM, mode=mode, seed=17,
            solver=_solver(net, impl, mode=mode, seed=17),
        )
        for impl in ("scalar", "array")
    }
    sc, ar = results["scalar"], results["array"]
    assert dict(ar.aggregates) == dict(sc.aggregates)
    assert list(ar.value_at_node) == list(sc.value_at_node)
    assert _phase_log(ar.ledger) == _phase_log(sc.ledger)


@pytest.mark.parametrize("agg", [SUM, MIN, MAX])
def test_pa_parity_holds_for_every_identity_aggregation(agg):
    # array_wave_supported gates on the leader tokens only: every
    # aggregation rides beside the same wire schedule, and only the
    # reversal's value store depends on it — the ledger must not move.
    net = grid_2d(6, 6, uid_seed=9)
    partition = bfs_ball_partition(net, 7, seed=4)
    values = [(v * 3 + 1) % 97 for v in range(net.n)]
    sc = solve_pa(net, partition, values, agg, seed=5,
                  solver=_solver(net, "scalar", seed=5))
    ar = solve_pa(net, partition, values, agg, seed=5,
                  solver=_solver(net, "array", seed=5))
    assert dict(ar.aggregates) == dict(sc.aggregates)
    assert _phase_log(ar.ledger) == _phase_log(sc.ledger)


def test_pa_parity_with_tuple_values_falls_back_identically():
    # Tuple values ride beside the wire schedule like any other: only the
    # reversal's value store differs (a list folded with the aggregation's
    # merge instead of an int64 column), without any ledger drift.
    net = random_connected(30, 0.12, seed=21, uid_seed=21)
    partition = random_connected_partition(net, 4, seed=8)
    values = [(net.uid[v] % 7, net.uid[v]) for v in range(net.n)]
    sc = solve_pa(net, partition, values, MIN_TUPLE, seed=2,
                  solver=_solver(net, "scalar", seed=2))
    ar = solve_pa(net, partition, values, MIN_TUPLE, seed=2,
                  solver=_solver(net, "array", seed=2))
    assert dict(ar.aggregates) == dict(sc.aggregates)
    assert _phase_log(ar.ledger) == _phase_log(sc.ledger)


# ----------------------------------------------------------------------
# Whole algorithms on top of PA
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode", [RANDOMIZED, DETERMINISTIC])
def test_mst_bit_for_bit_across_engines(mode):
    net = with_distinct_weights(grid_2d(5, 6, uid_seed=2), seed=19)
    sc = minimum_spanning_tree(
        net, mode=mode, seed=3, session=_session(net, "scalar", mode, 3)
    )
    ar = minimum_spanning_tree(
        net, mode=mode, seed=3, session=_session(net, "array", mode, 3)
    )
    assert ar.output == sc.output == frozenset(kruskal_mst(net))
    assert _phase_log(ar.ledger) == _phase_log(sc.ledger)


def test_components_bit_for_bit_across_engines():
    net = random_connected(42, 0.09, seed=31, uid_seed=31)
    subgraph = [e for i, e in enumerate(net.edges) if i % 3 != 0]
    sc = cc_labeling(net, subgraph, seed=6,
                     session=_session(net, "scalar", seed=6))
    ar = cc_labeling(net, subgraph, seed=6,
                     session=_session(net, "array", seed=6))
    assert list(ar.output) == list(sc.output)
    assert _phase_log(ar.ledger) == _phase_log(sc.ledger)


# ----------------------------------------------------------------------
# The ledger really is phase-for-phase, not just in aggregate
# ----------------------------------------------------------------------
def test_parity_covers_every_named_phase():
    net = grid_2d(6, 5, uid_seed=1)
    partition = random_connected_partition(net, 4, seed=3)
    values = list(range(net.n))
    sc = solve_pa(net, partition, values, SUM, seed=9,
                  solver=_solver(net, "scalar", seed=9))
    ar = solve_pa(net, partition, values, SUM, seed=9,
                  solver=_solver(net, "array", seed=9))
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
    solver = PASolver(
        net, mode=DETERMINISTIC, seed=5, engine=ENGINE_OF[impl](net)
    )
    setup = solver.prepare(partition)
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


def _pipeline(net, partition, mode, **engine):
    """Strict-bits tree + prepare + one solve: (phase log with bits, outputs)."""
    solver = PASolver(net, mode=mode, seed=5, strict_bits=True, **engine)
    session = PASession(net, solver=solver)
    setup = session.prepare(partition)
    result = session.solve(setup, [(v * 7 + 3) % 101 for v in range(net.n)], SUM)
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
    scalar = _pipeline(net, partition, mode, engine=TwinEngine(net))
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
    families = (
        "det_announce", "det_choose", "det_edge_bcast", "_cross_down",
        "_convergecast",
    )

    def declined(target):
        tracer = Tracer()
        with use_tracer(tracer):
            log, division = _det_prepare(target, partition, "array")
        reasons = {}
        for event in tracer.events:
            if event["name"] == "kernel_fallback":
                reasons.setdefault(event["args"]["phase"], set()).add(
                    event["args"]["reason"]
                )
        return log, division, reasons

    # Ordinary uids: every Algorithm 5/6 exchange stays on its kernel.
    log, division, reasons = declined(net)
    assert (log, division) == _det_prepare(net, partition, "scalar")
    assert not [
        phase for phase in reasons
        if any(family in phase for family in families)
    ]

    # One uid at 2**62: the fold that would carry it declines (``overflow``)
    # to the scalar program, and the ledger still matches the scalar engine's.
    huge = random_regular(60, 4, seed=3, uid_seed=3)
    uids = list(huge.uid)
    uids[uids.index(max(uids))] = (1 << 62) + 7
    huge.__dict__["uid"] = tuple(uids)
    log, division, reasons = declined(huge)
    assert (log, division) == _det_prepare(huge, partition, "scalar")
    assert "overflow" in reasons["det_choose"]


def test_mixed_shape_values_decline_to_the_scalar_convergecast():
    net = grid_2d(5, 5, uid_seed=1)
    forest = PASolver(net, seed=1).tree
    # Tuples of two lengths order fine under min(), but share no layout.
    values = [(v % 3, v) if v % 2 else (v % 3, v, 1) for v in range(net.n)]
    outcomes = []
    for engine in (TwinEngine(net), Engine(net)):
        ledger = CostLedger()
        tracer = Tracer()
        with use_tracer(tracer):
            program = run_convergecast(
                engine, forest, MIN_TUPLE, values, ledger, name="mixed",
            )
        outcomes.append((program.at_root, program.partial, _phase_log(ledger)))
        assert [
            e["args"] for e in tracer.events if e["name"] == "kernel_fallback"
        ] == ([{"phase": "mixed", "reason": "mixed_shape"}] if engine.runs_kernels else [])
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("agg", [OR, AND], ids=["or", "and"])
def test_or_and_fold_zero_one_ints_on_the_kernel(agg):
    """OR / AND over 0 / 1 ints are max / min on the convergecast kernel,
    to the bit of the scalar program under the strict audit; any other
    value (a bool, a 2) declines to it as ``non_int``."""
    net = grid_2d(5, 6, uid_seed=2)
    forest = PASolver(net, seed=2).tree
    n = net.n
    cases = (
        ([v % 2 for v in range(n)], None),
        ([None if v % 3 == 0 else int(v % 5 == 1) for v in range(n)], None),
        ([int(agg is AND)] * n, None),
        ([bool(v % 2) for v in range(n)], "non_int"),
        ([v % 3 for v in range(n)], "non_int"),
    )
    for values, reason in cases:
        outcomes = []
        for engine in (TwinEngine(net), Engine(net)):
            ledger = CostLedger()
            tracer = Tracer()
            with use_tracer(tracer):
                program = run_convergecast(
                    engine, forest, agg, values, ledger, name="flag",
                )
            partial = program.partial
            outcomes.append((
                program.at_root, partial, [type(v) for v in partial.values()],
                [(p.name, p.rounds, p.messages, p.ticks, p.bits)
                 for p in ledger.phases()],
            ))
            assert [
                e["args"]["reason"] for e in tracer.events
                if e["name"] == "kernel_fallback"
            ] == ([reason] if engine.runs_kernels and reason else [])
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][3][0][4] > 0  # the audit counted the bits
