"""PASession: parity with the bare solver, and reuse/batch invariance.

The session contract has two halves, both pinned here:

* with caching/batching **off** (the default), every algorithm's ledger
  rounds/messages are bit-for-bit identical to the pre-session code —
  equivalently, to calling it with no session at all (both modes);
* with them **on**, *outputs* (MST edges, cut value and sides, distances,
  CDS/k-dominating sets, labels, verifier verdicts) are unchanged — reuse
  may re-shape the ledger, never the answer.
"""

from __future__ import annotations

import pytest

from repro import PASession
from repro.analysis import kruskal_mst
from repro.core import MIN, MIN_TUPLE, PASolver, SUM
from repro.graphs import (
    grid_2d,
    random_connected,
    random_connected_partition,
    with_distinct_weights,
)
from repro.graphs.partitions import Partition
from repro.algorithms import (
    approx_min_cut,
    approx_sssp,
    cc_labeling,
    connected_dominating_set,
    k_dominating_set,
    minimum_spanning_tree,
    verify_bipartiteness,
    verify_connectivity,
    verify_cycle_containment,
    verify_spanning_tree,
)
from repro.runtime import ensure_session, partition_fingerprint

MODES = ["randomized", "deterministic"]

#: The last pass of a solve: a learning one's replay, a reused one's
#: all-reduce.
FINAL_PASSES = ("_replay", "_allreduce")


def _weighted_net():
    return with_distinct_weights(random_connected(40, 0.08, seed=11), seed=3)


def _subgraph(net):
    return [e for i, e in enumerate(net.edges) if i % 3 != 0]


def _ledger_signature(ledger):
    return (ledger.rounds, ledger.messages)


# ----------------------------------------------------------------------
# Facade parity: default session == bare solver, bit for bit
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode", MODES)
def test_session_prepare_solve_parity(mode):
    net = grid_2d(5, 8)
    part = random_connected_partition(net, 5, seed=9)

    bare = PASolver(net, mode=mode, seed=6)
    setup_b = bare.prepare(part)
    result_b = bare.solve(setup_b, [1] * net.n, SUM)

    sess = PASession(net, mode=mode, seed=6)
    setup_s = sess.prepare(part)
    result_s = sess.solve(setup_s, [1] * net.n, SUM)

    assert setup_s.shortcut.up_parts == setup_b.shortcut.up_parts
    assert _ledger_signature(setup_s.setup_ledger) == _ledger_signature(
        setup_b.setup_ledger
    )
    assert result_s.aggregates == result_b.aggregates
    assert _ledger_signature(result_s.ledger) == _ledger_signature(
        result_b.ledger
    )
    # Same phase log, entry for entry — not just the same totals.
    assert [
        (p.name, p.rounds, p.messages) for p in result_s.ledger
    ] == [(p.name, p.rounds, p.messages) for p in result_b.ledger]


@pytest.mark.parametrize("mode", MODES)
def test_algorithm_ledgers_identical_without_optins(mode):
    """Every algorithm, default session vs explicit pass-through solver."""
    net = _weighted_net()
    h = _subgraph(net)
    runs = {
        "mst": lambda **kw: minimum_spanning_tree(net, mode=mode, seed=17, **kw),
        "mincut": lambda **kw: approx_min_cut(
            net, mode=mode, seed=5, max_trees=2, **kw
        ),
        "sssp": lambda **kw: approx_sssp(net, 0, beta=0.25, mode=mode, seed=5, **kw),
        "cc": lambda **kw: cc_labeling(net, h, mode=mode, seed=5, **kw),
        "cds": lambda **kw: connected_dominating_set(net, mode=mode, seed=5, **kw),
        "kdom": lambda **kw: k_dominating_set(net, 6, mode=mode, seed=5, **kw),
        "verify_conn": lambda **kw: verify_connectivity(
            net, h, mode=mode, seed=5, **kw
        ),
        "verify_cyc": lambda **kw: verify_cycle_containment(
            net, h, mode=mode, seed=5, **kw
        ),
        "verify_span": lambda **kw: verify_spanning_tree(
            net, h, mode=mode, seed=5, **kw
        ),
        "verify_bip": lambda **kw: verify_bipartiteness(
            net, h, mode=mode, seed=5, **kw
        ),
    }
    for name, run in runs.items():
        plain = run()
        via_session = run(
            session=PASession(net, mode=mode, seed=17 if name == "mst" else 5)
        )
        assert _ledger_signature(plain.ledger) == _ledger_signature(
            via_session.ledger
        ), name
        if name == "mincut":
            assert plain.output == via_session.output
        elif name in ("mst", "cds", "kdom"):
            assert set(plain.output) == set(via_session.output), name
        else:
            assert plain.output == via_session.output, name


@pytest.mark.parametrize("mode", MODES)
def test_solver_argument_still_shares_pipeline(mode):
    """A pre-built solver is shared by adopting it into the session."""
    net = _weighted_net()
    solver = PASolver(net, mode=mode, seed=5)
    sess = PASession(net, solver=solver)
    assert sess.solver is solver
    assert sess.mode == mode  # the adopted solver's, not the default
    run = verify_connectivity(net, _subgraph(net), mode=mode, seed=5,
                              session=sess)
    assert run.output in (True, False)
    assert ensure_session(sess, net, mode=mode, seed=5) is sess
    # The algorithms take the session only; solver= is gone from them.
    with pytest.raises(TypeError):
        verify_connectivity(net, _subgraph(net), mode=mode, seed=5,
                            solver=solver)


def test_session_mode_must_match_the_algorithm_mode():
    """mode= picks the algorithm's own rules, the session's mode runs PA:
    a contradiction used to mix the two silently; now it raises."""
    net = _weighted_net()
    randomized = PASession(net, mode="randomized", seed=5)
    with pytest.raises(ValueError, match="contradicts the session's mode"):
        minimum_spanning_tree(net, mode="deterministic", session=randomized)
    with pytest.raises(ValueError, match="contradicts the session's mode"):
        ensure_session(
            PASession(net, mode="deterministic", seed=5), net
        )
    run = minimum_spanning_tree(net, mode="randomized", session=randomized)
    assert set(run.output) == kruskal_mst(net)


# ----------------------------------------------------------------------
# Reuse/batch on: outputs unchanged
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode", MODES)
def test_outputs_unchanged_with_reuse_and_batching(mode):
    net = _weighted_net()
    h = _subgraph(net)

    def sess(seed):
        return PASession(net, mode=mode, seed=seed, reuse=True, batch=True)

    ref = kruskal_mst(net)
    mst_on = minimum_spanning_tree(net, mode=mode, seed=17, session=sess(17))
    assert set(mst_on.output) == ref

    cut_off = approx_min_cut(net, mode=mode, seed=5, max_trees=2)
    cut_on = approx_min_cut(net, mode=mode, seed=5, max_trees=2,
                            session=sess(5))
    assert cut_on.output == cut_off.output

    sssp_off = approx_sssp(net, 0, beta=0.25, mode=mode, seed=5)
    sssp_on = approx_sssp(net, 0, beta=0.25, mode=mode, seed=5,
                          session=sess(5))
    assert sssp_on.output == sssp_off.output

    cds_off = connected_dominating_set(net, mode=mode, seed=5)
    cds_on = connected_dominating_set(net, mode=mode, seed=5, session=sess(5))
    assert cds_on.output == cds_off.output

    kdom_off = k_dominating_set(net, 6, mode=mode, seed=5)
    kdom_on = k_dominating_set(net, 6, mode=mode, seed=5, session=sess(5))
    assert kdom_on.output == kdom_off.output

    cyc_off = verify_cycle_containment(net, h, mode=mode, seed=5)
    cyc_on = verify_cycle_containment(net, h, mode=mode, seed=5,
                                      session=sess(5))
    assert cyc_on.output == cyc_off.output


@pytest.mark.parametrize("mode", MODES)
def test_reuse_reduces_mst_ledger_rounds(mode):
    """Coarsening+caching must strictly cut the metered Boruvka cost."""
    net = with_distinct_weights(grid_2d(8, 8), seed=5)
    off = minimum_spanning_tree(net, mode=mode, seed=7)
    sess = PASession(net, mode=mode, seed=7, reuse=True, batch=True)
    on = minimum_spanning_tree(net, mode=mode, seed=7, session=sess)
    assert set(on.output) == set(off.output)
    assert on.rounds < off.rounds
    assert sess.stats.coarsenings > 0
    assert sess.stats.prepares <= 2  # first phase, plus at most one rebuild


# ----------------------------------------------------------------------
# The cache and the coarsening path
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload", ["mst-star", "kdom"])
@pytest.mark.parametrize("mode", ["randomized", "deterministic"])
def test_every_pa_solve_of_an_algorithm_is_a_session_solve(mode, workload):
    """The seam, as an invariant: a solve ends in exactly one final pass
    outside a ``setup:`` prefix — a ``*_replay`` after a setup's first
    solve learned its route (the only one with a ``*_wave``), a
    ``*_allreduce`` on every later one — and the session counted each of
    them, the star joining's pushes (two PA solves a push) included."""
    net = with_distinct_weights(grid_2d(7, 8), seed=3)
    session = PASession(net, mode=mode, seed=5)
    if workload == "mst-star":
        result = minimum_spanning_tree(
            net, mode=mode, seed=5, merging="star", session=session
        )
    else:
        result = k_dominating_set(net, 12, mode=mode, seed=5, session=session)
    solves = sum(
        p.name.endswith(FINAL_PASSES) and "setup:" not in p.name
        for p in result.ledger.phases()
    )
    star_pushes = sum(
        p.name.endswith(FINAL_PASSES) and "_star_" in p.name
        for p in result.ledger.phases()
    )
    learned = sum(
        p.name.endswith("_wave") and "setup:" not in p.name
        for p in result.ledger.phases()
    )
    routed = sum(
        p.name.endswith("_allreduce") and "setup:" not in p.name
        for p in result.ledger.phases()
    )
    assert session.stats.solves == solves
    assert session.stats.routed_solves == solves - learned == routed
    assert 0 < star_pushes < solves


def test_prepare_cache_hit_is_construction_free():
    net = grid_2d(6, 8)
    part = random_connected_partition(net, 6, seed=3)
    sess = PASession(net, seed=5, reuse=True)
    first = sess.prepare(part)
    assert first.setup_ledger.rounds > 0
    again = sess.prepare(part)
    assert again.setup_ledger.rounds == 0
    assert again.setup_ledger.messages == 0
    assert again.shortcut is first.shortcut
    assert sess.stats.cache_hits == 1
    sess.clear_cache()
    rebuilt = sess.prepare(part)
    assert rebuilt.setup_ledger.rounds > 0


def test_fingerprint_distinguishes_leaders():
    net = grid_2d(4, 6)
    part = Partition([v // 6 for v in range(net.n)])
    assert partition_fingerprint(part) == partition_fingerprint(part, None)
    assert partition_fingerprint(part, [0, 6, 12, 18]) != partition_fingerprint(
        part
    )


@pytest.mark.parametrize("mode", MODES)
def test_coarsened_setup_solves_correctly(mode):
    net = grid_2d(8, 8)
    rows = Partition([v // 8 for v in range(net.n)])
    merged = Partition([(v // 8) // 2 for v in range(net.n)])

    sess = PASession(net, mode=mode, seed=5, reuse=True)
    setup0 = sess.prepare(rows)
    setup1 = sess.prepare_incremental(setup0, merged)
    assert sess.stats.coarsenings == 1
    result = sess.solve(setup1, [1] * net.n, SUM, charge_setup=False)
    assert result.aggregates == {pid: 16 for pid in range(4)}
    assert result.value_at_node == [16] * net.n
    # Congestion never grows under coarsening.
    assert setup1.shortcut.quality()[1] <= setup0.shortcut.quality()[1]
    # The coarsening charged real verification work.
    assert setup1.setup_ledger.rounds > 0


def test_non_coarsenable_partition_falls_back_to_prepare():
    net = grid_2d(8, 8)
    rows = Partition([v // 8 for v in range(net.n)])
    cols = Partition([v % 8 for v in range(net.n)])  # splits every row
    sess = PASession(net, seed=5, reuse=True)
    setup0 = sess.prepare(rows)
    setup1 = sess.prepare_incremental(setup0, cols)
    assert sess.stats.coarsenings == 0
    assert sess.stats.prepares == 2
    result = sess.solve(setup1, [1] * net.n, SUM, charge_setup=False)
    assert result.aggregates == {pid: 8 for pid in range(8)}


def test_coarsen_rejects_foreign_leader():
    net = grid_2d(8, 8)
    rows = Partition([v // 8 for v in range(net.n)])
    merged = Partition([(v // 8) // 2 for v in range(net.n)])
    sess = PASession(net, seed=5, reuse=True)
    setup0 = sess.prepare(rows)
    with pytest.raises(ValueError):
        sess.prepare_incremental(setup0, merged, leaders=[0, 0, 32, 48])
    assert sess.stats.coarsenings == 0  # rejected before any projection


# ----------------------------------------------------------------------
# Batched multi-aggregate solves
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode", MODES)
def test_solve_many_matches_individual_solves(mode):
    net = grid_2d(6, 8)
    part = random_connected_partition(net, 6, seed=3)
    uids = [net.uid[v] for v in range(net.n)]
    moe_like = [(net.uid[v] % 7, net.uid[v]) for v in range(net.n)]

    seq_sess = PASession(net, mode=mode, seed=5, batch=False)
    setup = seq_sess.prepare(part)
    seq = seq_sess.solve_many(
        setup,
        [([1] * net.n, SUM), (uids, MIN), (moe_like, MIN_TUPLE)],
        charge_setup=False,
    )

    bat_sess = PASession(net, mode=mode, seed=5, batch=True)
    setup_b = bat_sess.prepare(part)
    bat = bat_sess.solve_many(
        setup_b,
        [([1] * net.n, SUM), (uids, MIN), (moe_like, MIN_TUPLE)],
        charge_setup=False,
    )

    assert bat.batched and not seq.batched
    for k in range(3):
        assert bat.per_agg[k].aggregates == seq.per_agg[k].aggregates, k
        assert bat.per_agg[k].value_at_node == seq.per_agg[k].value_at_node, k
    # One wave pass instead of three: strictly fewer rounds and messages.
    assert bat.ledger.rounds < seq.ledger.rounds
    assert bat.ledger.messages < seq.ledger.messages


def test_solve_many_sequential_matches_handwritten_calls():
    """batch=False must reproduce the by-hand solve sequence bit for bit."""
    net = grid_2d(6, 8)
    part = random_connected_partition(net, 6, seed=3)
    uids = [net.uid[v] for v in range(net.n)]

    by_hand = PASolver(net, seed=5)
    setup_h = by_hand.prepare(part)
    hand_ledgers = []
    for values, agg, prefix in (
        ([1] * net.n, SUM, "a"), (uids, MIN, "b")
    ):
        r = by_hand.solve(
            setup_h, values, agg, charge_setup=False, phase_prefix=prefix
        )
        hand_ledgers.extend(
            (p.name, p.rounds, p.messages) for p in r.ledger
        )

    sess = PASession(net, seed=5, batch=False)
    setup_s = sess.prepare(part)
    seq = sess.solve_many(
        setup_s,
        [([1] * net.n, SUM), (uids, MIN)],
        charge_setup=False,
        phase_prefixes=["a", "b"],
    )
    assert [
        (p.name, p.rounds, p.messages) for p in seq.ledger
    ] == hand_ledgers


def test_solve_many_handles_all_none_slots():
    net = grid_2d(4, 6)
    part = Partition([v // 6 for v in range(net.n)])
    sess = PASession(net, seed=5, batch=True)
    setup = sess.prepare(part)
    nothing = [None] * net.n
    batch = sess.solve_many(
        setup, [(nothing, MIN), ([1] * net.n, SUM)], charge_setup=False
    )
    assert all(v is None for v in batch.per_agg[0].aggregates.values())
    assert batch.per_agg[1].aggregates == {pid: 6 for pid in range(4)}


def test_solve_many_rejects_bad_arguments():
    net = grid_2d(4, 6)
    sess = PASession(net, seed=5)
    setup = sess.prepare(Partition([v // 6 for v in range(net.n)]))
    with pytest.raises(ValueError):
        sess.solve_many(setup, [])
    with pytest.raises(ValueError):
        sess.solve_many(
            setup, [([1] * net.n, SUM)], phase_prefixes=["a", "b"]
        )


# ----------------------------------------------------------------------
# Session construction
# ----------------------------------------------------------------------
def test_entry_points_take_no_execution_kwargs():
    """Execution is configured on the session/solver, never re-threaded."""
    import inspect

    import repro.algorithms as algorithms
    from repro.service import PAService

    retired = {
        "solver", "shortcut_provider", "family", "schedule", "async_mode",
        "engine_impl",
    }
    entry_points = [
        obj for obj in (getattr(algorithms, n) for n in algorithms.__all__)
        if callable(obj)
    ]
    assert len(entry_points) >= 13
    for fn in entry_points + [PAService]:
        params = set(inspect.signature(fn).parameters)
        assert not params & retired, (fn.__name__, sorted(params & retired))
        if fn is not PAService and fn.__name__ != "components_partition":
            assert {"mode", "seed", "session"} <= params, fn.__name__


def test_session_rejects_incompatible_solver_network():
    net_a = grid_2d(4, 6)
    net_b = random_connected(24, 0.2, seed=3)  # same n, different topology
    assert net_a.n == net_b.n
    solver = PASolver(net_a, seed=5)
    with pytest.raises(ValueError):
        PASession(net_b, solver=solver)
    # Same topology under a different object (min-cut's reweighted copies)
    # is accepted.
    from repro.congest import Network

    clone = Network(net_a.edges, n=net_a.n)
    PASession(clone, solver=solver)


def test_coarsening_chain_evicts_superseded_entries():
    net = grid_2d(8, 8)
    rows = Partition([v // 8 for v in range(net.n)])
    pairs = Partition([(v // 8) // 2 for v in range(net.n)])
    quads = Partition([(v // 8) // 4 for v in range(net.n)])

    sess = PASession(net, seed=5, reuse=True)
    setup0 = sess.prepare(rows)              # full prepare: kept forever
    setup1 = sess.prepare_incremental(setup0, pairs)
    assert len(sess._cache) == 2
    setup2 = sess.prepare_incremental(setup1, quads)
    # The pairs entry was a superseded coarsening link: evicted.  The
    # full-prepare rows entry and the latest link survive.
    assert len(sess._cache) == 2
    assert partition_fingerprint(rows, None) in sess._cache
    assert partition_fingerprint(quads, None) in sess._cache
    assert partition_fingerprint(pairs, None) not in sess._cache
    # The latest entry still serves the no-merge retry pattern.
    again = sess.prepare_incremental(setup2, quads)
    assert again.setup_ledger.rounds == 0
