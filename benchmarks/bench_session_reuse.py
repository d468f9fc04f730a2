"""E-session (PR 4): cross-phase reuse and batched solves in the runtime.

Two claims about the :class:`repro.runtime.PASession` layer:

1. **Reuse pays at scale.**  Boruvka MST rebuilds the whole Theorem 1.2
   pipeline every phase; a reusing session coarsens the previous phase's
   division/shortcut and memoizes repeated partitions instead: the
   metered rounds and messages of the full MST fall, with the output
   bit-identical.  (The simulator-wall side of the claim is measured by
   the ``mst_reuse`` workload of ``benchmarks/perf``.)

2. **Batching cuts rounds.**  k aggregations over one setup run in one
   wave pass instead of k; the ledger shows the round/message saving and
   the aggregates are unchanged.

Ledger rounds/messages are the headline metrics and the regression-gate
contract; the MST runs on one 32x64 grid (``mst_reuse`` sweeps the sizes
on the wall side).
"""

from repro import PASession
from repro.algorithms import minimum_spanning_tree
from repro.analysis import kruskal_mst
from repro.bench import print_table, record
from repro.core import MIN, MIN_TUPLE, SUM
from repro.graphs import bfs_ball_partition, grid_2d, with_distinct_weights

#: (rows, cols) of the MST grid.
MST_GRID = (32, 64)


def test_mst_session_reuse():
    """Full Boruvka MST, bare pipeline vs reusing+batching session."""

    def experiment():
        rows, cols = MST_GRID
        net = with_distinct_weights(grid_2d(rows, cols), seed=rows)
        off = minimum_spanning_tree(net, seed=17)
        sess = PASession(net, seed=17, reuse=True, batch=True)
        on = minimum_spanning_tree(net, seed=17, session=sess)

        assert set(on.output) == set(off.output), "reuse changed the MST"
        assert set(off.output) == kruskal_mst(net)

        stats = sess.stats
        print_table(
            "PR4: MST end-to-end, bare pipeline vs PASession(reuse, batch)",
            ["graph", "n", "rounds off", "rounds on", "msgs off", "msgs on",
             "coarsenings", "cache hits", "rebuilds"],
            [(f"grid {rows}x{cols}", net.n, off.rounds, on.rounds,
              off.messages, on.messages,
              stats.coarsenings, stats.cache_hits, stats.rebuilds)],
        )
        return net.n, off, on, stats

    n, off, on, stats = experiment()

    # Reuse must never inflate the metered cost model.
    assert on.rounds < off.rounds
    assert on.messages < off.messages
    # Coarsening (not wholesale rebuilding) must be doing the work.
    assert stats.coarsenings > 0
    assert stats.coarsenings >= 4 * stats.rebuilds
    record(
        n=n,
        rounds_off=off.rounds,
        rounds_on=on.rounds,
        prepares=stats.prepares,
        cache_hits=stats.cache_hits,
        coarsenings=stats.coarsenings,
        rebuilds=stats.rebuilds,
        rounds=on.rounds,
        messages=on.messages,
    )


def test_batched_vs_sequential_solves():
    """k aggregates over one setup: one wave pass vs k sequential solves."""

    def experiment():
        net = grid_2d(40, 50)
        part = bfs_ball_partition(net, 80, seed=7)
        uids = [net.uid[v] for v in range(net.n)]
        moe_like = [(net.uid[v] % 13, net.uid[v]) for v in range(net.n)]
        items = [([1] * net.n, SUM), (uids, MIN), (moe_like, MIN_TUPLE)]

        seq_sess = PASession(net, seed=9, batch=False)
        setup = seq_sess.prepare(part)
        seq = seq_sess.solve_many(setup, items, charge_setup=False)

        bat_sess = PASession(net, seed=9, batch=True)
        setup_b = bat_sess.prepare(part)
        bat = bat_sess.solve_many(setup_b, items, charge_setup=False)

        for k in range(len(items)):
            assert bat.per_agg[k].aggregates == seq.per_agg[k].aggregates

        print_table(
            "PR4: k=3 aggregations over one setup, sequential vs batched",
            ["schedule", "wave passes", "rounds", "messages"],
            [
                ("sequential", 3, seq.ledger.rounds, seq.ledger.messages),
                ("batched", 1, bat.ledger.rounds, bat.ledger.messages),
                ("saving", "-",
                 seq.ledger.rounds - bat.ledger.rounds,
                 seq.ledger.messages - bat.ledger.messages),
            ],
        )
        return seq, bat, part

    seq, bat, part = experiment()
    assert bat.ledger.rounds < seq.ledger.rounds
    assert bat.ledger.messages < seq.ledger.messages
    record(
        parts=part.num_parts,
        sequential_rounds=seq.ledger.rounds,
        batched_rounds=bat.ledger.rounds,
        sequential_messages=seq.ledger.messages,
        batched_messages=bat.ledger.messages,
        rounds=bat.ledger.rounds,
        messages=bat.ledger.messages,
    )


def test_mincut_session_sharing():
    """Tree packing through one reusing session: shared tree + setups."""

    from repro.algorithms import approx_min_cut

    def experiment():
        net = with_distinct_weights(grid_2d(12, 16), seed=23)
        off = approx_min_cut(net, seed=5, max_trees=4)
        sess = PASession(net, seed=5, reuse=True, batch=True)
        on = approx_min_cut(net, seed=5, max_trees=4, session=sess)
        assert on.output == off.output, "session changed the cut"
        print_table(
            "PR4: min-cut tree packing, bare vs shared session",
            ["pipeline", "rounds", "messages", "prepares", "cache hits",
             "coarsenings"],
            [
                ("bare", off.rounds, off.messages, "-", "-", "-"),
                ("session", on.rounds, on.messages, sess.stats.prepares,
                 sess.stats.cache_hits, sess.stats.coarsenings),
            ],
        )
        return off, on, sess

    off, on, sess = experiment()
    assert on.rounds < off.rounds
    # The singleton phase-1 partition must be served from cache for every
    # packing tree after the first.
    assert sess.stats.cache_hits > 0
    record(
        rounds_off=off.rounds,
        prepares=sess.stats.prepares,
        cache_hits=sess.stats.cache_hits,
        coarsenings=sess.stats.coarsenings,
        rounds=on.rounds,
        messages=on.messages,
    )
