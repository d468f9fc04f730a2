"""Sharded multiprocess backend (PR 9): partition-parallel PA and MST.

The claim under test: ``PASession(backend="sharded")`` keeps the ledger
**bit-for-bit** identical to the serial array engine — same phase names,
same rounds, same messages, for every worker count — while spreading the
wave-phase work over forked workers.  Both experiments assert that
parity in-bench for workers in {1, 2, 4, 8}: the worker count is not a
model fact, and the tables show it.

Whether sharding *pays* is a wall question and is not asked here: the
``pa_sharded`` workload of ``benchmarks/perf`` records ``shard.ship_s`` /
``shard.barrier_s`` / ``shard.merge_s`` / ``shard.speedup_vs_local`` from
``session.shard_report``.  The sizes and worker counts are module
constants; ``--check-against`` pins their ledgers.
"""

import math

from repro import PASession
from repro.algorithms import minimum_spanning_tree
from repro.bench import print_table, record
from repro.core import SUM
from repro.graphs import bfs_ball_partition, grid_2d, with_distinct_weights

PA_N = 4096
MST_N = 1024
WORKER_COUNTS = (1, 2, 4, 8)


def _grid_for(n):
    side = math.isqrt(n)
    return grid_2d(side, side)


def _phase_sig(ledger):
    return [(p.name, p.rounds, p.messages) for p in ledger.phases()]


def test_pa_sharded_scaling():
    """One PA pass per worker count vs the serial array engine."""

    def experiment():
        net = _grid_for(PA_N)
        partition = bfs_ball_partition(net, math.isqrt(net.n), seed=5)
        values = [(v * 2654435761) % 1000 for v in range(net.n)]

        serial = PASession(net, seed=3)
        expected = serial.solve(serial.prepare(partition), values, SUM)
        sig = _phase_sig(expected.ledger)

        rows = []
        for workers in WORKER_COUNTS:
            session = PASession(
                net, seed=3, backend="sharded",
                workers=workers, shard_min_n=0,
            )
            try:
                result = session.solve(session.prepare(partition), values, SUM)
                assert session.stats.sharded_solves == 1
                assert result.aggregates == expected.aggregates, (
                    f"sharded aggregates drift at workers={workers}"
                )
                assert _phase_sig(result.ledger) == sig, (
                    f"sharded ledger drift at workers={workers}"
                )
                shards = session.shard_report["shards"]
            finally:
                session.close()
            rows.append((workers, shards,
                         result.ledger.rounds, result.ledger.messages))

        print_table(
            f"sharded PA scaling (n={net.n}, parts={partition.num_parts})",
            ["workers", "shards", "rounds", "messages"],
            rows,
        )
        return expected.ledger, net.n

    ledger, n = experiment()
    record(rounds=ledger.rounds, messages=ledger.messages, n=n,
           worker_counts=list(WORKER_COUNTS))


def test_mst_sharded_scaling():
    """Full Boruvka MST per worker count vs the serial pipeline."""

    def experiment():
        net = with_distinct_weights(_grid_for(MST_N), seed=9)
        expected = minimum_spanning_tree(net, seed=5)
        sig = _phase_sig(expected.ledger)
        mst_edges = sorted(expected.output)

        rows = []
        for workers in WORKER_COUNTS:
            session = PASession(
                net, seed=5, backend="sharded",
                workers=workers, shard_min_n=0,
            )
            try:
                result = minimum_spanning_tree(net, seed=5, session=session)
                assert session.stats.sharded_solves > 0
                assert sorted(result.output) == mst_edges, (
                    f"sharded MST drift at workers={workers}"
                )
                assert _phase_sig(result.ledger) == sig, (
                    f"sharded ledger drift at workers={workers}"
                )
            finally:
                session.close()
            rows.append((workers, session.stats.sharded_solves,
                         result.ledger.rounds, result.ledger.messages))

        print_table(
            f"sharded MST scaling (n={net.n})",
            ["workers", "sharded solves", "rounds", "messages"],
            rows,
        )
        return expected.ledger, net.n

    ledger, n = experiment()
    record(rounds=ledger.rounds, messages=ledger.messages, n=n,
           worker_counts=list(WORKER_COUNTS))
