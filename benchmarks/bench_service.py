"""PR10: PA-as-a-service — throughput under graph churn, repair parity.

Three claims about the :mod:`repro.service` layer:

1. **Batching wins the round economy.**  The same query stream served
   with ``max_batch=4`` (cross-tenant micro-batching) costs strictly
   fewer metered rounds AND messages than ``max_batch=1`` (sequential
   per-query waves), with bit-identical answers.

2. **Throughput degrades gracefully with churn.**  The model's
   throughput — metered rounds per query — is measured against the
   graph-update rate (0 / 0.25 / 0.5 updates per wave); the session
   absorbs the churn incrementally — the ``SessionStats`` hit rates show
   coarsen/refine/repair doing the work instead of full prepares.
   (Queries per second is ``service_churn``'s ``queries_per_s`` in
   ``benchmarks/perf``.)

3. **Repairs reproduce full prepares.**  An edge-delete repair (tree
   preserved, so the verified budget is trivially intact) serves the
   next wave with a ledger *bit-for-bit equal* to a fresh full prepare
   on the updated graph; and when a split-part refinement blows the PA
   budget, the counted fallback's rebuild ledger equals a direct full
   prepare's bit for bit.

The scenario is the sensor-fleet one from examples/: a 2D sensor grid in
geographic clusters, three tenants (ops / billing / science) streaming
min/sum/top-k queries while chords appear and disappear and clusters
merge and re-split.  Headline rounds/messages are deterministic and
regression-gated.
"""

from __future__ import annotations

import random

from repro import PASession
from repro.bench import print_table, record
from repro.core import MIN
from repro.graphs import bfs_ball_partition, grid_2d
from repro.graphs.partitions import Partition
from repro.service import PAService, min_query, sum_query, top_k_query
from repro.runtime.session import PASession as _PASession

ROWS, COLS = 12, 20
CLUSTER = 24
TENANTS = ("ops", "billing", "science")
WAVES = 12           # flushes per run
BATCH = 4            # queries per wave (one per tenant + one extra)
UPDATE_RATES = (0.0, 0.25, 0.5)


def _scenario():
    net = grid_2d(ROWS, COLS)
    partition = bfs_ball_partition(net, CLUSTER, seed=3)
    return net, partition


def _query_stream(net, rng):
    """One wave's worth of queries: every tenant asks, ops asks twice."""
    readings = [rng.randint(0, 500) for _ in range(net.n)]
    return [
        ("ops", min_query(readings)),
        ("billing", sum_query([1] * net.n)),
        ("science", top_k_query(readings, 2)),
        ("ops", min_query([r + 1 for r in readings])),
    ]


def _split_cluster(net, partition, pid):
    """Peel a BFS-tree leaf off cluster ``pid`` (both halves connected)."""
    from collections import deque

    members = set(partition.members[pid])
    if len(members) < 2:
        return None
    start = min(members)
    order, seen, queue = [start], {start}, deque([start])
    while queue:
        u = queue.popleft()
        for nb in net.neighbors[u]:
            if nb in members and nb not in seen:
                seen.add(nb)
                order.append(nb)
                queue.append(nb)
    part_of = list(partition.part_of)
    part_of[order[-1]] = partition.num_parts
    return Partition(part_of)


def _chord(net, rng, present):
    """A random absent grid chord (or a present one to delete)."""
    nodes = list(range(net.n))
    while True:
        u, v = rng.sample(nodes, 2)
        e = (min(u, v), max(u, v))
        if present:
            return e
        if not net.has_edge(u, v):
            return e


def _serve(update_rate, max_batch, seed=7):
    """Run the fixed stream; returns (service, queries)."""
    net, partition = _scenario()
    rng = random.Random(seed)
    svc = PAService(net, partition, seed=17, max_batch=max_batch)
    chords = []
    queries = 0
    for wave in range(WAVES):
        for tenant, query in _query_stream(svc.net, rng):
            svc.submit(tenant, query)
            queries += 1
        svc.flush()
        if rng.random() < update_rate:
            if rng.random() < 0.5 or not chords:
                # Edge churn: add a chord, or delete one added earlier
                # (added chords never join the BFS tree, so deleting one
                # is always a tree-preserving repair).
                if chords and rng.random() < 0.5:
                    svc.update_edges(remove=[chords.pop()])
                else:
                    e = _chord(svc.net, rng, present=False)
                    svc.update_edges(add=[e])
                    chords.append(e)
            elif rng.random() < 0.5:
                # Partition churn, splits: peel a leaf off a rotating
                # cluster — a split-only refinement each epoch (novel
                # fingerprint, so never a cache hit) — then coarsen back.
                split = _split_cluster(
                    svc.net, partition, wave % partition.num_parts
                )
                if split is not None:
                    svc.update_partition(split)
                    svc.update_partition(partition)
            else:
                # Partition churn, merges: collapse all clusters, then
                # re-split — a merge-only coarsening followed by a
                # cached (or refined) return to the base clustering.
                svc.update_partition(Partition([0] * svc.net.n))
                svc.update_partition(partition)
    svc.close()
    return svc, queries


def test_service_throughput_vs_update_rate():
    """Rounds per query against churn; batching beats sequential serving."""

    def experiment():
        rows = []
        data = {}
        for rate in UPDATE_RATES:
            svc, queries = _serve(rate, BATCH)
            stats = svc.session_stats()
            incremental = (
                stats["cache_hits"] + stats["coarsenings"]
                + stats["refinements"] + stats["repairs"]
            )
            rows.append((
                f"{rate:.2f}", queries,
                f"{svc.ledger.rounds / queries:.1f}",
                svc.ledger.rounds, svc.ledger.messages,
                stats["prepares"], stats["cache_hits"],
                stats["coarsenings"], stats["refinements"],
                stats["repairs"], stats["graph_rebuilds"],
            ))
            data[rate] = (svc, queries, incremental, stats)
        print_table(
            "PR10: PAService throughput vs graph-update rate "
            f"(grid {ROWS}x{COLS}, {len(TENANTS)} tenants, "
            f"max_batch={BATCH})",
            ["update rate", "queries", "rounds/query", "rounds", "messages",
             "prepares", "cache hits", "coarsen", "refine", "repairs",
             "rebuilds"],
            rows,
        )
        return data

    data = experiment()

    # Claim 1: the same stream, batched vs sequential.  Both pay the
    # identical ``prepare:`` phases, so total ledgers compare directly.
    batched, queries0, _, _ = data[0.0]
    sequential, seq_queries = _serve(0.0, 1)
    assert batched.stats.batched_queries == WAVES * BATCH
    assert sequential.stats.solo_queries == seq_queries
    assert batched.ledger.rounds < sequential.ledger.rounds
    assert batched.ledger.messages < sequential.ledger.messages

    # Claim 2: under churn the session serves incrementally — full
    # prepares stay at 1 (the initial one) plus any counted fallbacks.
    churn_svc, churn_queries, incremental, stats = data[0.5]
    assert incremental > 0
    assert stats["prepares"] <= 1 + stats["rebuilds"] + stats["graph_rebuilds"]

    record(
        # Headline (gated): the no-churn stream's cost.
        rounds=batched.ledger.rounds,
        messages=batched.ledger.messages,
        churn_rounds=churn_svc.ledger.rounds,
        churn_messages=churn_svc.ledger.messages,
        sequential_rounds=sequential.ledger.rounds,
        sequential_messages=sequential.ledger.messages,
        batched_queries=batched.stats.batched_queries,
        waves=batched.stats.waves,
        cache_hits=stats["cache_hits"],
        coarsenings=stats["coarsenings"],
        refinements=stats["refinements"],
        repairs=stats["repairs"],
        rounds_per_query_rate0=round(batched.ledger.rounds / queries0, 1),
        rounds_per_query_rate50=round(
            churn_svc.ledger.rounds / churn_queries, 1
        ),
    )


def test_repair_ledger_parity():
    """Repairs and counted fallbacks reproduce full prepares bit-for-bit."""

    def experiment():
        net, partition = _scenario()
        values = [(v * 17) % 101 for v in range(net.n)]

        # (a) Edge-delete repair: remove a non-tree edge between two
        # parts (so it can never disconnect a part), serve, and compare
        # the serving ledger against a fresh full prepare on the updated
        # graph — phase names, rounds and messages must all match.
        session = PASession(net, seed=17, reuse=True)
        session.prepare(partition)
        tree_edges = {
            (min(v, p), max(v, p))
            for v, p in enumerate(session.tree.parent)
            if p >= 0
        }
        part_of = partition.part_of
        chord = next(
            (u, v) for u, v in net.edges
            if (u, v) not in tree_edges and part_of[u] != part_of[v]
        )
        report = session.apply_edge_updates(remove=[chord])
        assert report.repaired, "chord removal must be a repair"
        served = session.solve(
            session.prepare(partition), values, MIN, charge_setup=False
        )
        twin = PASession(session.net, seed=17)
        full = twin.solve(
            twin.prepare(partition), values, MIN, charge_setup=False
        )
        repaired_phases = [
            (p.name, p.rounds, p.messages) for p in served.ledger.phases()
        ]
        full_phases = [
            (p.name, p.rounds, p.messages) for p in full.ledger.phases()
        ]
        assert served.aggregates == full.aggregates
        assert repaired_phases == full_phases, (
            "edge-delete repair must serve with the full-prepare ledger"
        )

        # (b) Split-part refinement whose verified b blows the budget:
        # the counted fallback's rebuild ledger is the full prepare's.
        class _ZeroBudget(_PASession):
            def block_budget(self) -> int:
                return 0

        strict = _ZeroBudget(net, seed=17, reuse=True)
        base = strict.prepare(Partition([0] * net.n))
        refined = strict.prepare_incremental(base, partition)
        assert strict.stats.refinements == 1
        assert strict.stats.rebuilds == 1
        fresh = PASession(net, seed=17).prepare(partition)
        rebuild_phases = [
            (p.name[len("rebuild:"):], p.rounds, p.messages)
            for p in refined.setup_ledger.phases()
            if p.name.startswith("rebuild:")
        ]
        fresh_phases = [
            (p.name, p.rounds, p.messages)
            for p in fresh.setup_ledger.phases()
        ]
        assert rebuild_phases == fresh_phases, (
            "budget fallback must rebuild with the full-prepare ledger"
        )

        print_table(
            "PR10: repair-vs-full-prepare ledger parity",
            ["path", "phases", "rounds", "messages", "bit-for-bit"],
            [
                ("edge-delete repair", len(repaired_phases),
                 served.rounds, served.messages, "yes"),
                ("split budget fallback", len(rebuild_phases),
                 sum(r for _n, r, _m in rebuild_phases),
                 sum(m for _n, _r, m in rebuild_phases), "yes"),
            ],
        )
        return {
            "repair_rounds": served.rounds,
            "repair_messages": served.messages,
            "fallback_rounds": sum(r for _n, r, _m in rebuild_phases),
            "fallback_messages": sum(m for _n, _r, m in rebuild_phases),
        }

    out = experiment()
    record(**out)
