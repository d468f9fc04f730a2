"""``service_churn``: the serving path, reads beside writes on one session.

One op is one stream on a fresh ``PAService(max_batch=4)`` over a grid
in BFS-ball clusters.  Each wave submits four queries from three tenants
(min, sum, top-2, min) and flushes; after a wave, with probability 0.5,
one update epoch follows, drawn from: add a chord, remove an added
chord, merge two adjacent clusters then restore, peel a leaf off a
cluster then restore.  Half way through, exactly one BFS-tree edge
*between two clusters* is deleted, which is the counted rebuild path
(every part stays connected).  A gain for queries that costs updates, or
the reverse, shows here; graph generation, tree and the first full
prepare are a few percent of the stream.
"""

from __future__ import annotations

import random
import statistics
import time
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Tuple

import perf_harness as ph

from repro import PAService, PASession
from repro.graphs import Partition, bfs_ball_partition, grid_2d
from repro.graphs.partitions import (
    boundary_edges,
    partition_from_component_labels,
)
from repro.service import min_query, sum_query, top_k_query

NAME = "service_churn"
FULL = {"side": 32, "waves": 24}
SMOKE = {"side": 12, "waves": 6}
BALL = 55
MAX_BATCH = 4
UPDATE_RATE = 0.5
#: How many merged / peeled variants of the base partition set-up builds.
VARIANTS = 8


@dataclass
class ServiceState:
    net: object
    partition: Partition
    alg_seed: int
    stream_seed: int
    #: Per wave: the (tenant, query) pairs submitted, in order.
    waves: List[List[Tuple[str, object]]]
    merged: List[Partition]
    peeled: List[Partition]
    timings: Dict[str, float]


def _merge(partition: Partition, a: int, b: int) -> Partition:
    return partition_from_component_labels(
        [a if pid == b else pid for pid in partition.part_of]
    )


def _peel_leaf(net, partition: Partition, pid: int) -> Partition:
    """Split the last node of a BFS of part ``pid`` off on its own.

    A BFS-tree leaf, so what remains of the part stays connected.
    """
    members = set(partition.members[pid])
    start = min(members)
    last, seen, queue = start, {start}, deque([start])
    while queue:
        last = queue.popleft()
        for nb in net.neighbors[last]:
            if nb in members and nb not in seen:
                seen.add(nb)
                queue.append(nb)
    part_of = list(partition.part_of)
    part_of[last] = partition.num_parts
    return Partition(part_of)


def build(seed, size) -> ServiceState:
    start = time.perf_counter()
    net = grid_2d(size["side"], size["side"])
    generated = time.perf_counter()
    partition = bfs_ball_partition(
        net, BALL, seed=ph.instance_seed(NAME, "partition")
    )
    partitioned = time.perf_counter()
    rng = random.Random(ph.payload_seed(seed, NAME, "values"))
    ones = [1] * net.n
    waves = []
    for _ in range(size["waves"]):
        readings = [rng.randint(0, 500) for _ in range(net.n)]
        waves.append([
            ("ops", min_query(readings)),
            ("billing", sum_query(ones)),
            ("science", top_k_query(readings, 2)),
            ("ops", min_query([r + 1 for r in readings])),
        ])
    pairs = sorted({
        tuple(sorted((partition.part_of[u], partition.part_of[v])))
        for u, v in boundary_edges(net, partition)
    })
    picker = random.Random(ph.instance_seed(NAME, "variants"))
    picker.shuffle(pairs)
    big = [p for p in range(partition.num_parts) if partition.size_of(p) > 1]
    picker.shuffle(big)
    return ServiceState(
        net=net,
        partition=partition,
        alg_seed=ph.instance_seed(NAME, "algorithm"),
        stream_seed=ph.instance_seed(NAME, "stream"),
        waves=waves,
        merged=[_merge(partition, a, b) for a, b in pairs[:VARIANTS]],
        peeled=[_peel_leaf(net, partition, p) for p in big[:VARIANTS]],
        timings={
            "graphs.generate_s": generated - start,
            "graphs.partition_s": partitioned - generated,
        },
    )


def _random_chord(net, rng) -> Tuple[int, int]:
    while True:
        u, v = rng.sample(range(net.n), 2)
        if not net.has_edge(u, v):
            return (min(u, v), max(u, v))


def _inter_cluster_tree_edge(service) -> Tuple[int, int]:
    part_of = service.partition.part_of
    for v, p in enumerate(service.session.tree.parent):
        if p >= 0 and part_of[v] != part_of[p]:
            return (min(v, p), max(v, p))
    raise RuntimeError("the BFS tree has no edge between two clusters")


@dataclass
class Stream:
    """What one stream leaves behind for its check and its metrics."""

    service: PAService
    #: Per wave: (partition at flush, [(query, answer aggregates)]).
    answered: List[Tuple[Partition, List[Tuple[object, Dict]]]]
    query_s: List[float]
    queue_wait_s: List[float]
    flush_s: List[float]
    update_s: List[float]
    update_edges_s: List[float]
    update_partition_s: List[float]
    rebuild_s: float
    wall_s: float


def _stream(state: ServiceState, session: PASession) -> Stream:
    clock = time.perf_counter
    begin = clock()
    service = PAService(
        partition=state.partition, session=session, max_batch=MAX_BATCH
    )
    rng = random.Random(state.stream_seed)
    out = Stream(service, [], [], [], [], [], [], [], 0.0, 0.0)
    chords: List[Tuple[int, int]] = []
    rebuild_after = len(state.waves) // 2

    def edges(**kwargs) -> float:
        t0 = clock()
        service.update_edges(**kwargs)
        took = clock() - t0
        out.update_edges_s.append(took)
        return took

    def regroup(variant: Partition) -> float:
        t0 = clock()
        service.update_partition(variant)
        service.update_partition(state.partition)
        took = clock() - t0
        out.update_partition_s.append(took)
        return took

    for index, wave in enumerate(state.waves):
        submitted = []
        ids = []
        for tenant, query in wave:
            submitted.append(clock())
            # The fourth submit fills the batch, so the wave runs inside it.
            ids.append(service.submit(tenant, query))
        flush_start = submitted[-1]
        service.flush()
        done = clock()
        out.flush_s.append(done - flush_start)
        out.query_s.extend(done - t for t in submitted)
        out.queue_wait_s.extend(flush_start - t for t in submitted)
        out.answered.append((
            service.partition,
            [(query, service.result(qid).aggregates)
             for (_tenant, query), qid in zip(wave, ids)],
        ))

        if index + 1 == rebuild_after:
            out.rebuild_s = edges(remove=[_inter_cluster_tree_edge(service)])
            # The tree was re-elected: an older chord may now be a tree
            # edge, and removing it would be a second rebuild.
            chords.clear()
        if rng.random() >= UPDATE_RATE:
            continue
        kind = rng.randrange(4)
        if kind == 0 or (kind == 1 and not chords):
            chord = _random_chord(service.net, rng)
            out.update_s.append(edges(add=[chord]))
            chords.append(chord)
        elif kind == 1:
            out.update_s.append(edges(remove=[chords.pop()]))
        elif kind == 2:
            out.update_s.append(regroup(rng.choice(state.merged)))
        else:
            out.update_s.append(regroup(rng.choice(state.peeled)))
    service.close()
    out.wall_s = clock() - begin
    return out


def run_op(state: ServiceState) -> Stream:
    return _stream(
        state,
        PASession(state.net, seed=state.alg_seed, reuse=True, batch=True),
    )


def run_op_traced(state: ServiceState, tracer) -> Stream:
    return _stream(
        state,
        ph.TimedSession(
            tracer, state.net, seed=state.alg_seed, reuse=True, batch=True
        ),
    )


def _expected(partition: Partition, query) -> Dict[int, object]:
    if query.kind == "top_k":
        return {
            pid: tuple(sorted((query.values[v] for v in members), reverse=True)[:query.k])
            for pid, members in enumerate(partition.members)
        }
    return ph.part_aggregates(partition, query.values, query.aggregation())


def check(state: ServiceState, stream: Stream, wall_s: float) -> ph.Outcome:
    why = ""
    for wave, (partition, answers) in enumerate(stream.answered):
        for query, aggregates in answers:
            if not why and aggregates != _expected(partition, query):
                why = f"wave {wave}: a {query.kind} answer differs from the per-part fold"
    service = stream.service
    stats = service.session_stats()
    if not why and stats["graph_rebuilds"] != 1:
        why = f"expected exactly one graph rebuild, saw {stats['graph_rebuilds']}"
    queries = sum(len(answers) for _p, answers in stream.answered)
    layers = ph.session_counts(service.session.stats)
    wave_phases = [
        p for p in service.ledger.phases() if p.name.startswith("serve")
    ]
    median = statistics.median
    layers.update({
        "query_p50_s": median(stream.query_s),
        "queries_per_s": queries / stream.wall_s,
        "update_p50_s": median(stream.update_s) if stream.update_s else 0.0,
        "service.flush_p50_s": median(stream.flush_s),
        "service.flush_p90_s": statistics.quantiles(stream.flush_s, n=10)[-1],
        "service.queue_wait_s": median(stream.queue_wait_s),
        "service.update_edges_s": median(stream.update_edges_s),
        "service.update_partition_s": (
            median(stream.update_partition_s)
            if stream.update_partition_s else 0.0
        ),
        "service.rebuild_s": stream.rebuild_s,
        "service.waves": service.stats.waves,
        "service.batched_queries": service.stats.batched_queries,
        "wave.rounds": sum(p.rounds for p in wave_phases),
        "wave.messages": sum(p.messages for p in wave_phases),
    })
    return ph.Outcome(
        ok=not why, why=why,
        signature=(ph.signature(service.ledger), tuple(sorted(stats.items()))),
        rounds=service.ledger.rounds, messages=service.ledger.messages,
        layers=layers,
    )
