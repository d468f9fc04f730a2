"""``pa_sharded``: warm solves on the multiprocess shard backend.

A grid in many balanced BFS-ball clusters, the backend's favourable
case: the clusters fall into many conflict components that split evenly
over the workers.  Set-up builds the sharded session, prepares, and
makes the cold solve that ships the setup to the workers (the harness's
warm-up op is the second); one op is one warm
``solve(charge_setup=False)``.  A
``backend="local"`` session over the same inputs takes the same solves
in lockstep, untimed by the op: it is the base of
``shard.speedup_vs_local`` and the ledger every sharded solve must equal.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Dict, List

import perf_harness as ph

from repro import SUM, PASession
from repro.graphs import bfs_ball_partition, grid_2d

NAME = "pa_sharded"
FULL = {"side": 224, "ball": 224, "shard_min_n": 4096}
SMOKE = {"side": 16, "ball": 16, "shard_min_n": 0}


@dataclass
class ShardState:
    net: object
    partition: object
    values: List[int]
    expected: Dict[int, int]
    nodes: List[int]
    sharded: PASession
    setup: object
    local: PASession
    local_setup: object
    cold_solve_s: float
    timings: Dict[str, float]


def build(seed, size) -> ShardState:
    start = time.perf_counter()
    net = grid_2d(size["side"], size["side"])
    generated = time.perf_counter()
    partition = bfs_ball_partition(
        net, size["ball"], seed=ph.instance_seed(NAME, "partition")
    )
    partitioned = time.perf_counter()
    salt = ph.payload_seed(seed, NAME, "values")
    values = [(v * 2654435761 + salt) % 1000 for v in range(net.n)]
    alg_seed = ph.instance_seed(NAME, "algorithm")
    common = dict(seed=alg_seed, strict_bits=False, strict_edges=False)
    local = PASession(net, **common)
    local_setup = local.prepare(partition)
    sharded = PASession(
        net, backend="sharded", shard_min_n=size["shard_min_n"],
        workers=min(2, len(os.sched_getaffinity(0))), **common,
    )
    try:
        setup = sharded.prepare(partition)
        # The cold solve ships the setup to the workers; the twin keeps
        # in step so that both sessions have drawn the same randomness.
        cold_start = time.perf_counter()
        sharded.solve(setup, values, SUM, charge_setup=False)
        cold = time.perf_counter() - cold_start
        local.solve(local_setup, values, SUM, charge_setup=False)
    except BaseException:
        sharded.close()
        raise
    return ShardState(
        net=net, partition=partition, values=values,
        expected=ph.part_aggregates(partition, values, SUM),
        nodes=ph.sample_nodes(net.n, salt),
        sharded=sharded, setup=setup, local=local, local_setup=local_setup,
        cold_solve_s=cold,
        timings={
            "graphs.generate_s": generated - start,
            "graphs.partition_s": partitioned - generated,
        },
    )


def teardown(state: ShardState) -> None:
    state.sharded.close()


def run_op(state: ShardState):
    return state.sharded.solve(
        state.setup, state.values, SUM, charge_setup=False
    )


def run_op_traced(state: ShardState, tracer):
    with tracer.span("session.solve", "perf"):
        return run_op(state)


def check(state: ShardState, result, wall_s: float) -> ph.Outcome:
    start = time.perf_counter()
    base = state.local.solve(
        state.local_setup, state.values, SUM, charge_setup=False
    )
    local_s = time.perf_counter() - start
    why = ph.pa_output_ok(
        state.partition, result, state.expected, state.nodes
    )
    fallbacks = state.sharded.stats.sharded_fallbacks
    report = state.sharded.shard_report
    if not why and (fallbacks or report is None):
        why = f"the solve fell back in-process ({fallbacks} fallbacks)"
    if not why and ph.signature(result.ledger) != ph.signature(base.ledger):
        why = "merged ledger differs from the local solve's"
    layers: Dict[str, float] = {
        "shard.cold_solve_s": state.cold_solve_s,
        "shard.fallbacks": fallbacks,
        "shard.speedup_vs_local": local_s / wall_s if wall_s else 0.0,
        "wave.rounds": result.ledger.rounds,
        "wave.messages": result.ledger.messages,
    }
    if report is not None:
        walls = report["shard_wall_seconds"]
        layers.update({
            "shard.ship_s": report["ship_seconds"],
            "shard.barrier_s": report["barrier_seconds"],
            "shard.merge_s": report["merge_seconds"],
            "shard.workers": report["workers"],
            "shard.balance": sum(walls) / (report["workers"] * max(walls)),
        })
    return ph.Outcome(
        ok=not why, why=why or "", signature=ph.signature(result.ledger),
        rounds=result.ledger.rounds, messages=result.ledger.messages,
        layers=layers,
    )
