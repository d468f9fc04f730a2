"""``mst_reuse``: a whole Boruvka MST through the session layer.

One op builds a ``PASession(reuse=True, batch=True)`` and runs
``minimum_spanning_tree`` on it: one full prepare, then a coarsening per
merge phase, a few cache hits, and a tuple-packed batched solve per
phase.  Tuple payloads are outside what the array wave kernels accept,
so the wave layer runs its scalar twin here while the ``pa_*`` workloads
run the array kernels: the same layer, used differently.  Orchestrator
Python between the phases is a large share of the op.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Dict, FrozenSet

import perf_harness as ph

from repro import Network, PASession
from repro.algorithms.mst import minimum_spanning_tree
from repro.analysis.reference import kruskal_mst
from repro.graphs import random_regular, with_distinct_weights

NAME = "mst_reuse"
FULL = {"n": 512}
SMOKE = {"n": 64}


@dataclass
class MSTState:
    net: object
    alg_seed: int
    expected: FrozenSet
    timings: Dict[str, float]


def build(seed, size) -> MSTState:
    start = time.perf_counter()
    base = with_distinct_weights(
        random_regular(size["n"], 4, seed=ph.instance_seed(NAME, "graph")),
        seed=ph.instance_seed(NAME, "weight_order"),
    )
    # The MST, and every comparison Boruvka makes, depends only on the
    # order of the weights.  The order belongs to the instance; the seed
    # draws the weights themselves, as an increasing map of the ranks.
    rng = random.Random(ph.payload_seed(seed, NAME, "weights"))
    weights, weight = {}, 0
    for edge in sorted(base.weights, key=base.weights.get):
        weight += rng.randint(1, 8)
        weights[edge] = weight
    net = Network(base.edges, n=base.n, weights=weights)
    generated = time.perf_counter()
    return MSTState(
        net=net,
        alg_seed=ph.instance_seed(NAME, "algorithm"),
        expected=frozenset(kruskal_mst(net)),
        timings={
            "graphs.generate_s": generated - start,
            "graphs.partition_s": 0.0,
        },
    )


def run_op(state: MSTState):
    session = PASession(state.net, seed=state.alg_seed, reuse=True, batch=True)
    result = minimum_spanning_tree(
        state.net, seed=state.alg_seed, session=session
    )
    return session, result


def run_op_traced(state: MSTState, tracer):
    session = ph.TimedSession(
        tracer, state.net, seed=state.alg_seed, reuse=True, batch=True
    )
    with tracer.span("mst", "perf"):
        result = minimum_spanning_tree(
            state.net, seed=state.alg_seed, session=session
        )
    return session, result


def check(state: MSTState, raw, wall_s: float) -> ph.Outcome:
    session, result = raw
    ok = result.output == state.expected
    by_kind = {"tree": [0, 0], "wave": [0, 0]}
    for p in result.ledger.phases():
        if p.name.startswith("tree:"):
            kind = "tree"
        elif "_setup:" in p.name or p.name.startswith("mst_"):
            continue
        else:
            kind = "wave"
        by_kind[kind][0] += p.rounds
        by_kind[kind][1] += p.messages
    layers = ph.session_counts(session.stats)
    layers.update({
        "mst.phases": result.meta["phases"],
        "tree.rounds": by_kind["tree"][0],
        "tree.messages": by_kind["tree"][1],
        "wave.rounds": by_kind["wave"][0],
        "wave.messages": by_kind["wave"][1],
    })
    return ph.Outcome(
        ok=ok, why="" if ok else "edge set differs from kruskal_mst",
        signature=ph.signature(result.ledger),
        rounds=result.ledger.rounds, messages=result.ledger.messages,
        layers=layers,
    )
