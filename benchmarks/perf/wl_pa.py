"""The PA op shared by ``pa_grid``, ``pa_expander``, ``pa_det``, ``pa_async``.

One op is the whole Theorem 1.2 pipeline on fixed inputs:
``PASolver(...)`` (leader election + BFS tree), ``prepare`` (sub-part
division + shortcut + verification) and three ``solve`` calls
alternating SUM / MIN, none of them charging set-up.  The four
workloads differ only in the inputs and the solver arguments they pass
to :func:`build_state`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import perf_harness as ph

from repro import MIN, SUM, PASolver
from repro.congest import CostLedger
from repro.core.corefast import build_shortcut_randomized
from repro.core.pa import PASetup
from repro.core.subparts import build_subpart_division_randomized
from repro.graphs.partitions import validate_partition

#: The aggregations of the three solves of one op, in order.
SOLVES = (SUM, MIN, SUM)


@dataclass
class PAState:
    name: str
    net: object
    partition: object
    values: List[int]
    alg_seed: int
    #: Called once per op: a schedule must not carry state between reps.
    solver_kwargs: Callable[[], Dict]
    #: Per solve: part id -> aggregate, folded sequentially in set-up.
    expected: List[Dict[int, int]]
    nodes: List[int]
    timings: Dict[str, float]
    #: ``pa_async`` only: the synchronous run's outputs on these inputs.
    sync_outputs: Optional[List[Tuple[Dict, List]]] = None
    #: The untraced pass's set-up ledger, held for the traced pass.
    setup_signature: Optional[tuple] = field(default=None, repr=False)


def build_state(name, seed, make_net, make_partition, solver_kwargs=dict,
                compare_to_sync=False) -> PAState:
    start = time.perf_counter()
    net = make_net(ph.instance_seed(name, "graph"))
    generated = time.perf_counter()
    partition = make_partition(net, ph.instance_seed(name, "partition"))
    partitioned = time.perf_counter()
    salt = ph.payload_seed(seed, name, "values")
    values = [(v * 2654435761 + salt) % 1000 for v in range(net.n)]
    state = PAState(
        name=name,
        net=net,
        partition=partition,
        values=values,
        alg_seed=ph.instance_seed(name, "algorithm"),
        solver_kwargs=solver_kwargs,
        expected=[
            ph.part_aggregates(partition, values, agg) for agg in SOLVES
        ],
        nodes=ph.sample_nodes(net.n, salt),
        timings={
            "graphs.generate_s": generated - start,
            "graphs.partition_s": partitioned - generated,
        },
    )
    if compare_to_sync:
        _solver, _setup, results, _split = _pipeline(state, {})
        state.sync_outputs = [
            (dict(r.aggregates), list(r.value_at_node)) for r in results
        ]
    return state


def _pipeline(state: PAState, kwargs: Dict):
    solver = PASolver(
        state.net, seed=state.alg_seed, strict_bits=False, strict_edges=False,
        **kwargs,
    )
    setup = solver.prepare(state.partition)
    results = [
        solver.solve(setup, state.values, agg, charge_setup=False)
        for agg in SOLVES
    ]
    return solver, setup, results, None


def run_op(state: PAState):
    return _pipeline(state, state.solver_kwargs())


def run_op_traced(state: PAState, tracer):
    """The op with a span per layer; also returns where the ledger splits.

    ``prepare`` is unrolled into its two builder calls, made exactly as
    ``PASolver.prepare`` makes them, so that division and shortcut get a
    span each; :func:`check` holds the resulting ledger to the untraced
    ``prepare``'s, phase by phase.
    """
    kwargs = state.solver_kwargs()
    with tracer.span("tree.build", "perf"):
        solver = PASolver(
            state.net, seed=state.alg_seed, strict_bits=False,
            strict_edges=False, **kwargs,
        )
    partition = state.partition
    ledger = CostLedger()
    deterministic = kwargs.get("mode") == "deterministic"
    with tracer.span("division.build", "perf"):
        validate_partition(state.net, partition)
        leaders = solver.default_leaders(partition)
        if deterministic:
            from repro.core.subparts_det import (
                build_subpart_division_deterministic,
            )

            division = build_subpart_division_deterministic(
                solver.engine, state.net, partition, leaders,
                solver.diameter, ledger,
            )
        else:
            division = build_subpart_division_randomized(
                solver.engine, state.net, partition, leaders,
                solver.diameter, ledger, solver.rng,
            )
    split = len(ledger.phases())
    with tracer.span("shortcut.build", "perf"):
        if deterministic:
            from repro.core.det_shortcut import build_shortcut_deterministic

            build = build_shortcut_deterministic(
                solver.engine, state.net, partition, division, solver.tree,
                solver.diameter, ledger,
                congestion_budget=None, block_target=None,
            )
        else:
            build = build_shortcut_randomized(
                solver.engine, state.net, partition, division, solver.tree,
                solver.diameter, ledger, solver.rng,
                congestion_budget=None, block_target=None,
            )
    setup = PASetup(
        partition=partition, leaders=leaders, division=division,
        shortcut=build.shortcut, annotations=build.annotations,
        setup_ledger=ledger,
    )
    results = []
    for agg in SOLVES:
        with tracer.span("wave.solve", "perf"):
            results.append(
                solver.solve(setup, state.values, agg, charge_setup=False)
            )
    return solver, setup, results, split


def check(state: PAState, raw, wall_s: float) -> ph.Outcome:
    solver, setup, results, split = raw
    why = None
    for k, result in enumerate(results):
        why = why or ph.pa_output_ok(
            state.partition, result, state.expected[k], state.nodes
        )
        if state.sync_outputs is not None and why is None:
            aggregates, at_node = state.sync_outputs[k]
            if dict(result.aggregates) != aggregates or list(result.value_at_node) != at_node:
                why = "outputs differ from the synchronous run"

    setup_sig = ph.signature(setup.setup_ledger)
    if split is None:
        state.setup_signature = setup_sig
    elif state.setup_signature is not None and setup_sig != state.setup_signature:
        why = why or "unrolled prepare's ledger differs from prepare's"

    tree = solver.tree_ledger
    wave_rounds = sum(r.ledger.rounds for r in results)
    wave_messages = sum(r.ledger.messages for r in results)
    rounds = tree.rounds + setup.setup_ledger.rounds + wave_rounds
    messages = tree.messages + setup.setup_ledger.messages + wave_messages
    layers: Dict[str, float] = {
        "tree.rounds": tree.rounds,
        "tree.messages": tree.messages,
        "wave.rounds": wave_rounds,
        "wave.messages": wave_messages,
    }
    block, congestion = setup.quality()
    phases = setup.setup_ledger.phases()
    verify = [p for p in phases if "verify" in p.name]
    layers.update({
        "division.subparts": setup.division.num_subparts(),
        "shortcut.block_param": block,
        "shortcut.congestion": congestion,
        "shortcut.verify_rounds": sum(p.rounds for p in verify),
        "shortcut.verify_messages": sum(p.messages for p in verify),
    })
    if split is not None:
        layers.update({
            "division.rounds": sum(p.rounds for p in phases[:split]),
            "division.messages": sum(p.messages for p in phases[:split]),
            "shortcut.rounds": sum(p.rounds for p in phases[split:]),
            "shortcut.messages": sum(p.messages for p in phases[split:]),
        })
    overhead = getattr(solver.engine, "overhead", None)
    if overhead is not None:
        layers.update({
            "async.time_units": overhead.rounds,
            "async.ctrl_messages": overhead.messages,
            "async.ns_per_event": 1e9 * wall_s / (overhead.messages + messages),
            "ctrl_per_payload": overhead.messages / messages,
        })
    sig = (
        ph.signature(tree), setup_sig,
        tuple(ph.signature(r.ledger) for r in results),
        (overhead.rounds, overhead.messages) if overhead is not None else None,
    )
    return ph.Outcome(
        ok=why is None, why=why or "", signature=sig,
        rounds=rounds, messages=messages, layers=layers,
    )
