"""Scaling sweep: PA and MST wall time / ledger cost up to n ~ 100k.

The asymptotic claims of Theorem 1.2 — O~(D + sqrt n) rounds, O~(m)
messages — only become visible orders of magnitude beyond the few-hundred-
node reproduction experiments.  This sweep drives the CSR data layer and
the bulk-dispatch engine across three graph families at 50k+ nodes:

* ``grid_2d`` — the high-diameter planar regime (D ~ sqrt n); row parts
  stay below the diameter, so PA runs wave-only, no shortcut claiming.
* ``random_regular`` — the low-diameter expander regime (D ~ log n);
  BFS-ball parts well above the diameter force the full sub-part /
  CoreFast shortcut machinery.
* ``preferential_attachment`` — heavy-tailed hub-dominated topology, the
  adversarial case for per-edge congestion.

MST (Corollary 1.3) runs on the expander family at smaller n: each
Boruvka phase rebuilds the PA pipeline, so its wall cost per node is an
order of magnitude above a single PA solve.

Like the theorem-1.2 sweep, everything runs with ``strict_bits=False``
and ``strict_edges=False``: the per-message audits are pure simulator
overhead once the test suite has pinned payload sizes and program sends
(parity is asserted by ``tests/congest/test_engine_edge.py``).  Ledger
values are identical either way.

The deterministic column (ROADMAP item 2) sets Algorithm 6 + the
deterministic shortcut against Algorithm 3 + CoreFast on the expander
family: ``prepare`` wall and set-up ledger side by side at 5k and 20k
nodes, and one deterministic MST at the largest size the cap allows.
The model cost of the deterministic set-up is several times the
randomized one by design (O(log n) star-joining iterations of O(log* n)
Cole-Vishkin pushes each); the wall ratio is what the simulator adds on
top, and is the number the array kernels under Algorithms 5/6 move.

``REPRO_SCALING_MAX_N`` caps the sweep (default 50000; raise to 100000+
locally to plot the full regime, lower it to smoke-test quickly).
"""

import math
import os
import time

from repro.bench import print_table, record, run_once
from repro.core import SUM, PASolver
from repro.graphs import (
    bfs_ball_partition,
    grid_2d,
    preferential_attachment,
    random_regular,
    row_partition,
)
from repro.runtime import PASession

MAX_N = int(os.environ.get("REPRO_SCALING_MAX_N", "50000"))

#: (family, sizes) — sizes filtered by MAX_N at run time.
GRID_SIDES = (50, 100, 223, 316)
GENERAL_SIZES = (2048, 8192, 50000, 100000)
MST_SIZES = (512, 1024, 2048)
DET_PREPARE_SIZES = (5000, 20000)
DET_MST_SIZES = (2048, 20000)

#: BFS-ball target size for the general families: comfortably above the
#: expander diameter (so the shortcut machinery engages) but small enough
#: that per-edge congestion, not part size, dominates.
BALL_SIZE = 55


def _pa_once(net, partition, seed):
    """One full PA pipeline (tree + prepare + solve); returns metrics."""
    start = time.perf_counter()
    solver = PASolver(net, seed=seed, strict_bits=False, strict_edges=False)
    setup = solver.prepare(partition)
    result = solver.solve(setup, [1] * net.n, SUM, charge_setup=True)
    wall = time.perf_counter() - start
    assert all(
        result.aggregates[pid] == len(partition.members[pid])
        for pid in range(partition.num_parts)
    ), "PA sum must count each part's members"
    return wall, result.rounds, result.messages


def test_pa_scaling_families(benchmark):
    def experiment():
        rows = []
        walls = {}
        headline = None
        for side in GRID_SIDES:
            n = side * side
            if n > MAX_N:
                continue
            net = grid_2d(side, side)
            partition = row_partition(side, side)
            wall, rounds, messages = _pa_once(net, partition, seed=23)
            walls[f"grid_{n}"] = wall
            rows.append(("grid", n, net.m, partition.num_parts,
                         rounds, messages, f"{wall:.2f}"))
        for n in GENERAL_SIZES:
            if n > MAX_N:
                continue
            net = random_regular(n, 4, seed=21)
            partition = bfs_ball_partition(net, BALL_SIZE, seed=22)
            wall, rounds, messages = _pa_once(net, partition, seed=23)
            walls[f"regular_{n}"] = wall
            rows.append(("random-regular", n, net.m, partition.num_parts,
                         rounds, messages, f"{wall:.2f}"))
            headline = (n, rounds, messages)
        for n in GENERAL_SIZES:
            if n > MAX_N:
                continue
            net = preferential_attachment(n, 3, seed=21)
            partition = bfs_ball_partition(net, BALL_SIZE, seed=22)
            wall, rounds, messages = _pa_once(net, partition, seed=23)
            walls[f"prefattach_{n}"] = wall
            rows.append(("pref-attach", n, net.m, partition.num_parts,
                         rounds, messages, f"{wall:.2f}"))
        print_table(
            "PA scaling to 50k+ nodes (full pipeline, ledger-metered)",
            ["family", "n", "m", "parts", "rounds", "messages", "wall (s)"],
            rows,
        )
        return walls, headline

    walls, headline = run_once(benchmark, experiment)
    if headline is None:
        # REPRO_SCALING_MAX_N capped the sweep below the smallest general
        # size: nothing to gate, record the (grid-only) walls and stop.
        record(benchmark, largest_n=0,
               wall_seconds_by_workload={k: round(v, 4) for k, v in walls.items()})
        return
    largest_n, rounds, messages = headline
    if MAX_N >= 50000:
        assert largest_n >= 50000, (
            "the default sweep must include a PA run at the target scale"
        )
    # Sanity envelope, not a tuned bound: the paper's message guarantee is
    # O~(m); at 50k nodes / 100k edges a polylog factor is ~17^2, far
    # above the ~12x we observe, so this only catches gross regressions.
    m = 2 * largest_n
    assert messages <= m * max(1, math.log2(largest_n)) ** 2
    record(benchmark,
           rounds=rounds,
           messages=messages,
           largest_n=largest_n,
           wall_seconds_by_workload={k: round(v, 4) for k, v in walls.items()})


def test_mst_scaling(benchmark):
    from repro.algorithms.mst import minimum_spanning_tree
    from repro.analysis.reference import kruskal_mst
    from repro.graphs.weights import with_distinct_weights

    def experiment():
        rows = []
        walls = {}
        headline = None
        for n in MST_SIZES:
            if n > MAX_N:
                continue
            net = with_distinct_weights(random_regular(n, 4, seed=31), seed=5)
            start = time.perf_counter()
            session = PASession(
                net, seed=33, strict_bits=False, strict_edges=False
            )
            result = minimum_spanning_tree(net, seed=33, session=session)
            wall = time.perf_counter() - start
            walls[n] = wall
            rows.append((n, net.m, result.meta["phases"],
                         result.ledger.rounds, result.ledger.messages,
                         f"{wall:.2f}"))
            headline = (n, result.ledger.rounds, result.ledger.messages,
                        result.output)
        if headline is None:
            return walls, None  # sweep capped below the smallest MST size
        largest_n, rounds, messages, edges = headline
        net = with_distinct_weights(
            random_regular(largest_n, 4, seed=31), seed=5
        )
        assert set(edges) == set(kruskal_mst(net)), (
            "distributed MST must match the Kruskal oracle"
        )
        print_table(
            "MST scaling (Boruvka-over-PA, ledger-metered)",
            ["n", "m", "phases", "rounds", "messages", "wall (s)"],
            rows,
        )
        return walls, (largest_n, rounds, messages)

    walls, headline = run_once(benchmark, experiment)
    if headline is None:
        record(benchmark, largest_n=0)
        return
    largest_n, rounds, messages = headline
    record(benchmark,
           rounds=rounds,
           messages=messages,
           largest_n=largest_n,
           wall_seconds_by_n={str(n): round(w, 4) for n, w in walls.items()})


def _prepare_once(net, partition, mode):
    """One ``prepare`` on a fresh solver (tree excluded); returns metrics."""
    solver = PASolver(
        net, mode=mode, seed=23, strict_bits=False, strict_edges=False
    )
    start = time.perf_counter()
    setup = solver.prepare(partition)
    wall = time.perf_counter() - start
    ledger = setup.setup_ledger
    return wall, ledger.rounds, ledger.messages, len(ledger.phases())


def test_prepare_scaling_deterministic(benchmark):
    def experiment():
        rows = []
        walls = {}
        headline = None
        for n in DET_PREPARE_SIZES:
            if n > MAX_N:
                continue
            net = random_regular(n, 4, seed=21)
            partition = bfs_ball_partition(net, BALL_SIZE, seed=22)
            rand = _prepare_once(net, partition, "randomized")
            det = _prepare_once(net, partition, "deterministic")
            walls[f"randomized_{n}"] = rand[0]
            walls[f"deterministic_{n}"] = det[0]
            for mode, (wall, rounds, messages, phases) in (
                ("randomized", rand), ("deterministic", det),
            ):
                rows.append((n, mode, phases, rounds, messages, f"{wall:.2f}",
                             f"{wall / rand[0]:.1f}x"))
            headline = (n, det[1], det[2])
        print_table(
            "Deterministic vs randomized prepare (random 4-regular, BFS balls)",
            ["n", "mode", "phases", "rounds", "messages", "wall (s)",
             "wall / randomized"],
            rows,
        )
        return walls, headline

    walls, headline = run_once(benchmark, experiment)
    if headline is None:
        record(benchmark, largest_n=0)
        return
    largest_n, rounds, messages = headline
    record(benchmark,
           rounds=rounds,
           messages=messages,
           largest_n=largest_n,
           wall_seconds_by_workload={k: round(v, 4) for k, v in walls.items()})


def test_mst_scaling_deterministic(benchmark):
    from repro.algorithms.mst import minimum_spanning_tree
    from repro.analysis.reference import kruskal_mst
    from repro.graphs.weights import with_distinct_weights

    sizes = [n for n in DET_MST_SIZES if n <= MAX_N]

    def experiment():
        if not sizes:
            return None
        n = sizes[-1]
        net = with_distinct_weights(random_regular(n, 4, seed=31), seed=5)
        start = time.perf_counter()
        session = PASession(
            net, mode="deterministic", seed=33,
            strict_bits=False, strict_edges=False,
        )
        result = minimum_spanning_tree(
            net, mode="deterministic", seed=33, session=session
        )
        wall = time.perf_counter() - start
        assert set(result.output) == set(kruskal_mst(net)), (
            "deterministic MST must match the Kruskal oracle"
        )
        print_table(
            "Deterministic MST (star-joining Boruvka over deterministic PA)",
            ["n", "m", "phases", "rounds", "messages", "wall (s)"],
            [(n, net.m, result.meta["phases"], result.ledger.rounds,
              result.ledger.messages, f"{wall:.2f}")],
        )
        return n, result.ledger.rounds, result.ledger.messages, wall

    outcome = run_once(benchmark, experiment)
    if outcome is None:
        record(benchmark, largest_n=0)
        return
    n, rounds, messages, wall = outcome
    record(benchmark, rounds=rounds, messages=messages, largest_n=n,
           wall_seconds_by_n={str(n): round(wall, 4)})
