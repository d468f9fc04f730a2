"""Scaling sweep: PA and MST ledger cost up to n = 50k.

The asymptotic claims of Theorem 1.2 — O~(D + sqrt n) rounds, O~(m)
messages — only become visible orders of magnitude beyond the few-hundred-
node reproduction experiments.  This sweep drives the CSR data layer and
the bulk-dispatch engine across three graph families at 50k nodes:

* ``grid_2d`` — the high-diameter planar regime (D ~ sqrt n); row parts
  stay below the diameter, so PA runs wave-only, no shortcut claiming.
* ``random_regular`` — the low-diameter expander regime (D ~ log n);
  BFS-ball parts well above the diameter force the full sub-part /
  CoreFast shortcut machinery.
* ``preferential_attachment`` — heavy-tailed hub-dominated topology, the
  adversarial case for per-edge congestion.

MST (Corollary 1.3) runs on the expander family at smaller n: each
Boruvka phase rebuilds the PA pipeline, so its cost per node is an order
of magnitude above a single PA solve.

Like the theorem-1.2 sweep, everything runs with ``strict_bits=False``
and ``strict_edges=False``: the per-message audits are pure simulator
overhead once the test suite has pinned payload sizes and program sends
(parity is asserted by ``tests/congest/test_engine_edge.py``).  Ledger
values are identical either way.

The deterministic column (ROADMAP item 5) sets Algorithm 6 + the
deterministic shortcut against Algorithm 3 + CoreFast on the expander
family: the set-up ledgers side by side at 5k and 20k nodes, and one
deterministic MST at 20k.  The deterministic set-up takes several times
the randomized one's rounds by design (O(log n) star-joining iterations
of O(log* n) Cole-Vishkin pushes each); its messages stay within item
5's 3 x, because its nodes speak only on news.  What the simulator
adds on top is the ``pa_det`` workload's ``op_wall_s`` in
``benchmarks/perf``, not a number recorded here.

The sizes are module constants: ``--check-against`` pins their ledgers, so
changing one is a re-baseline (side 316 / n = 100000 are the next points
of the grid and general families).
"""

import math

from repro.bench import print_table, record
from repro.core import SUM, PASolver
from repro.graphs import (
    bfs_ball_partition,
    grid_2d,
    preferential_attachment,
    random_regular,
    row_partition,
)
from repro.runtime import PASession

GRID_SIDES = (50, 100, 223)
GENERAL_SIZES = (2048, 8192, 50000)
MST_SIZES = (512, 1024, 2048)
DET_PREPARE_SIZES = (5000, 20000)
DET_MST_N = 20000

#: BFS-ball target size for the general families: comfortably above the
#: expander diameter (so the shortcut machinery engages) but small enough
#: that per-edge congestion, not part size, dominates.
BALL_SIZE = 55


def _pa_once(net, partition, seed):
    """One full PA pipeline (tree + prepare + solve); returns its ledger."""
    solver = PASolver(net, seed=seed, strict_bits=False, strict_edges=False)
    setup = solver.prepare(partition)
    result = solver.solve(setup, [1] * net.n, SUM, charge_setup=True)
    assert all(
        result.aggregates[pid] == len(partition.members[pid])
        for pid in range(partition.num_parts)
    ), "PA sum must count each part's members"
    return result.rounds, result.messages


def test_pa_scaling_families():
    def experiment():
        rows = []
        for side in GRID_SIDES:
            net = grid_2d(side, side)
            partition = row_partition(side, side)
            rounds, messages = _pa_once(net, partition, seed=23)
            rows.append(("grid", net.n, net.m, partition.num_parts,
                         rounds, messages))
        for n in GENERAL_SIZES:
            net = random_regular(n, 4, seed=21)
            partition = bfs_ball_partition(net, BALL_SIZE, seed=22)
            rounds, messages = _pa_once(net, partition, seed=23)
            rows.append(("random-regular", n, net.m, partition.num_parts,
                         rounds, messages))
            headline = (n, rounds, messages)
        for n in GENERAL_SIZES:
            net = preferential_attachment(n, 3, seed=21)
            partition = bfs_ball_partition(net, BALL_SIZE, seed=22)
            rounds, messages = _pa_once(net, partition, seed=23)
            rows.append(("pref-attach", n, net.m, partition.num_parts,
                         rounds, messages))
        print_table(
            "PA scaling to 50k+ nodes (full pipeline, ledger-metered)",
            ["family", "n", "m", "parts", "rounds", "messages"],
            rows,
        )
        return headline

    largest_n, rounds, messages = experiment()
    # Sanity envelope, not a tuned bound: the paper's message guarantee is
    # O~(m); at 50k nodes / 100k edges a polylog factor is ~17^2, far
    # above the ~12x we observe, so this only catches gross regressions.
    m = 2 * largest_n
    assert messages <= m * max(1, math.log2(largest_n)) ** 2
    record(rounds=rounds, messages=messages, largest_n=largest_n)


def test_mst_scaling():
    from repro.algorithms.mst import minimum_spanning_tree
    from repro.analysis.reference import kruskal_mst
    from repro.graphs.weights import with_distinct_weights

    def experiment():
        rows = []
        for n in MST_SIZES:
            net = with_distinct_weights(random_regular(n, 4, seed=31), seed=5)
            session = PASession(
                net, seed=33, strict_bits=False, strict_edges=False
            )
            result = minimum_spanning_tree(net, seed=33, session=session)
            rows.append((n, net.m, result.meta["phases"],
                         result.ledger.rounds, result.ledger.messages))
        # ``net`` / ``result`` are the largest size's.
        assert set(result.output) == set(kruskal_mst(net)), (
            "distributed MST must match the Kruskal oracle"
        )
        print_table(
            "MST scaling (Boruvka-over-PA, ledger-metered)",
            ["n", "m", "phases", "rounds", "messages"],
            rows,
        )
        return n, result.ledger.rounds, result.ledger.messages

    largest_n, rounds, messages = experiment()
    record(rounds=rounds, messages=messages, largest_n=largest_n)


def _prepare_once(net, partition, mode):
    """One ``prepare`` on a fresh solver (tree excluded); returns its ledger."""
    solver = PASolver(
        net, mode=mode, seed=23, strict_bits=False, strict_edges=False
    )
    ledger = solver.prepare(partition).setup_ledger
    return ledger.rounds, ledger.messages, len(ledger.phases())


def test_prepare_scaling_deterministic():
    def experiment():
        rows = []
        for n in DET_PREPARE_SIZES:
            net = random_regular(n, 4, seed=21)
            partition = bfs_ball_partition(net, BALL_SIZE, seed=22)
            for mode in ("randomized", "deterministic"):
                rounds, messages, phases = _prepare_once(net, partition, mode)
                rows.append((n, mode, phases, rounds, messages))
        print_table(
            "Deterministic vs randomized prepare (random 4-regular, BFS balls)",
            ["n", "mode", "phases", "rounds", "messages"],
            rows,
        )
        # ROADMAP item 5's line: within 3 x the randomized messages.
        for randomized, deterministic in zip(rows[::2], rows[1::2]):
            assert deterministic[4] <= 3 * randomized[4], deterministic
        # Headline: the deterministic set-up at the largest size.
        return n, rounds, messages

    largest_n, rounds, messages = experiment()
    record(rounds=rounds, messages=messages, largest_n=largest_n)


def test_mst_scaling_deterministic():
    from repro.algorithms.mst import minimum_spanning_tree
    from repro.analysis.reference import kruskal_mst
    from repro.graphs.weights import with_distinct_weights

    def experiment():
        n = DET_MST_N
        net = with_distinct_weights(random_regular(n, 4, seed=31), seed=5)
        session = PASession(
            net, mode="deterministic", seed=33,
            strict_bits=False, strict_edges=False,
        )
        result = minimum_spanning_tree(
            net, mode="deterministic", seed=33, session=session
        )
        assert set(result.output) == set(kruskal_mst(net)), (
            "deterministic MST must match the Kruskal oracle"
        )
        print_table(
            "Deterministic MST (star-joining Boruvka over deterministic PA)",
            ["n", "m", "phases", "rounds", "messages"],
            [(n, net.m, result.meta["phases"], result.ledger.rounds,
              result.ledger.messages)],
        )
        return result.ledger.rounds, result.ledger.messages

    rounds, messages = experiment()
    record(rounds=rounds, messages=messages, largest_n=DET_MST_N)
