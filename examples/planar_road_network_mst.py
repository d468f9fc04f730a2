"""Scenario: backbone planning on a road-like planar network.

A municipality wants a minimum-cost backbone (MST) over a planar road
grid, computed *by the network itself* (Corollary 1.3), and compares the
paper's PA-based Boruvka — a fresh pipeline per phase, and one
``PASession(reuse=True, batch=True)`` carried across the phases — against
a GHS-style baseline that merges by the same rule.  The baseline pays
rounds proportional to fragment diameters, which on elongated road
networks is the whole map; who wins which currency at this size is read
off the three ledgers, not assumed.

Run:  python examples/planar_road_network_mst.py
"""

from repro import PASession
from repro.algorithms import minimum_spanning_tree
from repro.analysis import kruskal_mst, mst_weight
from repro.baselines import ghs_mst
from repro.graphs import grid_2d, with_random_weights


def main() -> None:
    # An elongated road grid: 3 avenues x 35 blocks, costs = road lengths.
    net = with_random_weights(grid_2d(3, 35), max_weight=90, seed=11)
    print(f"road network: n={net.n}, m={net.m}, "
          f"D={net.exact_diameter()}")

    ours = minimum_spanning_tree(net, seed=12)
    # One session across the phases: setups are projected instead of
    # rebuilt and each phase's aggregations share a wave pass.
    reused = minimum_spanning_tree(
        net, seed=12, session=PASession(net, seed=12, reuse=True, batch=True)
    )
    baseline = ghs_mst(net, seed=13)
    reference = mst_weight(net, kruskal_mst(net))

    for run in (ours, reused, baseline):
        assert mst_weight(net, set(run.output)) == reference
    print(f"backbone cost: {reference} (all three verified against Kruskal)")

    runs = (
        ("PA-based MST (per phase)", ours),
        ("PA-based MST (session)", reused),
        ("GHS-style baseline", baseline),
    )
    print("\n                          rounds    messages")
    for label, run in runs:
        print(f"{label:24s} {run.rounds:8d} {run.messages:10d}")
    fewest = {
        currency: min(runs, key=lambda row: getattr(row[1], currency))[0]
        for currency in ("rounds", "messages")
    }
    print(f"\nAt n = {net.n}: fewest rounds — {fewest['rounds']}; fewest "
          f"messages — {fewest['messages']}.")
    print("The baseline's fragments are map-length chains, so its rounds")
    print("track n where PA's are meant to track D + sqrt n: the crossover")
    print("is expected on larger, lower-diameter instances — EXPERIMENTS.md")
    print("(bench_cor13_mst) has the curve, ROADMAP.md item 1 the reading.")


if __name__ == "__main__":
    main()
