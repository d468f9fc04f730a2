"""Scenario: backbone planning on a road-like planar network.

A municipality wants a minimum-cost backbone (MST) over a planar road
grid, computed *by the network itself* (Corollary 1.3), and compares the
paper's PA-based Boruvka — a fresh pipeline per phase, and one
``PASession(reuse=True, batch=True)`` carried across the phases — against
a GHS-style baseline.  The baseline pays rounds proportional to fragment
diameters, which on elongated road networks is the whole map; at this
size it still wins both currencies, and the table says so.

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

    print("\n                          rounds    messages")
    for label, run in (
        ("PA-based MST (per phase)", ours),
        ("PA-based MST (session)", reused),
        ("GHS-style baseline", baseline),
    ):
        print(f"{label:24s} {run.rounds:8d} {run.messages:10d}")
    print("\nAt n = 105 the baseline wins both currencies: its fragments are")
    print("map-length chains, but the map is short.  Its rounds track n and")
    print("PA's are meant to track D + sqrt n, so the crossover is expected")
    print("on larger, lower-diameter instances — ROADMAP.md item 1 says where")
    print("it has and has not been measured yet.")


if __name__ == "__main__":
    main()
