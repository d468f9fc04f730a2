"""E1 + E14 (Figure 2, Section 3.1): the apex-grid message blowup.

Paper claim: block-aggregation PA needs Theta(nD) messages on the
D x (n-1)/D grid with an apex row-neighbor, while sub-part PA needs
O~(n) = O~(m); the gap grows linearly with D.  The ablation column
isolates the sub-part division (our waves vs. all-nodes block
aggregation on the *same* topology and parts).
"""

from repro.baselines import block_aggregation_pa
from repro.bench import print_table, record
from repro.core import SUM, solve_pa
from repro.graphs import grid_with_apex, row_partition

COLS = 16
DEPTHS = (4, 8, 16)


def _one_depth(rows):
    net = grid_with_apex(rows, COLS)
    part = row_partition(rows, COLS, include_apex=True)
    values = [1] * net.n
    naive = block_aggregation_pa(net, part, values, SUM, root=rows * COLS)
    ours = solve_pa(net, part, values, SUM, seed=1)
    assert ours.aggregates == naive.output
    wave_msgs = sum(
        p.messages for p in ours.ledger.phases() if p.name.startswith("pa_")
    )
    return net, naive, ours, wave_msgs


def test_fig2_message_blowup():
    def experiment():
        rows_out = []
        series = {}
        for rows in DEPTHS:
            net, naive, ours, wave_msgs = _one_depth(rows)
            series[rows] = (naive.messages, wave_msgs, ours.messages,
                            ours.rounds)
            rows_out.append(
                (
                    rows,
                    net.n,
                    net.m,
                    naive.messages,
                    f"{naive.messages / net.n:.1f}",
                    wave_msgs,
                    f"{wave_msgs / net.n:.1f}",
                    ours.messages,
                )
            )
        print_table(
            "Figure 2 / Section 3.1: apex-grid messages vs depth D",
            ["D", "n", "m", "naive msgs", "naive/n", "PA-wave msgs",
             "wave/n", "ours total (incl. setup)"],
            rows_out,
        )
        return series

    series = experiment()
    small, large = series[DEPTHS[0]], series[DEPTHS[-1]]
    # The paper's shape: naive per-node cost grows ~linearly in D while the
    # wave cost stays flat; the naive/wave gap widens with D.
    gap_small = small[0] / max(1, small[1])
    gap_large = large[0] / max(1, large[1])
    assert gap_large > gap_small
    record(naive_gap_small=gap_small, naive_gap_large=gap_large,
           rounds=large[3], messages=large[2])
