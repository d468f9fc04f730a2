"""``pa_grid``: the high-diameter planar regime (D ~ sqrt n).

A square grid with one part per row.  Leader election and the BFS tree
are the largest share of the op; every part is a path shorter than D, so
CoreFast claiming is nearly bypassed.  The solves carry int payloads and
run the array wave kernels.
"""

import wl_pa

from repro.graphs import grid_2d, row_partition

NAME = "pa_grid"
FULL = {"side": 128}
SMOKE = {"side": 12}


def build(seed, size):
    side = size["side"]
    return wl_pa.build_state(
        NAME, seed,
        make_net=lambda _seed: grid_2d(side, side),
        make_partition=lambda _net, _seed: row_partition(side, side),
    )


run_op = wl_pa.run_op
run_op_traced = wl_pa.run_op_traced
check = wl_pa.check
