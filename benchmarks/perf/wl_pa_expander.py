"""``pa_expander``: the low-diameter regime where the whole machinery runs.

A random 4-regular graph (D ~ log n) cut into BFS balls of ~55 nodes.
Sub-part division, CoreFast claiming and verification all engage, and the
shortcut build is the largest share of ``prepare``; the tree is a small
share, so a tree-only change predicts no movement here.
"""

import wl_pa

from repro.graphs import bfs_ball_partition, random_regular

NAME = "pa_expander"
FULL = {"n": 8192}
SMOKE = {"n": 192}
BALL = 55


def build(seed, size, name=NAME, **extra):
    return wl_pa.build_state(
        name, seed,
        make_net=lambda s: random_regular(size["n"], 4, seed=s),
        make_partition=lambda net, s: bfs_ball_partition(net, BALL, seed=s),
        **extra,
    )


run_op = wl_pa.run_op
run_op_traced = wl_pa.run_op_traced
check = wl_pa.check
