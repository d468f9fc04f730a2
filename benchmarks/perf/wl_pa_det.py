"""``pa_det``: the deterministic pipeline, which has no array kernels.

Same input family as ``pa_expander``, ``mode="deterministic"``: star
joining, Cole-Vishkin colouring and heavy-path doubling all run on the
scalar engine, so ``prepare`` is most of the op.  This is the workload a
deterministic-pipeline speed-up must move; randomized-only changes
predict no movement.
"""

import wl_pa
import wl_pa_expander

NAME = "pa_det"
FULL = {"n": 3072}
SMOKE = {"n": 128}


def build(seed, size):
    return wl_pa_expander.build(
        seed, size, name=NAME,
        solver_kwargs=lambda: {"mode": "deterministic"},
    )


run_op = wl_pa.run_op
run_op_traced = wl_pa.run_op_traced
check = wl_pa.check
