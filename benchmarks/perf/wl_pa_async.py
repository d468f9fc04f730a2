"""``pa_async``: the alpha-synchronizer path.

Same input family as ``pa_expander`` under a random-delay schedule:
every phase runs scalar behind ``AsyncEngine`` and the overhead ledger
carries the ack/safe control traffic.  Outputs are also held to the
synchronous run on the same inputs (done in set-up).  Synchronous-engine
changes predict no movement here.
"""

import perf_harness as ph
import wl_pa
import wl_pa_expander

from repro import make_schedule

NAME = "pa_async"
FULL = {"n": 256}
SMOKE = {"n": 48}


def build(seed, size):
    schedule_seed = ph.instance_seed(NAME, "schedule")
    return wl_pa_expander.build(
        seed, size, name=NAME,
        solver_kwargs=lambda: {
            "schedule": make_schedule("random", schedule_seed)
        },
        compare_to_sync=True,
    )


run_op = wl_pa.run_op
run_op_traced = wl_pa.run_op_traced
check = wl_pa.check
