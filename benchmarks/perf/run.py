"""The repo's performance benchmark: ``python3 benchmarks/perf/run.py``.

    run.py [--workload NAME]... [--seed S] [--seconds T] [--trace 0|1]
           [--out FILE] [--trace-dir DIR]

Runs the named workloads (default: all seven) one at a time.  A run of
one workload is a closed loop with one client, split over three fresh
child processes made one after the other: each child imports the
program, generates the inputs from ``(seed, workload)``, computes the
expected answers, runs one untimed warm-up op on a small instance, and
then repeats the op for its third of ``--seconds``, checking every
output.  That gives three samples of ``setup_s`` and a pool of op walls;
the time metrics are medians over them, each sample first restated at a
fixed host speed by the wall of a reference loop run next to it (see
``perf_harness.reference_loop``).  The only other processes are the two
shard workers of ``pa_sharded``.

``--trace 0`` measures the end-to-end metrics with no tracer installed;
``--trace 1`` spends a third of the time untraced (the base of
``obs.trace_overhead_ratio``) and the rest with a ``repro.obs.Tracer``
and benchmark-side spans around each layer call, and reports the
per-layer metrics.  ``--trace-dir DIR`` also writes one Chrome trace per
workload there.

Every metric is printed as ``workload metric value unit``; the last line
of standard output is the result of the last workload as one JSON
object.  The exit code is non-zero if any output check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path

import perf_report

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
CHILDREN = 3
#: Three children and the parent must end inside the driver's 180 s.
CHILD_TIMEOUT_S = 55


def child_main(args) -> int:
    import importlib

    import perf_harness as ph

    wl = importlib.import_module(f"wl_{args.workload[0]}")
    record = ph.run_child(
        wl, args.seed, args.seconds, bool(args.trace), args.spawned_at,
        trace_path=args.trace_file,
    )
    print(json.dumps(record))
    return 0


def run_child_process(name, index, cmd) -> str:
    """Run one child to its end; returns the last line it printed.

    The child leads its own process group, so that a child that overruns
    is stopped together with any shard worker it started.
    """
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise SystemExit(f"{name}: child {index} overran {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise SystemExit(
            f"{name}: child {index} exited with code {proc.returncode}"
        )
    return out.strip().splitlines()[-1]


def run_workload(spec, name, seed, seconds, trace, trace_dir):
    """Three children, one after the other; returns the combined result."""
    records = []
    for index in range(CHILDREN):
        cmd = [
            sys.executable, str(HERE / "run.py"), "--child",
            "--workload", name, "--seed", str(seed),
            "--seconds", repr(seconds / CHILDREN), "--trace", str(trace),
        ]
        if trace_dir and index == CHILDREN - 1:
            cmd += ["--trace-file", str(Path(trace_dir) / f"{name}.trace.json")]
        cmd += ["--spawned-at", repr(time.time())]
        records.append(json.loads(run_child_process(name, index, cmd)))
    return perf_report.combine(spec, records, bool(trace))


def main(argv=None) -> int:
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    known = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=known)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write every workload's result as JSON")
    parser.add_argument("--layers-md", help="with --trace 1: the per-layer table")
    parser.add_argument("--trace-dir", help="with --trace 1: Chrome traces go here")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    parser.add_argument("--trace-file", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (REPO / "src" / "repro").is_dir():
        raise SystemExit("run.py: src/repro is not in this checkout")
    if args.child:
        return child_main(args)

    results = {}
    for name in args.workload or known:
        result = run_workload(
            spec, name, args.seed, args.seconds, args.trace,
            args.trace_dir if args.trace else None,
        )
        perf_report.print_result(name, result)
        results[name] = result
    if args.out or args.layers_md:
        import numpy

        import perf_harness as ph

        record = {
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "host": {
                "calib_s": ph.host_calibration(),
                "nproc": len(os.sched_getaffinity(0)),
                "python": platform.python_version(),
                "numpy": numpy.__version__,
            },
            "workloads": results,
        }
        if args.out:
            Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
        if args.layers_md:
            Path(args.layers_md).write_text(perf_report.layers_markdown(record))
    last = results[(args.workload or known)[-1]]
    print(json.dumps({k: last[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return perf_report.exit_code(results)


if __name__ == "__main__":
    sys.exit(main())
