"""CLI for the schedule fuzzer: ``python -m repro.fuzz --runs 25``.

Exit status 0 when every case passes, 1 when any fails (after
shrinking); ``--out`` writes the failing replay seed triples as JSON —
the CI fuzz step uploads that file as an artifact.  ``--replay
graph_seed:schedule_seed[:fault_seed]`` re-runs one case exactly
(combine with ``--n/--algorithm/--mode/--graph/--faults/--pa-agg/
--reuse/--merging`` as printed in the failure's replay line).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from ..algorithms.mst import RANK, STAR
from .harness import (
    ALGORITHMS,
    DELAYED_KINDS,
    ENGINE_IMPLS,
    FAULT_KINDS,
    GRAPH_KINDS,
    PA_AGGS,
    FuzzCase,
    FuzzFailure,
    fuzz,
    run_case,
    shrink_case,
)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fuzz",
        description="Differential fuzzing of sync vs async execution.",
    )
    parser.add_argument("--runs", type=int, default=10,
                        help="number of seeded cases (default 10)")
    parser.add_argument("--seed", type=int, default=0,
                        help="base seed for case derivation (default 0)")
    parser.add_argument("--max-n", type=int, default=36,
                        help="largest graph size to draw (default 36)")
    parser.add_argument("--out", type=Path, default=None,
                        help="write failing replay seeds to this JSON file")
    parser.add_argument("--no-shrink", action="store_true",
                        help="report failures without minimizing them")
    parser.add_argument("--replay", metavar="GSEED:SSEED[:FSEED]",
                        default=None,
                        help="replay one case from a failure's seed triple")
    parser.add_argument("--n", type=int, default=24,
                        help="graph size for --replay")
    parser.add_argument("--algorithm", choices=ALGORITHMS, default="pa",
                        help="workload for --replay")
    parser.add_argument("--mode", choices=["randomized", "deterministic"],
                        default="randomized", help="PA mode for --replay")
    parser.add_argument("--graph", choices=GRAPH_KINDS, default="random",
                        help="graph family for --replay")
    parser.add_argument("--schedules", default=",".join(DELAYED_KINDS),
                        help="comma-separated schedule kinds for --replay "
                             "(shrunk failures isolate a single kind)")
    parser.add_argument("--engines", default=",".join(ENGINE_IMPLS),
                        help="comma-separated sync engine implementations "
                             "for --replay (scalar is the baseline)")
    parser.add_argument("--faults", default="",
                        help="comma-separated fault kinds for --replay "
                             "(empty = no fault axis)")
    parser.add_argument("--pa-agg", choices=PA_AGGS, default="sum",
                        help="what a PA case aggregates, for --replay")
    parser.add_argument("--reuse", action="store_true",
                        help="MST session opt-in for --replay")
    parser.add_argument("--merging", choices=[RANK, STAR], default=None,
                        help="MST merging rule for --replay (default: "
                             "the mode's own)")
    args = parser.parse_args(argv)

    schedule_kinds = tuple(k for k in args.schedules.split(",") if k)
    unknown = [k for k in schedule_kinds if k not in DELAYED_KINDS]
    if unknown:
        parser.error(
            f"unknown schedule kind(s) {unknown}; choose from {DELAYED_KINDS}"
        )
    engine_impls = tuple(k for k in args.engines.split(",") if k)
    unknown = [k for k in engine_impls if k not in ENGINE_IMPLS]
    if unknown:
        parser.error(
            f"unknown engine impl(s) {unknown}; choose from {ENGINE_IMPLS}"
        )
    fault_kinds = tuple(k for k in args.faults.split(",") if k)
    unknown = [k for k in fault_kinds if k not in FAULT_KINDS]
    if unknown:
        parser.error(
            f"unknown fault kind(s) {unknown}; choose from {FAULT_KINDS}"
        )

    if args.replay is not None:
        parts = args.replay.split(":")
        if len(parts) not in (2, 3):
            parser.error("--replay expects GSEED:SSEED or GSEED:SSEED:FSEED")
        graph_seed, schedule_seed = parts[0], parts[1]
        fault_seed = parts[2] if len(parts) == 3 else "0"
        case = FuzzCase(
            graph_seed=int(graph_seed), schedule_seed=int(schedule_seed or 0),
            n=args.n, algorithm=args.algorithm, mode=args.mode,
            graph_kind=args.graph, schedule_kinds=schedule_kinds,
            engine_impls=engine_impls,
            fault_seed=int(fault_seed or 0), fault_kinds=fault_kinds,
            pa_agg=args.pa_agg, reuse=args.reuse, merging=args.merging,
        )
        message = run_case(case)
        if message is None:
            print(f"[fuzz] replay passed: {case.replay_command()}")
            return 0
        if not args.no_shrink:
            case, message = shrink_case(case)
        print(f"[fuzz] replay FAILED: {message}")
        print(f"        {case.replay_command()}")
        failures = [FuzzFailure(case=case, message=message)]
    else:
        report = fuzz(
            runs=args.runs, base_seed=args.seed, max_n=args.max_n,
            shrink=not args.no_shrink, log=print,
        )
        if report.ok:
            print(f"[fuzz] {args.runs} cases, all passed")
            return 0
        failures = report.failures
        print(f"[fuzz] {len(failures)}/{args.runs} cases FAILED")

    if args.out is not None:
        args.out.write_text(
            json.dumps([f.as_dict() for f in failures], indent=2) + "\n"
        )
        print(f"[fuzz] replay seeds written to {args.out}")
    return 1


if __name__ == "__main__":
    sys.exit(main())
