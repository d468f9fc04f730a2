"""``python -m repro.obs`` — summarize, explain or diff recorded traces.

Usage::

    python -m repro.obs summarize TRACE [--top K]
    python -m repro.obs explain TRACE
    python -m repro.obs diff A B

``summarize`` prints per-stream totals, the top-k phases by rounds /
messages / wall time, the sync-vs-async overhead breakdown and instant
event counts.  ``explain`` folds the main-stream phases into families
and holds each, and the run, against the paper's envelopes (rounds
against tree depth + sqrt n, messages against m), naming the family that
owns each slack (:mod:`repro.obs.explain`); it exits 1 on a trace
without a main-stream ledger event.  ``diff`` compares the deterministic
per-phase quantities of two traces and exits 3 on any drift (mirroring
the bench runner's ``--check-against`` exit code) — the per-phase
version of that gate.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from .explain import explain, render_explanation
from .summary import (
    diff_summaries,
    load_trace,
    render_diff,
    render_summary,
    summarize,
)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description=(
            "Summarize, explain or diff traces recorded by repro.obs.Tracer."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sum = sub.add_parser("summarize", help="profile one trace")
    p_sum.add_argument("trace", type=Path)
    p_sum.add_argument("--top", type=int, default=10, metavar="K",
                       help="rows per top-k table (default 10)")

    p_exp = sub.add_parser(
        "explain", help="phase families against the paper's envelopes"
    )
    p_exp.add_argument("trace", type=Path)

    p_diff = sub.add_parser("diff", help="per-phase drift between two traces")
    p_diff.add_argument("trace_a", type=Path)
    p_diff.add_argument("trace_b", type=Path)

    args = parser.parse_args(argv)

    if args.command in ("summarize", "explain"):
        if not args.trace.is_file():
            print(f"error: trace not found: {args.trace}", file=sys.stderr)
            return 2
        events = load_trace(args.trace)
        if args.command == "summarize":
            print(render_summary(summarize(events), top=args.top))
            return 0
        explanation = explain(events)
        print(render_explanation(explanation))
        return 0 if explanation.families else 1

    for path in (args.trace_a, args.trace_b):
        if not path.is_file():
            print(f"error: trace not found: {path}", file=sys.stderr)
            return 2
    drift = diff_summaries(
        summarize(load_trace(args.trace_a)),
        summarize(load_trace(args.trace_b)),
    )
    print(render_diff(drift, label_a=str(args.trace_a), label_b=str(args.trace_b)))
    return 3 if drift else 0


if __name__ == "__main__":
    sys.exit(main())
