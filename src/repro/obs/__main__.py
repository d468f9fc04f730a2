"""``python -m repro.obs explain TRACE`` / ``python -m repro.obs diff A B``.

``explain`` prints a trace's report (:mod:`repro.obs.report`) and exits 1
on a trace without a main-stream ledger event; ``diff`` compares two
traces' deterministic per-phase quantities and exits 3 on any drift, as
the bench runner's ``--check-against`` does.  A missing trace is exit 2.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from .report import diff, explain, load_trace, render, render_diff


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Explain or diff traces recorded by repro.obs.Tracer.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser(
        "explain", help="the run against the paper's envelopes, phase by phase"
    ).add_argument("traces", nargs=1, type=Path, metavar="TRACE")
    sub.add_parser(
        "diff", help="per-phase drift between two traces"
    ).add_argument("traces", nargs=2, type=Path, metavar=("A", "B"))
    args = parser.parse_args(argv)

    for path in args.traces:
        if not path.is_file():
            print(f"error: trace not found: {path}", file=sys.stderr)
            return 2
    reports = [explain(load_trace(path)) for path in args.traces]
    if args.command == "explain":
        print(render(reports[0]))
        return 0 if reports[0].families else 1
    drift = diff(*reports)
    print(render_diff(drift, *map(str, args.traces)))
    return 3 if drift else 0


if __name__ == "__main__":
    sys.exit(main())
