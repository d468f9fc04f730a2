"""Headless benchmark runner: every ``benchmarks/bench_*.py``, by import.

An experiment is a parameterless ``test_*`` function of a bench file
that hands its metrics to :func:`repro.bench.harness.record` and its
tables to :func:`~repro.bench.harness.print_table`; the runner imports
each file, calls its experiments in definition order and drains both
registries after each one.

This sweep is the *model-cost* record — rounds and messages read from
the ``CostLedger`` — and carries nothing else: no clock is read here or in
any bench file (wall time is ``benchmarks/perf``'s contract), so both
outputs are a pure function of the code and regenerate byte for byte.

Outputs:

* ``BENCH.json`` (``--out``) — machine-readable per-experiment results:
  the ledger-derived ``rounds`` / ``messages`` headline metrics, all
  recorded extra metrics, and the structured experiment tables.  The
  committed ``BENCH_baseline.json`` is the baseline the gate compares against.
* ``EXPERIMENTS.md`` — regenerated from the structured tables registered
  through :func:`repro.bench.harness.print_table` (ledger data, not
  captured stdout).  Only a full sweep writes it: ``--only`` implies
  ``--no-experiments``, so a partial run cannot clobber the committed
  document.

Parallel sweeps: ``--jobs N`` (or ``--jobs auto``) fans the bench *files*
out over a process pool — each worker imports one file and runs its
experiments in isolation, so module-level state cannot leak between
files.  The merged report is deterministic regardless of completion
order: experiments are always emitted sorted by file name, in definition
order within a file — byte-identical to the serial sweep.

``--only`` filters the sweep to matching bench files: shell-glob
matching when the value contains a metacharacter (``--only
'bench_cor1*'``), plain substring otherwise (``--only scaling``).

Regression gate: ``--check-against BASELINE.json`` compares every
experiment's ledger ``rounds`` / ``messages`` against the baseline and
exits non-zero on any difference; the ledger is the correctness contract
(docs/architecture.md).

Usage::

    PYTHONPATH=src python -m repro.bench.runner --out BENCH_ci.json
    PYTHONPATH=src python -m repro.bench.runner --only theorem12 --verbose
    PYTHONPATH=src python -m repro.bench.runner --jobs auto --check-against BENCH_baseline.json
"""

from __future__ import annotations

import argparse
import fnmatch
import importlib.util
import io
import json
import sys
import traceback
from contextlib import ExitStack, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..procpool import resolve_workers
from .harness import Table, drain_metrics, drain_tables


@dataclass
class ExperimentResult:
    """Outcome of one benchmark function run headlessly."""

    file: str
    name: str
    status: str  # "ok" | "error"
    rounds: Optional[int]
    messages: Optional[int]
    metrics: Dict[str, object]
    tables: List[Table]
    error: Optional[str] = None

    def to_json(self) -> Dict[str, object]:
        return {
            "file": self.file,
            "name": self.name,
            "status": self.status,
            "rounds": self.rounds,
            "messages": self.messages,
            "metrics": self.metrics,
            "tables": [
                {"title": t.title, "headers": list(t.headers),
                 "rows": [list(r) for r in t.rows]}
                for t in self.tables
            ],
            **({"error": self.error} if self.error else {}),
        }


def discover_bench_files(bench_dir: Path) -> List[Path]:
    """All ``bench_*.py`` files in ``bench_dir``, sorted by name."""
    return sorted(bench_dir.glob("bench_*.py"))


def only_matches(only: Optional[str], file_name: str) -> bool:
    """Does a bench file fall inside the ``--only`` filter?

    ``only`` is a shell-style glob matched against the file name (a bare
    ``*``-free string keeps the historical substring behavior, so
    ``--only scaling`` and ``--only 'bench_scal*'`` both select
    ``bench_scaling.py``).  ``None`` selects everything.
    """
    if not only:
        return True
    if any(ch in only for ch in "*?["):
        return fnmatch.fnmatch(file_name, only)
    return only in file_name


def load_bench_module(path: Path):
    """Import a benchmark file by path (no package required)."""
    spec = importlib.util.spec_from_file_location(f"_bench_{path.stem}", path)
    if spec is None or spec.loader is None:
        raise ImportError(f"cannot load benchmark module {path}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bench_functions(module) -> List[Callable]:
    """The ``test_*`` callables of a bench module, in definition order."""
    functions = []
    for name, obj in vars(module).items():
        if name.startswith("test_") and callable(obj):
            functions.append(obj)
    functions.sort(key=lambda fn: fn.__code__.co_firstlineno)
    return functions


def _coerce_count(value: object) -> Optional[int]:
    """Lift a recorded metric into the headline int slot if it is one."""
    if isinstance(value, bool):
        return None
    if isinstance(value, int):
        return value
    return None


def _failed(path: Path, name: str, error: str) -> ExperimentResult:
    """The record of an experiment (or a whole file) that could not run."""
    return ExperimentResult(
        file=path.name, name=name, status="error", rounds=None,
        messages=None, metrics={}, tables=[], error=error,
    )


def run_experiment(
    path: Path,
    fn: Callable,
    quiet: bool = True,
    trace_dir: Optional[Path] = None,
) -> ExperimentResult:
    """Run one benchmark function headlessly and collect its results.

    With ``trace_dir`` set, the experiment runs under a recording
    :class:`repro.obs.Tracer` and its events are written to
    ``<trace_dir>/<file-stem>__<fn>.trace.json`` (Chrome trace format —
    open in Perfetto, or read with ``python -m repro.obs explain``).
    Tracing never changes ledgers (the zero-cost-when-off contract runs
    the other way too: hooks only *observe*), so traced sweeps stay
    baseline-comparable.
    """
    # Drop anything registered outside an experiment (at import, say).
    drain_tables()
    drain_metrics()
    error = None
    tracer = None
    try:
        with ExitStack() as stack:
            if trace_dir is not None:
                from ..obs import Tracer, use_tracer

                tracer = Tracer()
                stack.enter_context(use_tracer(tracer))
            if quiet:
                stack.enter_context(redirect_stdout(io.StringIO()))
            fn()
    except Exception:  # noqa: BLE001 - report, don't crash the sweep
        error = traceback.format_exc()
    if tracer is not None:
        trace_dir.mkdir(parents=True, exist_ok=True)
        tracer.write_chrome(trace_dir / f"{path.stem}__{fn.__name__}.trace.json")
    tables = drain_tables()
    metrics = drain_metrics()
    return ExperimentResult(
        file=path.name,
        name=fn.__name__,
        status="error" if error else "ok",
        rounds=_coerce_count(metrics.get("rounds")),
        messages=_coerce_count(metrics.get("messages")),
        metrics=metrics,
        tables=tables,
        error=error,
    )


def run_file(
    path: Path,
    quiet: bool = True,
    progress: Optional[Callable[[str], None]] = None,
    trace_dir: Optional[Path] = None,
) -> List[ExperimentResult]:
    """Run every experiment of one bench file, in definition order."""
    try:
        module = load_bench_module(path)
    except Exception:  # noqa: BLE001
        return [_failed(path, "<import>", traceback.format_exc())]
    results = []
    for fn in bench_functions(module):
        if progress:
            progress(f"{path.name}::{fn.__name__}")
        results.append(run_experiment(path, fn, quiet=quiet, trace_dir=trace_dir))
    return results


def _run_file_worker(
    task: Tuple[str, bool, Optional[str]]
) -> List[ExperimentResult]:
    """Process-pool entry point: one (file, quiet, trace dir) per task."""
    path_str, quiet, trace_dir = task
    return run_file(
        Path(path_str), quiet=quiet,
        trace_dir=Path(trace_dir) if trace_dir else None,
    )


def resolve_jobs(jobs: str) -> int:
    """Turn a ``--jobs`` argument into a worker count.

    The shared :func:`repro.procpool.resolve_workers` rules, with bad
    arguments exiting the CLI instead of raising.  ``run_all``
    additionally caps the pool at the number of bench files.
    """
    return resolve_workers(jobs, error=SystemExit)


def run_all(
    bench_dir: Path,
    only: Optional[str] = None,
    quiet: bool = True,
    progress: Optional[Callable[[str], None]] = None,
    jobs: int = 1,
    trace_dir: Optional[Path] = None,
) -> List[ExperimentResult]:
    """Run every discovered benchmark (optionally filtered by substring).

    With ``jobs > 1`` the bench files are distributed over a process pool.
    The result order is identical to the serial sweep (sorted file names,
    definition order within each file) no matter how workers are
    scheduled, so merged reports are deterministic.
    """
    paths = [
        path for path in discover_bench_files(bench_dir)
        if only_matches(only, path.name)
    ]
    if jobs > 1 and len(paths) > 1:
        from concurrent.futures import ProcessPoolExecutor

        results: List[ExperimentResult] = []
        with ProcessPoolExecutor(max_workers=min(jobs, len(paths))) as pool:
            # executor.map preserves submission order: the merged list is
            # deterministic even though workers finish out of order.
            tasks = [
                (str(p), quiet, str(trace_dir) if trace_dir else None)
                for p in paths
            ]
            for path, file_results in zip(
                paths,
                pool.map(_run_file_worker, tasks),
            ):
                if progress:
                    for r in file_results:
                        progress(f"{r.file}::{r.name}")
                results.extend(file_results)
        return results
    results = []
    for path in paths:
        results.extend(
            run_file(path, quiet=quiet, progress=progress, trace_dir=trace_dir)
        )
    return results


# ----------------------------------------------------------------------
# Report generation
# ----------------------------------------------------------------------
def results_to_json(results: Sequence[ExperimentResult]) -> Dict[str, object]:
    ok = [r for r in results if r.status == "ok"]
    return {
        # /3 is a pure function of the code: no timestamp, interpreter
        # version or wall field (and no promoted shard-wall fields).
        # /1 and /2 baselines still load — the drift gate reads only
        # rounds/messages.
        "schema": "repro-bench/3",
        "experiments": [r.to_json() for r in results],
        "totals": {
            "experiments": len(results),
            "ok": len(ok),
            "errors": len(results) - len(ok),
        },
    }


def render_experiments_md(results: Sequence[ExperimentResult]) -> str:
    """EXPERIMENTS.md content: every experiment table, from ledger data."""
    lines = [
        "# EXPERIMENTS",
        "",
        "Regenerated by `python -m repro.bench.runner` from the structured",
        "experiment tables (which are computed from `CostLedger` data — the",
        "ledger is the ground truth for every number here, never captured",
        "stdout and never closed-form formulas).",
        "",
        "| experiment | status | rounds | messages |",
        "|---|---|---|---|",
    ]
    for r in results:
        lines.append(
            f"| `{r.file}::{r.name}` | {r.status} "
            f"| {r.rounds if r.rounds is not None else '-'} "
            f"| {r.messages if r.messages is not None else '-'} |"
        )
    lines.append("")
    for r in results:
        lines.append(f"## {r.file}::{r.name}")
        lines.append("")
        if r.status != "ok":
            lines.append("**FAILED**")
            lines.append("")
            lines.append("```")
            lines.append((r.error or "unknown error").rstrip())
            lines.append("```")
            lines.append("")
            continue
        for table in r.tables:
            lines.append(f"### {table.title}")
            lines.append("")
            lines.append(table.render_markdown())
            lines.append("")
    return "\n".join(lines)


def check_against_baseline(
    results: Sequence[ExperimentResult],
    baseline_path: Path,
    report: Callable[[str], None] = print,
    only: Optional[str] = None,
) -> List[str]:
    """Compare ledger rounds/messages against a baseline BENCH json.

    Returns a list of human-readable problems (empty = parity).
    Experiments absent from the baseline (newly added benchmarks) are
    noted and skipped; experiments present in the baseline but missing
    from this run are failures (a silently dropped benchmark would
    otherwise shrink the gate's coverage).  ``only`` mirrors the sweep's
    file filter: baseline experiments outside it are out of scope, not
    missing.
    """
    baseline = json.loads(baseline_path.read_text())
    base_map = {
        (e["file"], e["name"]): e for e in baseline.get("experiments", [])
        if only_matches(only, e["file"])
    }
    problems: List[str] = []
    seen = set()
    for r in results:
        key = (r.file, r.name)
        seen.add(key)
        base = base_map.get(key)
        if base is None:
            report(f"[check] new experiment (not in baseline): {r.file}::{r.name}")
            continue
        if r.status != "ok":
            problems.append(f"{r.file}::{r.name} failed (baseline has it ok)")
            continue
        if (r.rounds, r.messages) != (base["rounds"], base["messages"]):
            problems.append(
                f"{r.file}::{r.name} ledger drift: rounds/messages "
                f"{base['rounds']}/{base['messages']} -> {r.rounds}/{r.messages}"
            )
    for key in base_map:
        if key not in seen:
            problems.append(f"{key[0]}::{key[1]} missing from this run")
    return problems


def default_bench_dir() -> Path:
    """``benchmarks/`` under the repo root (next to ``src/``), else cwd."""
    here = Path(__file__).resolve()
    for ancestor in here.parents:
        candidate = ancestor / "benchmarks"
        if candidate.is_dir():
            return candidate
    return Path.cwd() / "benchmarks"


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.runner",
        description="Run all benchmarks headlessly; write BENCH json and "
        "regenerate EXPERIMENTS.md.",
    )
    parser.add_argument(
        "--bench-dir", type=Path, default=None,
        help="directory holding bench_*.py (default: autodetected)",
    )
    parser.add_argument(
        "--out", type=Path, default=Path("BENCH.json"),
        help="output JSON path (default: BENCH.json in cwd)",
    )
    parser.add_argument(
        "--experiments-md", type=Path, default=None,
        help="path of the regenerated EXPERIMENTS.md (default: "
        "EXPERIMENTS.md in cwd)",
    )
    parser.add_argument(
        "--no-experiments", action="store_true",
        help="skip regenerating EXPERIMENTS.md",
    )
    parser.add_argument(
        "--only", default=None,
        help="run only matching bench files: a shell glob when the value "
        "contains *?[ (e.g. 'bench_cor1*'), else a name substring; "
        "implies --no-experiments (the document is a full sweep's)",
    )
    parser.add_argument(
        "--verbose", action="store_true",
        help="let the benchmarks' table printouts through to stdout",
    )
    parser.add_argument(
        "--jobs", default="1", metavar="N",
        help="run bench files in N worker processes ('auto' = cpu count)",
    )
    parser.add_argument(
        "--check-against", type=Path, default=None, metavar="BASELINE",
        help="compare ledger rounds/messages against a baseline BENCH json "
        "and exit non-zero on any drift",
    )
    parser.add_argument(
        "--trace", type=Path, default=None, metavar="DIR",
        help="record one Chrome/Perfetto trace per experiment into DIR "
        "(read one with 'python -m repro.obs explain'); the reports are "
        "the same with or without it",
    )
    args = parser.parse_args(argv)

    bench_dir = args.bench_dir or default_bench_dir()
    if not bench_dir.is_dir():
        print(f"error: benchmark directory not found: {bench_dir}", file=sys.stderr)
        return 2
    if args.only and args.experiments_md is not None:
        print("note: --only implies --no-experiments; not writing "
              f"{args.experiments_md}", file=sys.stderr)
    experiments_md = (
        None if args.no_experiments or args.only
        else args.experiments_md or Path("EXPERIMENTS.md")
    )

    jobs = resolve_jobs(args.jobs)
    if args.trace is not None:
        args.trace.mkdir(parents=True, exist_ok=True)
    results = run_all(
        bench_dir,
        only=args.only,
        quiet=not args.verbose,
        progress=lambda label: print(f"[bench] {label}", flush=True),
        jobs=jobs,
        trace_dir=args.trace,
    )
    if not results:
        print(
            f"warning: no benchmarks matched "
            f"(dir={bench_dir}{', only=' + args.only if args.only else ''})",
            file=sys.stderr,
        )
    report = results_to_json(results)
    args.out.write_text(json.dumps(report, indent=1, default=str) + "\n")
    print(f"[bench] wrote {args.out} "
          f"({report['totals']['ok']}/{report['totals']['experiments']} ok)")

    if args.trace is not None:
        traces = sorted(args.trace.glob("*.trace.json"))
        print(f"[bench] wrote {len(traces)} trace(s) to {args.trace}")

    if experiments_md is not None:
        experiments_md.write_text(render_experiments_md(results) + "\n")
        print(f"[bench] wrote {experiments_md}")

    if args.check_against is not None:
        if not args.check_against.is_file():
            print(f"error: baseline not found: {args.check_against}",
                  file=sys.stderr)
            return 2
        problems = check_against_baseline(
            results, args.check_against, only=args.only
        )
        if problems:
            print(f"[check] LEDGER DRIFT vs {args.check_against}:",
                  file=sys.stderr)
            for problem in problems:
                print(f"[check]   {problem}", file=sys.stderr)
            return 3
        print(f"[check] ledger parity with {args.check_against}: "
              f"all rounds/messages identical")

    return 0 if report["totals"]["errors"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
