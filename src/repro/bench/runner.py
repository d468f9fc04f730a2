"""Headless benchmark runner: every ``benchmarks/bench_*.py`` without pytest.

The benchmark files are written as pytest tests taking a ``benchmark``
fixture, but nothing they need is pytest-specific: the fixture surface they
use is ``benchmark.pedantic(fn, rounds, iterations)`` and
``benchmark.extra_info``.  :class:`HeadlessBenchmark` provides exactly
that, so the runner can import each bench module and call its ``test_*``
functions directly — no test session, no capture plugins, no report files.

Outputs:

* ``BENCH_<date>.json`` — machine-readable per-experiment results: wall
  time, the ledger-derived ``rounds`` / ``messages`` headline metrics, all
  recorded extra metrics, and the structured experiment tables.  This file
  is the perf baseline PRs are compared against.
* ``EXPERIMENTS.md`` — regenerated from the structured tables registered
  through :func:`repro.bench.harness.print_table` (ledger data, not
  captured stdout).

Parallel sweeps: ``--jobs N`` (or ``--jobs auto``) fans the bench *files*
out over a process pool — each worker imports one file and runs its
experiments in isolation, so module-level state cannot leak between
files.  The merged report is deterministic regardless of completion
order: experiments are always emitted sorted by file name, in definition
order within a file (identical to the serial sweep).  Wall times remain
per-experiment measurements inside the worker; only scheduling changes.

``--only`` filters the sweep to matching bench files: shell-glob
matching when the value contains a metacharacter (``--only
'bench_cor1*'``), plain substring otherwise (``--only scaling``).

Regression gate: ``--check-against BASELINE.json`` compares every
experiment's ledger ``rounds`` / ``messages`` against the baseline and
exits non-zero on any difference.  Wall times are never gated — they are
hardware facts, not model facts; the ledger is the correctness contract
(docs/architecture.md).

Usage::

    PYTHONPATH=src python -m repro.bench.runner --out BENCH_ci.json
    PYTHONPATH=src python -m repro.bench.runner --only theorem12 --no-experiments
    PYTHONPATH=src python -m repro.bench.runner --jobs auto --check-against BENCH_pr10.json
"""

from __future__ import annotations

import argparse
import fnmatch
import importlib.util
import inspect
import io
import json
import os
import sys
import time
import traceback
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from datetime import date, datetime, timezone
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..procpool import resolve_workers
from .harness import Table, drain_tables


class HeadlessBenchmark:
    """Duck-typed stand-in for the pytest-benchmark fixture.

    Supports the two entry points the harness uses (``pedantic`` and the
    callable protocol) and records wall time of the measured function.
    """

    def __init__(self) -> None:
        self.extra_info: Dict[str, object] = {}
        self.wall_seconds: Optional[float] = None

    def pedantic(
        self,
        fn: Callable[..., object],
        args: Sequence = (),
        kwargs: Optional[Dict] = None,
        rounds: int = 1,
        iterations: int = 1,
        **_ignored,
    ) -> object:
        kwargs = kwargs or {}
        result = None
        start = time.perf_counter()
        for _ in range(max(1, rounds) * max(1, iterations)):
            result = fn(*args, **kwargs)
        self.wall_seconds = time.perf_counter() - start
        return result

    def __call__(self, fn: Callable[..., object], *args, **kwargs) -> object:
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        self.wall_seconds = time.perf_counter() - start
        return result


@dataclass
class ExperimentResult:
    """Outcome of one benchmark function run headlessly."""

    file: str
    name: str
    status: str  # "ok" | "error"
    wall_seconds: Optional[float]
    rounds: Optional[int]
    messages: Optional[int]
    metrics: Dict[str, object]
    tables: List[Table]
    error: Optional[str] = None

    #: Sharded-backend scaling fields promoted to the record's top level
    #: (schema repro-bench/2) when the experiment reports them.
    _SHARD_FIELDS = ("workers", "shard_wall_seconds", "shard_merge_seconds")

    def to_json(self) -> Dict[str, object]:
        return {
            "file": self.file,
            "name": self.name,
            "status": self.status,
            "wall_seconds": self.wall_seconds,
            "rounds": self.rounds,
            "messages": self.messages,
            **{
                key: self.metrics[key]
                for key in self._SHARD_FIELDS
                if key in self.metrics
            },
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
    open in Perfetto, or profile with ``python -m repro.obs summarize``).
    Tracing never changes ledgers (the zero-cost-when-off contract runs
    the other way too: hooks only *observe*), so traced sweeps stay
    baseline-comparable.
    """
    benchmark = HeadlessBenchmark()
    parameters = inspect.signature(fn).parameters
    if "benchmark" not in parameters:
        # Report instead of raising so one odd test_ function cannot kill
        # the whole sweep (mirrors the import-error path).
        return ExperimentResult(
            file=path.name, name=fn.__name__, status="error",
            wall_seconds=None, rounds=None, messages=None, metrics={},
            tables=[],
            error=f"{path.name}::{fn.__name__} does not take a "
                  f"'benchmark' fixture",
        )
    drain_tables()  # drop anything a previous failure left behind
    error = None
    status = "ok"
    sink = io.StringIO()
    tracer = None
    if trace_dir is not None:
        from ..obs import Tracer, use_tracer

        tracer = Tracer()
    try:
        if tracer is not None:
            with use_tracer(tracer):
                if quiet:
                    with redirect_stdout(sink):
                        fn(benchmark=benchmark)
                else:
                    fn(benchmark=benchmark)
        elif quiet:
            with redirect_stdout(sink):
                fn(benchmark=benchmark)
        else:
            fn(benchmark=benchmark)
    except Exception:  # noqa: BLE001 - report, don't crash the sweep
        status = "error"
        error = traceback.format_exc()
    if tracer is not None:
        trace_dir.mkdir(parents=True, exist_ok=True)
        tracer.write_chrome(trace_dir / f"{path.stem}__{fn.__name__}.trace.json")
    tables = drain_tables()
    metrics = dict(benchmark.extra_info)
    return ExperimentResult(
        file=path.name,
        name=fn.__name__,
        status=status,
        wall_seconds=benchmark.wall_seconds,
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
        return [
            ExperimentResult(
                file=path.name, name="<import>", status="error",
                wall_seconds=None, rounds=None, messages=None,
                metrics={}, tables=[], error=traceback.format_exc(),
            )
        ]
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
        # /2 adds the promoted sharded-scaling fields (workers,
        # shard_wall_seconds, shard_merge_seconds) on experiment records;
        # /1 baselines still load — the drift gate reads only
        # rounds/messages.
        "schema": "repro-bench/2",
        "generated": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "python": sys.version.split()[0],
        "experiments": [r.to_json() for r in results],
        "totals": {
            "experiments": len(results),
            "ok": len(ok),
            "errors": len(results) - len(ok),
            "wall_seconds": sum(r.wall_seconds or 0.0 for r in results),
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
        f"Last run: {datetime.now(timezone.utc).isoformat(timespec='seconds')}",
        "",
        "| experiment | status | wall (s) | rounds | messages |",
        "|---|---|---|---|---|",
    ]
    for r in results:
        wall = f"{r.wall_seconds:.3f}" if r.wall_seconds is not None else "-"
        lines.append(
            f"| `{r.file}::{r.name}` | {r.status} | {wall} "
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


def render_hot_phase_md(trace_dir: Path, top: int = 12) -> str:
    """Markdown "hot phases" section aggregated from a sweep's traces.

    Reads every ``*.trace.json`` a ``--trace`` sweep wrote and ranks the
    main-stream phases by ledger rounds, with messages/bits/wall beside
    them — the cross-experiment answer to "where do the rounds go?".
    Returns "" when the directory holds no traces.
    """
    from ..obs.summary import load_trace, summarize, top_phases

    paths = sorted(trace_dir.glob("*.trace.json"))
    events: List[Dict] = []
    for path in paths:
        events.extend(load_trace(path))
    if not events:
        return ""
    summary = summarize(events)
    rows = top_phases(summary, "rounds", top)
    if not rows:
        return ""
    lines = [
        "## Trace-derived hot phases",
        "",
        f"Top {len(rows)} phases by ledger rounds, aggregated over "
        f"{len(paths)} trace file(s) from this sweep (`--trace`; profile "
        "individual traces with `python -m repro.obs summarize`).",
        "",
        "| phase | charges | rounds | messages | bits | wall (ms) |",
        "|---|---|---|---|---|---|",
    ]
    for name, tot in rows:
        wall_ms = summary.wall_us.get(name, 0) / 1000
        lines.append(
            f"| `{name}` | {tot.count} | {tot.rounds} | {tot.messages} "
            f"| {tot.bits} | {wall_ms:.3f} |"
        )
    lines.append("")
    return "\n".join(lines)


def check_against_baseline(
    results: Sequence[ExperimentResult],
    baseline_path: Path,
    report: Callable[[str], None] = print,
    only: Optional[str] = None,
) -> List[str]:
    """Compare ledger rounds/messages against a baseline BENCH json.

    Returns a list of human-readable problems (empty = parity).  Only the
    ledger quantities are compared — wall times are reported, never gated.
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
        "--out", type=Path, default=None,
        help="output JSON path (default: BENCH_<YYYYMMDD>.json in cwd)",
    )
    parser.add_argument(
        "--experiments-md", type=Path, default=Path("EXPERIMENTS.md"),
        help="path of the regenerated EXPERIMENTS.md",
    )
    parser.add_argument(
        "--no-experiments", action="store_true",
        help="skip regenerating EXPERIMENTS.md",
    )
    parser.add_argument(
        "--only", default=None,
        help="run only matching bench files: a shell glob when the value "
        "contains *?[ (e.g. 'bench_cor1*'), else a name substring",
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
        "and exit non-zero on any drift (wall times are never gated)",
    )
    parser.add_argument(
        "--trace", type=Path, default=None, metavar="DIR",
        help="record one Chrome/Perfetto trace per experiment into DIR "
        "(profile with 'python -m repro.obs summarize'); EXPERIMENTS.md "
        "gains a trace-derived hot-phase table",
    )
    args = parser.parse_args(argv)

    bench_dir = args.bench_dir or default_bench_dir()
    if not bench_dir.is_dir():
        print(f"error: benchmark directory not found: {bench_dir}", file=sys.stderr)
        return 2
    out_path = args.out or Path(f"BENCH_{date.today().strftime('%Y%m%d')}.json")

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
    out_path.write_text(json.dumps(report, indent=1, default=str) + "\n")
    print(f"[bench] wrote {out_path} "
          f"({report['totals']['ok']}/{report['totals']['experiments']} ok, "
          f"{report['totals']['wall_seconds']:.2f}s measured)")

    if args.trace is not None:
        traces = sorted(args.trace.glob("*.trace.json"))
        print(f"[bench] wrote {len(traces)} trace(s) to {args.trace}")

    if not args.no_experiments:
        md = render_experiments_md(results)
        if args.trace is not None:
            hot = render_hot_phase_md(args.trace)
            if hot:
                md += "\n" + hot
        args.experiments_md.write_text(md + "\n")
        print(f"[bench] wrote {args.experiments_md}")

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
