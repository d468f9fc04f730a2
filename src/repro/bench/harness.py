"""Benchmark harness helpers.

Wall time is a property of the simulator, not of the algorithms; the
quantities the paper is about are *rounds* and *messages*, and they are
all this layer carries (``benchmarks/perf`` owns the clock).  Each
benchmark runs its workload once through ``run_once``, stores the
distributed metrics in ``benchmark.extra_info``, and emits the
table/series rows the experiment reproduces via :func:`print_table`.

``print_table`` both prints (so ``pytest -s`` still shows the tables) and
registers a structured :class:`Table` in a module-level registry.  The
headless runner (:mod:`repro.bench.runner`) drains that registry after each
experiment and regenerates ``EXPERIMENTS.md`` from the structured rows —
the numbers flow from the ledgers to the document without a stdout-capture
step in between.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Sequence, Tuple


@dataclass
class Table:
    """One experiment table: a title, a header row, and stringified rows."""

    title: str
    headers: Tuple[str, ...]
    rows: List[Tuple[str, ...]] = field(default_factory=list)

    def render(self) -> str:
        """Aligned plain-text rendering (what ``pytest -s`` shows)."""
        widths = [len(h) for h in self.headers]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        line = "  ".join(h.ljust(widths[i]) for i, h in enumerate(self.headers))
        out = [f"\n== {self.title} ==", line, "-" * len(line)]
        for row in self.rows:
            out.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
        return "\n".join(out)

    def render_markdown(self) -> str:
        """GitHub-flavored markdown rendering (for EXPERIMENTS.md)."""
        out = [
            "| " + " | ".join(self.headers) + " |",
            "|" + "|".join("---" for _ in self.headers) + "|",
        ]
        for row in self.rows:
            out.append("| " + " | ".join(row) + " |")
        return "\n".join(out)


#: Tables registered by :func:`print_table` since the last drain.
_TABLES: List[Table] = []


def drain_tables() -> List[Table]:
    """Return and clear the tables registered since the last drain."""
    global _TABLES
    drained, _TABLES = _TABLES, []
    return drained


def print_table(title: str, headers: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Print an aligned table under a title banner and register it.

    The printout keeps ``pytest -s`` output readable; the registered
    :class:`Table` is what the headless runner uses to regenerate
    EXPERIMENTS.md.
    """
    table = Table(
        title=title,
        headers=tuple(str(h) for h in headers),
        rows=[tuple(str(cell) for cell in row) for row in rows],
    )
    _TABLES.append(table)
    print(table.render())


def record(benchmark, **metrics) -> None:
    """Stash distributed metrics in the benchmark report.

    By convention every benchmark records at least ``rounds`` and
    ``messages`` for its headline workload — the runner lifts those two
    into the top level of the BENCH json record.
    """
    for key, value in metrics.items():
        benchmark.extra_info[key] = value


def run_once(benchmark, fn: Callable[[], object]) -> object:
    """Run ``fn`` exactly once through the fixture; return its result."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


def fmt_ratio(value: float) -> str:
    return f"{value:.2f}"
