"""Benchmark harness helpers.

Wall time is a property of the simulator, not of the algorithms; the
quantities the paper is about are *rounds* and *messages*, and they are
all this layer carries (``benchmarks/perf`` owns the clock).  An
experiment is a plain function: it runs its workload, hands the
distributed metrics to :func:`record`, and emits the table/series rows
it reproduces via :func:`print_table`.

Both register into this module: ``print_table`` prints (``--verbose``
shows the tables) and keeps a structured :class:`Table`, ``record`` keeps
the metrics.  The runner (:mod:`repro.bench.runner`) drains both after
each experiment and regenerates ``EXPERIMENTS.md`` from the structured
rows — the numbers flow from the ledgers to the document without a
stdout-capture step in between.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Tuple


@dataclass
class Table:
    """One experiment table: a title, a header row, and stringified rows."""

    title: str
    headers: Tuple[str, ...]
    rows: List[Tuple[str, ...]] = field(default_factory=list)

    def render(self) -> str:
        """Aligned plain-text rendering (what ``--verbose`` shows)."""
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

#: Metrics registered by :func:`record` since the last drain.
_METRICS: Dict[str, object] = {}


def drain_tables() -> List[Table]:
    """Return and clear the tables registered since the last drain."""
    global _TABLES
    drained, _TABLES = _TABLES, []
    return drained


def drain_metrics() -> Dict[str, object]:
    """Return and clear the metrics registered since the last drain."""
    global _METRICS
    drained, _METRICS = _METRICS, {}
    return drained


def print_table(title: str, headers: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Print an aligned table under a title banner and register it.

    The registered :class:`Table` is what the runner uses to regenerate
    EXPERIMENTS.md.
    """
    table = Table(
        title=title,
        headers=tuple(str(h) for h in headers),
        rows=[tuple(str(cell) for cell in row) for row in rows],
    )
    _TABLES.append(table)
    print(table.render())


def record(**metrics) -> None:
    """Register distributed metrics for the experiment's report.

    By convention every experiment records at least ``rounds`` and
    ``messages`` for its headline workload — the runner lifts those two
    into the top level of the BENCH json record.
    """
    _METRICS.update(metrics)
