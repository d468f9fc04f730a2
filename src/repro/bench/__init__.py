"""Benchmark harness and headless runner.

``repro.bench.harness`` provides the table/metric helpers the benchmark
files use; ``repro.bench.runner`` (also a CLI: ``python -m
repro.bench.runner``) executes every ``benchmarks/bench_*.py``, writes
a machine-readable ``BENCH.json`` and regenerates ``EXPERIMENTS.md``
from the structured ledger-derived tables — model facts only, so both
regenerate byte for byte.
"""

from .harness import Table, drain_metrics, drain_tables, print_table, record

__all__ = [
    "Table",
    "drain_metrics",
    "drain_tables",
    "print_table",
    "record",
]
