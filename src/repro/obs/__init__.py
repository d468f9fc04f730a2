"""repro.obs — engine-wide tracing, metrics, and trace-driven profiling.

The observability substrate every engine and runtime layer emits into:

* :class:`Tracer` records spans, instant events and counters in the
  Chrome trace event format (open the files in Perfetto);
* the default :data:`NULL_TRACER` is installed process-wide, and every
  hook point checks its ``enabled`` flag before building any event —
  the zero-cost-when-off rule (ledgers are bit-for-bit identical with
  tracing on or off; gated by ``benchmarks/bench_obs.py`` and the CI
  baseline check);
* :func:`use_tracer` scopes a recording tracer over a workload; the
  bench runner's ``--trace DIR`` does this per experiment;
* :mod:`repro.obs.summary` profiles and diffs recorded traces —
  ``python -m repro.obs summarize TRACE`` / ``python -m repro.obs diff
  A B`` (the per-phase version of the bench runner's ledger gate);
* :mod:`repro.obs.explain` folds a trace's phases into families and
  holds them against the paper's envelopes — ``python -m repro.obs
  explain TRACE`` names the family that owns each slack.

See docs/architecture.md, "Observability", for the trace schema and the
hook-point inventory.
"""

from .explain import Explanation, explain, phase_family, render_explanation
from .summary import (
    PhaseTotals,
    TraceSummary,
    diff_summaries,
    load_trace,
    render_diff,
    render_summary,
    summarize,
    top_phases,
    top_wall,
)
from .tracer import (
    NULL_TRACER,
    NullTracer,
    Tracer,
    current_tracer,
    use_tracer,
)

__all__ = [
    "Explanation",
    "NULL_TRACER",
    "NullTracer",
    "PhaseTotals",
    "TraceSummary",
    "Tracer",
    "current_tracer",
    "diff_summaries",
    "explain",
    "load_trace",
    "phase_family",
    "render_diff",
    "render_explanation",
    "render_summary",
    "summarize",
    "top_phases",
    "top_wall",
    "use_tracer",
]
