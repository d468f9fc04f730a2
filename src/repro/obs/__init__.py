"""repro.obs — engine-wide tracing and the one report of a trace.

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
* :mod:`repro.obs.report` folds a recorded trace once into a
  :class:`Report` — ``python -m repro.obs explain TRACE`` prints it (the
  phase families against the paper's envelopes, where the wall went,
  the degraded paths taken) and ``python -m repro.obs diff A B``
  compares two per phase (the per-phase version of the bench runner's
  ledger gate).

See docs/architecture.md, "Observability", for the trace schema and the
hook-point inventory.
"""

from .report import Report, diff, explain, load_trace, render, render_diff
from .tracer import NULL_TRACER, NullTracer, Tracer, current_tracer, use_tracer

__all__ = [
    "NULL_TRACER",
    "NullTracer",
    "Report",
    "Tracer",
    "current_tracer",
    "diff",
    "explain",
    "load_trace",
    "render",
    "render_diff",
    "use_tracer",
]
