"""The tracing API: spans, instant events and counters, off by default.

Every hook point in the engines and the runtime goes through the tracer
installed with :func:`use_tracer`.  The default is the module-level
:data:`NULL_TRACER`, whose ``enabled`` flag is ``False`` — hook points check that one attribute and skip all event
construction, so the disabled path costs a handful of branches per
*phase* (never per message) and the ledgers are bit-for-bit identical
with tracing on, off, or absent (``benchmarks/bench_obs.py`` gates the
ledger identity; the CI ``--check-against`` gate pins the disabled path
against the committed baseline).

Event model (a subset of the Chrome trace event format, so traces open
directly in Perfetto / ``chrome://tracing``):

``ph == "X"`` (complete span)
    A named duration with ``ts``/``dur`` in microseconds of wall time
    and model-side quantities in ``args``.  Engine phases, session
    prepares and recovery attempts are spans.
``ph == "i"`` (instant)
    A point event: ledger charges (``cat == "ledger"``), timer-wheel
    fast-forward jumps, fault injections.
``ph == "C"`` (counter)
    A numeric sample series: the per-tick message/bit/activation
    counters emitted inside the engine run loops.

The ``cat`` field is the schema discriminator (see
docs/architecture.md, "Observability"):

* ``"ledger"`` — one instant per :class:`~repro.congest.ledger.PhaseStats`
  *first charged* to a :class:`~repro.congest.ledger.CostLedger`
  (re-attributions via ``merge``/``record`` are never re-emitted, so
  summing ledger events never double counts).  ``args`` carries
  ``stream`` (``"main"``, ``"async_overhead"``, ``"recovery"``) plus
  ``rounds``/``messages``/``ticks``/``bits``.
* ``"engine.phase"`` — one span per engine phase run (scalar, array or
  async loop), wall-timed, with the phase's ledger quantities and
  implementation in ``args``.
* ``"engine.tick"`` — per-tick counters (messages delivered, payload
  bits, activations) while a phase runs.
* ``"engine.ff"`` — timer-wheel fast-forward jumps (the two synchronous
  engines).
* ``"fault"`` — fault-plan injections observed by the async engine.
* ``"session"`` / ``"recovery"`` — runtime-layer spans and instants.

Wall timestamps are hardware facts: :mod:`repro.obs.report` diffs only
the deterministic model-side quantities, never ``ts``/``dur``.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional


class NullTracer:
    """The default tracer: every hook is a no-op.

    ``enabled`` is ``False``; hook points are required to check it before
    building any event payload, which is what makes the disabled path
    near-zero cost.  The methods still exist (and do nothing) so code
    that holds a tracer unconditionally cannot crash.
    """

    enabled = False

    def now_us(self) -> int:
        return 0

    def instant(self, name: str, cat: str, args: Optional[Dict] = None) -> None:
        pass

    def counter(self, name: str, values: Dict[str, int]) -> None:
        pass

    def complete(
        self, name: str, cat: str, start_us: int, args: Optional[Dict] = None
    ) -> None:
        pass

    def ledger(self, stream: str, stats) -> None:
        pass

    @contextmanager
    def span(
        self, name: str, cat: str, args: Optional[Dict] = None
    ) -> Iterator[Dict]:
        yield {}


class Tracer(NullTracer):
    """An in-memory recording tracer.

    Events accumulate as Chrome-trace dicts in :attr:`events`; export
    with :meth:`write_chrome` (one ``{"traceEvents": [...]}`` JSON file,
    loadable in Perfetto).  ``clock`` is injectable so tests can pin
    timestamps; model-side quantities never come from the clock.
    """

    enabled = True

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.events: List[Dict] = []
        self._clock = clock
        self._t0 = clock()

    # -- primitive emitters --------------------------------------------
    def now_us(self) -> int:
        return int((self._clock() - self._t0) * 1_000_000)

    def instant(self, name: str, cat: str, args: Optional[Dict] = None) -> None:
        self.events.append(
            {
                "ph": "i",
                "name": name,
                "cat": cat,
                "ts": self.now_us(),
                "pid": 0,
                "tid": 0,
                "s": "g",
                "args": args or {},
            }
        )

    def counter(self, name: str, values: Dict[str, int]) -> None:
        self.events.append(
            {
                "ph": "C",
                "name": name,
                "cat": "engine.tick",
                "ts": self.now_us(),
                "pid": 0,
                "tid": 0,
                "args": values,
            }
        )

    def complete(
        self, name: str, cat: str, start_us: int, args: Optional[Dict] = None
    ) -> None:
        now = self.now_us()
        self.events.append(
            {
                "ph": "X",
                "name": name,
                "cat": cat,
                "ts": start_us,
                "dur": max(0, now - start_us),
                "pid": 0,
                "tid": 0,
                "args": args or {},
            }
        )

    def ledger(self, stream: str, stats) -> None:
        """One instant per PhaseStats first charged to a ledger."""
        self.instant(
            stats.name,
            "ledger",
            {
                "stream": stream,
                "rounds": stats.rounds,
                "messages": stats.messages,
                "ticks": stats.ticks,
                "bits": stats.bits,
            },
        )

    @contextmanager
    def span(
        self, name: str, cat: str, args: Optional[Dict] = None
    ) -> Iterator[Dict]:
        """Wall-timed span; mutate the yielded dict to attach results."""
        out: Dict = dict(args or {})
        start = self.now_us()
        try:
            yield out
        finally:
            self.complete(name, cat, start, out)

    # -- selectors ------------------------------------------------------
    def ledger_events(self, stream: Optional[str] = None) -> List[Dict]:
        """The ``cat == "ledger"`` events (optionally one stream's)."""
        return [
            e
            for e in self.events
            if e["cat"] == "ledger"
            and (stream is None or e["args"]["stream"] == stream)
        ]

    # -- exporters ------------------------------------------------------
    def to_chrome(self) -> Dict:
        return {
            "traceEvents": self.events,
            "displayTimeUnit": "ms",
            "otherData": {"schema": "repro-obs/1"},
        }

    def write_chrome(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_chrome(), fh, indent=None, separators=(",", ":"))
            fh.write("\n")


#: The process-wide default tracer (disabled).  Hook points must check
#: ``.enabled`` before doing any per-event work.
NULL_TRACER = NullTracer()

_CURRENT: NullTracer = NULL_TRACER


def current_tracer() -> NullTracer:
    """The tracer hook points report to (the NullTracer unless installed)."""
    return _CURRENT


@contextmanager
def use_tracer(tracer: NullTracer) -> Iterator[NullTracer]:
    """Scoped installation: hooks report to ``tracer`` inside the block."""
    global _CURRENT
    previous, _CURRENT = _CURRENT, tracer
    try:
        yield tracer
    finally:
        _CURRENT = previous
