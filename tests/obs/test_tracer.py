"""Tracer API: event shapes, scoping, exporters, the disabled default."""

import json

import pytest

from repro.congest import PhaseStats
from repro.obs import (
    NULL_TRACER,
    NullTracer,
    Tracer,
    current_tracer,
    load_trace,
    use_tracer,
)


class FakeClock:
    """Deterministic injectable clock: advances 1 ms per reading."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 0.001
        return self.t


def test_default_is_the_disabled_null_tracer():
    tracer = current_tracer()
    assert tracer is NULL_TRACER
    assert tracer.enabled is False


def test_null_tracer_methods_are_no_ops():
    tracer = NullTracer()
    assert tracer.now_us() == 0
    tracer.instant("x", "fault")
    tracer.counter("x", {"messages": 1})
    tracer.complete("x", "engine.phase", 0)
    tracer.ledger("main", PhaseStats("p", rounds=1, messages=2))
    with tracer.span("x", "session") as args:
        args["k"] = 1  # the yielded dict is writable but goes nowhere
    # no events attribute, nothing recorded anywhere
    assert not hasattr(tracer, "events")


def test_use_tracer_scopes_and_restores():
    tracer = Tracer()
    assert current_tracer() is NULL_TRACER
    with use_tracer(tracer) as active:
        assert active is tracer
        assert current_tracer() is tracer
    assert current_tracer() is NULL_TRACER


def test_use_tracer_restores_on_exception():
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with use_tracer(tracer):
            raise RuntimeError("boom")
    assert current_tracer() is NULL_TRACER


def test_use_tracer_nests():
    outer, inner = Tracer(), Tracer()
    with use_tracer(outer):
        with use_tracer(inner):
            assert current_tracer() is inner
        assert current_tracer() is outer
    assert current_tracer() is NULL_TRACER


def test_instant_event_shape():
    tracer = Tracer(clock=FakeClock())
    tracer.instant("fast_forward", "engine.ff", {"skipped": 5})
    (event,) = tracer.events
    assert event["ph"] == "i"
    assert event["name"] == "fast_forward"
    assert event["cat"] == "engine.ff"
    assert event["args"] == {"skipped": 5}
    assert event["ts"] == 1000  # one 1 ms clock step after construction


def test_counter_event_shape():
    tracer = Tracer(clock=FakeClock())
    tracer.counter("phase", {"tick": 3, "messages": 7})
    (event,) = tracer.events
    assert event["ph"] == "C"
    assert event["cat"] == "engine.tick"
    assert event["args"] == {"tick": 3, "messages": 7}


def test_complete_event_duration_from_injected_clock():
    tracer = Tracer(clock=FakeClock())
    start = tracer.now_us()  # t = 1 ms
    tracer.complete("phase", "engine.phase", start, {"impl": "scalar"})
    (event,) = tracer.events
    assert event["ph"] == "X"
    assert event["ts"] == start
    assert event["dur"] == 1000  # exactly one more clock step
    assert event["args"] == {"impl": "scalar"}


def test_span_attaches_mutations_made_inside_the_block():
    tracer = Tracer(clock=FakeClock())
    with tracer.span("session.prepare", "session", {"outcome": "full"}) as args:
        args["rounds"] = 12
    (event,) = tracer.events
    assert event["ph"] == "X"
    assert event["args"] == {"outcome": "full", "rounds": 12}


def test_span_emits_even_when_the_body_raises():
    tracer = Tracer(clock=FakeClock())
    with pytest.raises(ValueError):
        with tracer.span("attempt", "recovery"):
            raise ValueError
    assert [e["name"] for e in tracer.events] == ["attempt"]


def test_ledger_event_carries_all_deterministic_quantities():
    tracer = Tracer(clock=FakeClock())
    tracer.ledger("main", PhaseStats("wave", rounds=3, messages=10, ticks=4, bits=80))
    (event,) = tracer.events
    assert event["cat"] == "ledger"
    assert event["name"] == "wave"
    assert event["args"] == {
        "stream": "main",
        "rounds": 3,
        "messages": 10,
        "ticks": 4,
        "bits": 80,
    }


def test_ledger_events_selector_filters_by_stream():
    tracer = Tracer()
    tracer.ledger("main", PhaseStats("a", rounds=1, messages=1))
    tracer.ledger("recovery", PhaseStats("b", rounds=2, messages=2))
    tracer.instant("not_a_ledger_event", "fault")
    assert [e["name"] for e in tracer.ledger_events()] == ["a", "b"]
    assert [e["name"] for e in tracer.ledger_events("main")] == ["a"]
    assert [e["name"] for e in tracer.ledger_events("recovery")] == ["b"]


def test_chrome_export_round_trips_through_load_trace(tmp_path):
    tracer = Tracer(clock=FakeClock())
    tracer.ledger("main", PhaseStats("wave", rounds=3, messages=10))
    tracer.instant("crash", "fault", {"node": 4})
    path = tmp_path / "run.trace.json"
    tracer.write_chrome(path)

    payload = json.loads(path.read_text())
    assert payload["otherData"]["schema"] == "repro-obs/1"
    assert load_trace(path) == tracer.events


def test_load_trace_rejects_json_without_trace_events(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{\"events\": []}")
    with pytest.raises(ValueError):
        load_trace(path)
