"""Cost ledger accounting."""

from repro.congest import CostLedger, PhaseStats


def test_charge_accumulates():
    ledger = CostLedger()
    ledger.charge(PhaseStats("a", rounds=3, messages=10))
    ledger.charge(PhaseStats("b", rounds=2, messages=5))
    assert ledger.rounds == 5
    assert ledger.messages == 15
    assert len(ledger.phases()) == 2


def test_charge_local():
    ledger = CostLedger()
    ledger.charge_local("exchange", rounds=1, messages=42)
    assert ledger.rounds == 1
    assert ledger.messages == 42


def test_merge_with_prefix():
    inner = CostLedger()
    inner.charge(PhaseStats("wave", rounds=7, messages=70))
    outer = CostLedger()
    outer.merge(inner, prefix="setup:")
    assert outer.rounds == 7
    assert outer.phases()[0].name == "setup:wave"


def test_by_name_aggregates_repeated_phases():
    ledger = CostLedger()
    ledger.charge(PhaseStats("wave", rounds=3, messages=10))
    ledger.charge(PhaseStats("wave", rounds=4, messages=20))
    grouped = ledger.by_name()
    assert grouped["wave"].rounds == 7
    assert grouped["wave"].messages == 30


def test_merge_prefix_collision_keeps_both_phase_logs():
    # ``setup:wave`` charged directly and ``wave`` merged under the same
    # prefix must stay distinct log entries but aggregate under one name.
    outer = CostLedger()
    outer.charge(PhaseStats("setup:wave", rounds=1, messages=2))
    inner = CostLedger()
    inner.charge(PhaseStats("wave", rounds=7, messages=70))
    outer.merge(inner, prefix="setup:")
    assert [p.name for p in outer.phases()] == ["setup:wave", "setup:wave"]
    assert outer.rounds == 8
    assert outer.messages == 72
    assert outer.by_name()["setup:wave"].rounds == 8


def test_merge_twice_double_counts_by_design():
    # merge() is additive re-attribution; callers own idempotence.
    inner = CostLedger()
    inner.charge(PhaseStats("wave", rounds=3, messages=5))
    outer = CostLedger()
    outer.merge(inner)
    outer.merge(inner)
    assert outer.rounds == 6
    assert len(outer.phases()) == 2


def test_merge_carries_ticks_and_bits():
    inner = CostLedger()
    inner.charge(PhaseStats("wave", rounds=3, messages=5, ticks=4, bits=40))
    outer = CostLedger()
    outer.merge(inner, prefix="sub:")
    assert outer.phases() == (
        PhaseStats("sub:wave", rounds=3, messages=5, ticks=4, bits=40),
    )


def test_record_skips_trace_emission_but_counts():
    from repro.obs import Tracer, use_tracer

    ledger = CostLedger()
    tracer = Tracer()
    with use_tracer(tracer):
        ledger.record(PhaseStats("silent", rounds=1, messages=2))
        ledger.charge(PhaseStats("loud", rounds=3, messages=4))
    assert (ledger.rounds, ledger.messages) == (4, 6)
    assert [e["name"] for e in tracer.ledger_events()] == ["loud"]


def test_repr_is_stable_and_informative():
    ledger = CostLedger()
    assert repr(ledger) == "CostLedger(stream='main', phases=0, rounds=0, messages=0)"
    ledger.charge(PhaseStats("x", rounds=1, messages=2))
    assert repr(ledger) == "CostLedger(stream='main', phases=1, rounds=1, messages=2)"
    assert (
        repr(CostLedger(stream="recovery"))
        == "CostLedger(stream='recovery', phases=0, rounds=0, messages=0)"
    )
