"""Unit tests for the event/span emitter (`repro.obs.events`)."""

from repro.core.config import FAST_VERIFIER_BOUNDS
from repro.core.predicate import Predicate
from repro.core.stats import InferenceStats
from repro.inductive.relation import ConditionalInductivenessChecker
from repro.obs.events import (
    NULL_EMITTER,
    SCHEMA_VERSION,
    CountingClock,
    Emitter,
    NullEmitter,
)
from repro.obs.sinks import InMemorySink
from repro.verify.result import Valid
from repro.verify.tester import Verifier


def traced_emitter():
    sink = InMemorySink()
    emitter = Emitter(sinks=[sink], run="bench/mode", clock=CountingClock())
    return emitter, sink


def test_counting_clock_is_deterministic():
    clock = CountingClock()
    assert [clock(), clock(), clock()] == [1, 2, 3]
    assert CountingClock(start=10)() == 11


def test_emit_builds_versioned_records_with_increasing_seq():
    emitter, sink = traced_emitter()
    emitter.emit("alpha", {"x": 1}, cat="cache")
    emitter.emit("beta")

    first, second = sink.records
    assert first["v"] == SCHEMA_VERSION
    assert first["run"] == "bench/mode"
    assert first["kind"] == "event"
    assert first["cat"] == "cache"
    assert first["name"] == "alpha"
    assert first["data"] == {"x": 1}
    assert first["span"] is None
    # Empty payloads are omitted, not serialized as {}.
    assert "data" not in second
    assert [r["seq"] for r in sink.records] == [1, 2]
    # The CountingClock re-bases to the emitter's creation tick.
    assert [r["ts"] for r in sink.records] == [1, 2]


def test_spans_nest_and_time():
    emitter, sink = traced_emitter()
    with emitter.span("outer"):
        emitter.emit("inside")
        with emitter.span("inner", {"depth": 2}):
            pass

    kinds = [(r["kind"], r["name"]) for r in sink.records]
    assert kinds == [
        ("span-start", "outer"),
        ("event", "inside"),
        ("span-start", "inner"),
        ("span-end", "inner"),
        ("span-end", "outer"),
    ]
    outer_start, inside, inner_start, inner_end, outer_end = sink.records
    # The start record's `span` is the *parent*; the id its own.
    assert outer_start["span"] is None and outer_start["id"] == 1
    assert inside["span"] == 1
    assert inner_start["span"] == 1 and inner_start["id"] == 2
    assert inner_start["data"] == {"depth": 2}
    assert inner_end["id"] == 2 and outer_end["id"] == 1
    assert inner_end["dur"] == inner_end["ts"] - inner_start["ts"]
    assert outer_end["dur"] == outer_end["ts"] - outer_start["ts"]


def test_mismatched_span_close_is_tolerated():
    emitter, sink = traced_emitter()
    outer = emitter.span("outer")
    emitter.span("inner")
    # Closing the outer span while the inner is still open (an exception
    # unwinding several frames) must not corrupt the stack.
    outer.__exit__(None, None, None)
    emitter.emit("after")
    assert sink.records[-1]["span"] is None


def test_null_emitter_is_disabled_and_inert():
    assert NULL_EMITTER.enabled is False
    assert NULL_EMITTER.emit("anything", {"x": 1}) is None
    with NULL_EMITTER.span("anything"):
        pass
    # The no-op span is shared, not allocated per call.
    assert NULL_EMITTER.span("a") is NULL_EMITTER.span("b")


def test_disabled_tracing_makes_no_per_value_emitter_calls(monkeypatch, listset_instance,
                                                          listset_definition):
    """Zero-cost-when-off, as an exact count: with the default disabled
    emitter, a sufficiency check plus a full inductiveness check call the
    emitter the same number of times however many structures they test, so
    no emitter call sits on a per-value path."""
    calls = {"emit": 0, "span": 0}

    def counted(name):
        original = getattr(NullEmitter, name)

        def wrapper(self, *args, **kwargs):
            calls[name] += 1
            return original(self, *args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(NullEmitter, name, counted(name))

    invariant = Predicate.from_source(listset_definition.expected_invariant,
                                      listset_instance.program)

    def emitter_calls(bounds):
        calls.update(emit=0, span=0)
        stats = InferenceStats()
        verifier = Verifier(listset_instance, bounds=bounds, stats=stats)
        checker = ConditionalInductivenessChecker(listset_instance, bounds=bounds,
                                                  stats=stats)
        assert not verifier.emitter.enabled and not checker.emitter.enabled
        assert isinstance(verifier.check_sufficiency(invariant), Valid)
        assert isinstance(checker.check(invariant, invariant), Valid)
        return dict(calls), stats.structures_tested

    small_calls, small_work = emitter_calls(FAST_VERIFIER_BOUNDS.scaled(0.25))
    fast_calls, fast_work = emitter_calls(FAST_VERIFIER_BOUNDS)
    assert small_work < fast_work
    assert small_calls == fast_calls == {"emit": 0, "span": 1}
