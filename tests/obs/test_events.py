"""Unit tests for the event/span emitter (`repro.obs.events`)."""

from repro.obs.events import (
    NULL_EMITTER,
    SCHEMA_VERSION,
    CountingClock,
    Emitter,
)
from repro.obs.sinks import InMemorySink


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
