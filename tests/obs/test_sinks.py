"""Unit tests for the trace sinks and the process-global registry."""

import io
import json
import queue

import pytest

from repro.obs.events import NULL_EMITTER, SCHEMA_VERSION, CountingClock, Emitter
from repro.obs.sinks import (
    InMemorySink,
    JsonlTraceSink,
    LiveRenderer,
    QueueSink,
    emitter_for_run,
    install_sink,
    installed_sinks,
    read_trace,
    reset_sinks,
    uninstall_sink,
)


@pytest.fixture(autouse=True)
def clean_registry():
    """Tests must not leak sinks into each other (or into inference tests)."""
    reset_sinks()
    yield
    reset_sinks()


def test_jsonl_sink_round_trips_and_tolerates_truncation(tmp_path):
    path = tmp_path / "sub" / "trace.jsonl"
    with JsonlTraceSink(str(path)) as sink:
        emitter = Emitter(sinks=[sink], run="b/m", clock=CountingClock())
        emitter.emit("alpha", {"x": 1})
        with emitter.span("phase"):
            pass

    records = read_trace(str(path))
    assert [r["name"] for r in records] == ["alpha", "phase", "phase"]
    assert all(r["v"] == SCHEMA_VERSION for r in records)

    # A run killed mid-append leaves a truncated final line; loading skips it.
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"v":1,"seq":99,"tr')
    assert len(read_trace(str(path))) == 3


def test_queue_sink_tags_records_with_task_label():
    transport = queue.Queue()
    sink = QueueSink(transport, task="bench/hanoi")
    original = {"v": SCHEMA_VERSION, "seq": 1, "name": "alpha"}
    sink.handle(original)
    forwarded = transport.get_nowait()
    assert forwarded["task"] == "bench/hanoi"
    # The shared record itself is never mutated.
    assert "task" not in original


def test_registry_install_uninstall_reset():
    assert installed_sinks() == []
    first = install_sink(InMemorySink())
    second = install_sink(InMemorySink())
    assert installed_sinks() == [first, second]
    # The returned list is a copy; mutating it changes nothing.
    installed_sinks().clear()
    assert installed_sinks() == [first, second]
    uninstall_sink(first)
    uninstall_sink(first)  # absent → no-op
    assert installed_sinks() == [second]
    reset_sinks()
    assert installed_sinks() == []


def test_emitter_for_run_null_without_sinks_live_with():
    assert emitter_for_run("b/m") is NULL_EMITTER
    sink = install_sink(InMemorySink())
    emitter = emitter_for_run("b/m")
    assert emitter.enabled
    emitter.emit("alpha")
    assert sink.records[0]["run"] == "b/m"


def test_live_renderer_prints_run_lines_and_heartbeats():
    out = io.StringIO()
    renderer = LiveRenderer(stream=out, min_interval=0.0)
    emitter = Emitter(sinks=[renderer], run="b/m", clock=CountingClock())
    emitter.emit("run-start", {"benchmark": "b", "mode": "m"}, cat="run")
    with emitter.span("iteration", {"index": 1}):
        emitter.emit("eval-cache", {"hits": 1, "misses": 0}, cat="cache")
    renderer.handle({"v": SCHEMA_VERSION, "seq": 1, "ts": 0, "run": "b/m",
                     "kind": "event", "cat": "stream", "name": "heartbeat",
                     "span": None, "task": "b/m"})
    emitter.emit("run-end", {"status": "success", "iterations": 4,
                             "stats": {}}, cat="run")

    lines = out.getvalue().splitlines()
    assert lines == [
        "  ~ b/m: started",
        "  ~ b/m: iteration #1",
        "  ~ b/m: still running (heartbeat)",
        "  ~ b/m: success after 4 iteration(s)",
    ]


def test_live_renderer_throttles_iteration_lines():
    out = io.StringIO()
    renderer = LiveRenderer(stream=out, min_interval=3600.0)
    emitter = Emitter(sinks=[renderer], run="b/m", clock=CountingClock())
    for index in range(5):
        with emitter.span("iteration", {"index": index}):
            pass
    assert out.getvalue().count("iteration") == 1


def test_jsonl_sink_records_are_compact_single_lines(tmp_path):
    path = tmp_path / "trace.jsonl"
    with JsonlTraceSink(str(path)) as sink:
        Emitter(sinks=[sink], run="b/m", clock=CountingClock()).emit(
            "alpha", {"x": [1, 2]})
    (line,) = path.read_text().splitlines()
    assert json.loads(line)["data"] == {"x": [1, 2]}
    assert ": " not in line and ", " not in line  # compact separators
