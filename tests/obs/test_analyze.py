"""Unit tests for the `repro trace` analyzer (`repro.obs.analyze`)."""

import json

from repro.cli import main
from repro.obs.analyze import (
    cache_tables,
    chrome_trace,
    phase_breakdown,
    slowest_spans,
    validate_trace,
)
from repro.obs.events import SCHEMA_VERSION, CountingClock, Emitter
from repro.obs.sinks import InMemorySink, JsonlTraceSink


def sample_trace(stats=None):
    """A small but structurally complete single-run trace."""
    sink = InMemorySink()
    emitter = Emitter(sinks=[sink], run="bench/hanoi", clock=CountingClock())
    emitter.emit("run-start", {"benchmark": "bench", "mode": "hanoi"}, cat="run")
    with emitter.span("run", cat="run"):
        with emitter.span("iteration", {"index": 1}):
            with emitter.span("synthesis"):
                emitter.emit("pool-built", {"entries": 4}, cat="cache")
            with emitter.span("sufficiency-check"):
                pass
        with emitter.span("iteration", {"index": 2}):
            with emitter.span("synthesis"):
                emitter.emit("pool-replay", {"entries": 4}, cat="cache")
    emitter.emit(
        "run-end",
        {"status": "success", "iterations": 2,
         "stats": stats if stats is not None else
         {"eval_cache_hits": 10, "eval_cache_misses": 2,
          "pool_cache_hits": 7, "pool_cache_misses": 1}},
        cat="run")
    return sink.records


def test_validate_accepts_well_formed_trace():
    assert validate_trace(sample_trace()) == []


def test_validate_flags_structural_problems():
    assert validate_trace([]) == ["trace contains no records"]

    records = [dict(r) for r in sample_trace()]
    records[0]["v"] = 99
    problems = validate_trace(records)
    assert any("schema version" in p for p in problems)

    records = [dict(r) for r in sample_trace()]
    records[3]["seq"] = 1  # duplicate of an earlier sequence number
    assert any("not increasing" in p for p in validate_trace(records))

    # Dropping a span-end leaves a dangling span.
    records = [r for r in sample_trace() if not (
        r["kind"] == "span-end" and r["name"] == "run")]
    assert any("never ended" in p for p in validate_trace(records))


def test_validate_exempts_stream_records_from_seq_checks():
    records = [dict(r) for r in sample_trace()]
    # Heartbeats carry their own counter and share the run label; they must
    # not trip the per-run monotonicity check.
    records.append({"v": SCHEMA_VERSION, "seq": 1, "ts": 0.0,
                    "run": "bench/hanoi", "kind": "event", "cat": "stream",
                    "name": "heartbeat", "span": None})
    assert validate_trace(records) == []


def test_validate_scopes_merged_parallel_traces_by_task_label():
    # Two workers' records interleave in the parent's trace file; the task
    # label stamped by the QueueSink is the ordering scope.
    merged = []
    for label in ("a/hanoi", "b/hanoi"):
        for record in sample_trace():
            tagged = dict(record)
            tagged["task"] = label
            merged.append(tagged)
    merged.sort(key=lambda r: r["seq"])  # fully interleave
    assert validate_trace(merged) == []


def test_phase_breakdown_aggregates_span_durations():
    rows = {row[0]: row for row in phase_breakdown(sample_trace())}
    assert rows["iteration"][1] == 2  # two iteration spans
    assert rows["synthesis"][1] == 2
    assert rows["sufficiency-check"][1] == 1
    # Longest total first; `run` encloses everything.
    assert phase_breakdown(sample_trace())[0][0] == "run"
    for name, count, total, mean, longest in rows.values():
        assert total >= longest >= mean > 0


def test_cache_tables_read_run_end_counters():
    by_layer = {row[1]: row for row in cache_tables(sample_trace())}
    assert by_layer["eval-cache"] == ["bench/hanoi", "eval-cache", 10, 2, "83.3%"]
    assert by_layer["pool-cache"][2:] == [7, 1, "87.5%"]
    # The sample's stats carry no synthesis-result counter: no row.
    assert "synthesis-result-cache" not in by_layer


def test_cache_tables_hits_only_layer_and_interrupted_run():
    rows = cache_tables(sample_trace(stats={"synthesis_cache_hits": 3,
                                            "eval_cache_hits": 0,
                                            "eval_cache_misses": 0}))
    by_layer = {row[1]: row for row in rows}
    assert by_layer["synthesis-result-cache"][2:] == [3, "-", "-"]
    assert by_layer["eval-cache"][2:] == [0, 0, "-"]
    # A run that never reached run-end has no counters, hence no rows.
    interrupted = [r for r in sample_trace() if r["name"] != "run-end"]
    assert cache_tables(interrupted) == []


def test_slowest_spans_orders_by_duration():
    rows = slowest_spans(sample_trace(), top=3)
    assert len(rows) == 3
    durations = [row[3] for row in rows]
    assert durations == sorted(durations, reverse=True)
    assert rows[0][1] == "run"


def test_chrome_trace_export_shape():
    payload = chrome_trace(sample_trace())
    events = payload["traceEvents"]
    assert payload["displayTimeUnit"] == "ms"

    metadata = [e for e in events if e["ph"] == "M"]
    assert [m["args"]["name"] for m in metadata] == ["bench/hanoi"]

    slices = [e for e in events if e["ph"] == "X"]
    assert {s["name"] for s in slices} == {
        "run", "iteration", "synthesis", "sufficiency-check"}
    first_iteration = next(s for s in slices
                           if s["name"] == "iteration" and s.get("args"))
    assert first_iteration["args"]["index"] in (1, 2)
    for s in slices:
        assert s["dur"] > 0 and s["ts"] >= 0

    instants = [e for e in events if e["ph"] == "i"]
    assert {i["name"] for i in instants} >= {"run-start", "run-end",
                                             "pool-built", "pool-replay"}
    # The whole export must be valid JSON.
    json.loads(json.dumps(payload))


def test_main_reports_and_exports(tmp_path, capsys):
    trace_path = tmp_path / "trace.jsonl"
    with JsonlTraceSink(str(trace_path)) as sink:
        for record in sample_trace():
            sink.handle(record)
    chrome_path = tmp_path / "chrome.json"

    assert main(["trace", str(trace_path), "--top", "3", "--chrome", str(chrome_path)]) == 0
    out = capsys.readouterr().out
    assert "Per-phase time breakdown" in out
    assert "Cache hit rates" in out
    assert "Slowest 3 span(s)" in out
    with open(chrome_path, encoding="utf-8") as handle:
        assert json.load(handle)["traceEvents"]
