"""The ``repro trace`` subcommand: make a JSONL trace legible.

Given a trace file written by the :class:`~repro.obs.sinks.JsonlTraceSink`
(``repro run --trace out.jsonl``, ``repro infer --trace ...``), this module
renders:

* a **per-phase time breakdown** - span durations aggregated by span name
  (synthesis, sufficiency-check, inductiveness checks, iterations), with
  call counts, totals, means, and maxima;
* **cache hit-rate tables** read from the final
  :class:`~repro.core.stats.InferenceStats` counters stamped on each
  ``run-end`` event;
* the **slowest spans** of the trace (``--top N``);
* a **Chrome trace-event export** (``--chrome out.json``) loadable in
  ``chrome://tracing`` or https://ui.perfetto.dev - each run becomes a
  process row, spans become complete ("X") slices, point events become
  instants.

Run as a module::

    python -m repro trace out.jsonl --chrome chrome.json
"""

from __future__ import annotations

import argparse
import json
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

from .events import SCHEMA_VERSION
from .sinks import read_trace

__all__ = [
    "phase_breakdown",
    "cache_tables",
    "slowest_spans",
    "chrome_trace",
    "validate_trace",
    "add_arguments",
    "run",
]

#: ``(layer, stats hit counter, stats miss counter)`` triples the cache
#: tables report; the synthesis result cache counts hits only.
CACHE_LAYERS: Tuple[Tuple[str, str, Optional[str]], ...] = (
    ("eval-cache", "eval_cache_hits", "eval_cache_misses"),
    ("pool-cache", "pool_cache_hits", "pool_cache_misses"),
    ("synthesis-result-cache", "synthesis_cache_hits", None),
)


def validate_trace(records: Sequence[dict]) -> List[str]:
    """Structural problems in a trace, as human-readable strings.

    Checks the schema version, per-run sequence monotonicity, and span
    start/end pairing.  An empty list means the trace is well-formed.
    """
    problems: List[str] = []
    if not records:
        problems.append("trace contains no records")
        return problems
    last_seq: Dict[str, int] = {}
    open_spans: Dict[Tuple[str, int], str] = {}
    for index, record in enumerate(records):
        where = f"record {index + 1}"
        version = record.get("v")
        if version != SCHEMA_VERSION:
            problems.append(f"{where}: schema version {version!r} (expected {SCHEMA_VERSION})")
            continue
        # In a merged parallel trace the worker's task label (stamped by the
        # QueueSink) is the ordering scope; plain single-process traces fall
        # back to the emitter's run label.
        run = str(record.get("task") or record.get("run"))
        seq = record.get("seq")
        if not isinstance(seq, int):
            problems.append(f"{where}: missing sequence number")
        elif record.get("cat") == "stream":
            # Runner-level records (heartbeats) carry their own counter and
            # share run labels with emitter records; they are outside any
            # emitter's ordered stream.
            pass
        else:
            if seq <= last_seq.get(run, 0):
                problems.append(f"{where}: sequence {seq} not increasing within run {run}")
            last_seq[run] = seq
        kind = record.get("kind")
        if kind == "span-start":
            open_spans[(run, record.get("id"))] = record.get("name")
        elif kind == "span-end":
            if open_spans.pop((run, record.get("id")), None) is None:
                problems.append(f"{where}: span-end without start "
                                f"(run {run}, id {record.get('id')})")
    for (run, span_id), name in open_spans.items():
        problems.append(f"span {name!r} (run {run}, id {span_id}) never ended "
                        f"(interrupted run?)")
    return problems


def phase_breakdown(records: Sequence[dict]) -> List[List[object]]:
    """``[phase, count, total, mean, max]`` rows, longest total first."""
    totals: Dict[str, List[float]] = OrderedDict()
    for record in records:
        if record.get("kind") != "span-end":
            continue
        name = record.get("name", "?")
        dur = float(record.get("dur", 0.0))
        totals.setdefault(name, []).append(dur)
    rows = []
    for name, durations in totals.items():
        total = sum(durations)
        rows.append([name, len(durations), round(total, 6),
                     round(total / len(durations), 6), round(max(durations), 6)])
    rows.sort(key=lambda row: -row[2])
    return rows


def _runs(records: Sequence[dict]) -> "OrderedDict[str, List[dict]]":
    by_run: "OrderedDict[str, List[dict]]" = OrderedDict()
    for record in records:
        by_run.setdefault(str(record.get("run"))
                          if record.get("run") is not None else "?", []).append(record)
    return by_run


def cache_tables(records: Sequence[dict]) -> List[List[object]]:
    """Per-run cache hit-rate rows, ``[run, layer, hits, misses, rate]``.

    The counts are the ``stats`` counters of each run's ``run-end`` event;
    a run without one (interrupted) has no rows, and a layer whose hit
    counter is absent is skipped.  Misses and rate are ``-`` for a layer
    that counts hits only.
    """
    rows: List[List[object]] = []
    for run, run_records in _runs(records).items():
        stats: Dict[str, object] = {}
        for record in run_records:
            if record.get("name") == "run-end" and record.get("kind") == "event":
                stats = (record.get("data") or {}).get("stats", {}) or {}
        for layer, hits_key, misses_key in CACHE_LAYERS:
            if hits_key not in stats:
                continue
            hits = int(stats[hits_key])
            if misses_key is None:
                rows.append([run, layer, hits, "-", "-"])
                continue
            misses = int(stats.get(misses_key, 0))
            lookups = hits + misses
            rows.append([run, layer, hits, misses,
                         f"{hits / lookups:.1%}" if lookups else "-"])
    return rows


def slowest_spans(records: Sequence[dict], top: int = 10) -> List[List[object]]:
    """``[run, span, ts, dur]`` rows for the ``top`` longest spans."""
    spans = [record for record in records if record.get("kind") == "span-end"]
    spans.sort(key=lambda record: -float(record.get("dur", 0.0)))
    # A span-end's ts is when the span *closed*; subtract dur for its start.
    return [[str(record.get("run")), record.get("name"),
             round(float(record.get("ts", 0.0)) - float(record.get("dur", 0.0)), 6),
             record.get("dur")]
            for record in spans[:top]]


def chrome_trace(records: Sequence[dict]) -> Dict[str, object]:
    """The trace as a Chrome trace-event JSON object (``chrome://tracing``).

    Each run becomes one process row (pid = run index, with a process_name
    metadata event); spans become complete ("X") slices and point events
    become instants ("i").  Timestamps are microseconds, as the format
    requires; a logical-clock trace simply renders each tick as 1us.
    """
    trace_events: List[dict] = []
    pids: Dict[str, int] = {}
    starts: Dict[Tuple[str, object], dict] = {}
    for record in records:
        run = str(record.get("run"))
        if run not in pids:
            pids[run] = len(pids) + 1
            trace_events.append({
                "name": "process_name", "ph": "M", "pid": pids[run], "tid": 0,
                "args": {"name": run},
            })
        pid = pids[run]
        ts_us = float(record.get("ts", 0.0)) * 1e6
        kind = record.get("kind")
        if kind == "span-start":
            starts[(run, record.get("id"))] = record
        elif kind == "span-end":
            start = starts.pop((run, record.get("id")), None)
            event = {
                "name": record.get("name"),
                "cat": record.get("cat", "phase"),
                "ph": "X",
                "pid": pid,
                "tid": 0,
                "ts": (float(start.get("ts", 0.0)) if start is not None
                       else float(record.get("ts", 0.0)) - float(record.get("dur", 0.0))) * 1e6,
                "dur": float(record.get("dur", 0.0)) * 1e6,
            }
            if start is not None and start.get("data"):
                event["args"] = start["data"]
            trace_events.append(event)
        else:
            event = {
                "name": record.get("name"),
                "cat": record.get("cat", "event"),
                "ph": "i",
                "s": "t",
                "pid": pid,
                "tid": 0,
                "ts": ts_us,
            }
            if record.get("data"):
                event["args"] = record["data"]
            trace_events.append(event)
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


# -- CLI ----------------------------------------------------------------------------


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """The arguments of the ``python -m repro trace`` subcommand."""
    parser.add_argument("trace", metavar="TRACE.jsonl",
                        help="JSONL trace written with --trace")
    parser.add_argument("--top", type=int, default=10, metavar="N",
                        help="slowest spans listed (default: 10)")
    parser.add_argument("--chrome", default=None, metavar="OUT.json",
                        help="also write a Chrome trace-event file "
                             "(chrome://tracing, Perfetto)")


def run(args: argparse.Namespace) -> int:
    from ..experiments.report import format_table

    try:
        records = read_trace(args.trace)
    except OSError as exc:
        raise SystemExit(f"cannot read trace: {exc}")

    problems = validate_trace(records)
    runs = _runs(records)
    print(f"{args.trace}: {len(records)} record(s), {len(runs)} run(s), "
          f"schema v{SCHEMA_VERSION}")
    # Interrupted runs leave dangling spans; report, then analyze what's there.
    for problem in problems:
        print(f"  warning: {problem}")

    rows = phase_breakdown(records)
    if rows:
        print("\nPer-phase time breakdown (span durations, emitter clock units):")
        print(format_table(["Phase", "Calls", "Total", "Mean", "Max"], rows))

    cache_rows = cache_tables(records)
    if cache_rows:
        print("\nCache hit rates (from the run-end stats counters):")
        print(format_table(["Run", "Layer", "Hits", "Misses", "Hit rate"], cache_rows))

    slow = slowest_spans(records, args.top)
    if slow:
        print(f"\nSlowest {len(slow)} span(s):")
        print(format_table(["Run", "Span", "Start", "Duration"], slow))

    if args.chrome:
        payload = chrome_trace(records)
        with open(args.chrome, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        print(f"\nwrote Chrome trace ({len(payload['traceEvents'])} event(s)) "
              f"to {args.chrome}; open in chrome://tracing or ui.perfetto.dev")

    return 0
