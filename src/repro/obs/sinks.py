"""Pluggable consumers of the tracing event stream.

A *sink* is any object with a ``handle(record: dict)`` method; an
:class:`~repro.obs.events.Emitter` fans every record out to its sinks in
order.  Sinks must treat records as read-only (they are shared).

Four sinks cover the built-in use cases:

* :class:`InMemorySink` - collect records in a list (tests, analysis).
* :class:`LegacyEventSink` - rebuild the byte-compatible
  ``InferenceResult.events`` dictionaries from ``loop``-category records.
* :class:`JsonlTraceSink` - append records to a crash-safe JSONL trace file
  (the ``--trace PATH`` flag), one JSON object per line, flushed per record
  the way the :class:`~repro.experiments.store.ResultStore` persists results.
  :func:`read_trace` loads such a file back, skipping a truncated final line.
* :class:`QueueSink` - forward records over a multiprocessing queue; the
  parallel runner installs one in each worker so events stream to the parent
  instead of dying with the worker.

:class:`LiveRenderer` consumes the *parent-side* stream and prints compact
progress lines, so a long parallel sweep shows which phase every worker is in
instead of going silent until completion.

A process-global registry (:func:`install_sink` / :func:`installed_sinks`)
lets the CLI attach sinks once; every inference run constructed afterwards
picks them up.
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import Dict, Iterator, List, Optional

from .events import NULL_EMITTER, Emitter, legacy_entry

__all__ = [
    "InMemorySink",
    "LegacyEventSink",
    "JsonlTraceSink",
    "QueueSink",
    "LiveRenderer",
    "read_trace",
    "iter_trace",
    "install_sink",
    "uninstall_sink",
    "installed_sinks",
    "reset_sinks",
    "emitter_for_run",
]


class InMemorySink:
    """Collects every record in ``self.records``."""

    def __init__(self) -> None:
        self.records: List[dict] = []

    def handle(self, record: dict) -> None:
        self.records.append(record)


class LegacyEventSink:
    """Rebuilds the seed's ``InferenceResult.events`` log from the stream.

    Only ``loop``-category point events participate; the reconstructed
    dictionaries are byte-identical to what ``HanoiInference._log`` used to
    append, so every existing consumer (Figure 5 rendering, the fuzzer's
    stored rows, the store round-trip) is unchanged.
    """

    def __init__(self) -> None:
        self.events: List[Dict[str, object]] = []

    def handle(self, record: dict) -> None:
        if record.get("cat") == "loop" and record.get("kind") == "event":
            self.events.append(legacy_entry(record["name"], record.get("data")))


class JsonlTraceSink:
    """Appends records to a JSONL trace file, crash-safely.

    The file handle is opened on first use and kept open (a trace can be tens
    of thousands of records; open-per-record would dominate), but every line
    is flushed as written, so a killed process loses at most the in-flight
    record and several processes can read the file while it is written.
    """

    def __init__(self, path: str) -> None:
        self.path = os.fspath(path)
        self._handle = None

    def handle(self, record: dict) -> None:
        if self._handle is None:
            directory = os.path.dirname(os.path.abspath(self.path))
            os.makedirs(directory, exist_ok=True)
            self._handle = open(self.path, "a", encoding="utf-8")
        self._handle.write(json.dumps(record, separators=(",", ":"), default=str) + "\n")
        self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "JsonlTraceSink":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def iter_trace(path: str) -> Iterator[dict]:
    """Yield the records of a JSONL trace file in order.

    A truncated trailing line (a run killed mid-append) is tolerated and
    skipped, matching the :class:`~repro.experiments.store.ResultStore`
    loader's behaviour.
    """
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                yield json.loads(line)
            except json.JSONDecodeError:
                continue


def read_trace(path: str) -> List[dict]:
    """Load a JSONL trace file written by :class:`JsonlTraceSink`."""
    return list(iter_trace(path))


class QueueSink:
    """Forwards records over a multiprocessing queue, tagged with a task label.

    The parallel runner installs one of these (replacing any inherited sinks)
    in each worker process; the parent drains the queue and dispatches the
    records to its own sinks, preserving each worker's internal order.
    """

    def __init__(self, queue, task: Optional[str] = None) -> None:
        self.queue = queue
        self.task = task

    def handle(self, record: dict) -> None:
        payload = dict(record)
        if self.task is not None:
            payload["task"] = self.task
        try:
            self.queue.put(payload)
        except (OSError, ValueError):  # pragma: no cover - parent went away
            pass


class LiveRenderer:
    """Prints compact progress lines from the (parent-side) event stream.

    One line per run start/end and per CEGIS iteration, plus heartbeat lines
    for long-silent workers - enough to see *where* a sweep currently is
    without drowning the terminal.  ``min_interval`` throttles per-run
    iteration lines.
    """

    RENDERED_SPANS = ("iteration",)

    def __init__(self, stream=None, min_interval: float = 1.0) -> None:
        self.stream = stream if stream is not None else sys.stderr
        self.min_interval = min_interval
        self._last_line_at: Dict[str, float] = {}

    def _label(self, record: dict) -> str:
        return str(record.get("task") or record.get("run") or "?")

    def _print(self, text: str) -> None:
        print(text, file=self.stream, flush=True)

    def handle(self, record: dict) -> None:
        kind = record.get("kind")
        name = record.get("name")
        label = self._label(record)
        if record.get("cat") == "run" and kind == "event":
            if name == "run-start":
                self._print(f"  ~ {label}: started")
            elif name == "run-end":
                data = record.get("data") or {}
                self._print(f"  ~ {label}: {data.get('status', 'done')} "
                            f"after {data.get('iterations', '?')} iteration(s)")
            return
        if name == "heartbeat":
            self._print(f"  ~ {label}: still running (heartbeat)")
            return
        if kind == "span-start" and name in self.RENDERED_SPANS:
            now = time.monotonic()
            # The monotonic clock may start near zero (a freshly booted
            # machine), so a run's first line is never throttled.
            last = self._last_line_at.get(label)
            if last is not None and now - last < self.min_interval:
                return
            self._last_line_at[label] = now
            data = record.get("data") or {}
            detail = f" #{data.get('index')}" if "index" in data else ""
            self._print(f"  ~ {label}: {name}{detail}")


# -- the process-global sink registry ---------------------------------------------

_SINKS: List[object] = []


def install_sink(sink: object) -> object:
    """Register a sink for every emitter constructed after this call."""
    _SINKS.append(sink)
    return sink


def uninstall_sink(sink: object) -> None:
    """Remove a previously installed sink (no-op when absent)."""
    try:
        _SINKS.remove(sink)
    except ValueError:
        pass


def installed_sinks() -> List[object]:
    """The currently installed sinks (a copy; mutating it changes nothing)."""
    return list(_SINKS)


def reset_sinks() -> None:
    """Drop every installed sink (worker initialization, test isolation)."""
    _SINKS.clear()


def emitter_for_run(run: str):
    """A live emitter over the installed sinks, or the shared null emitter.

    Components that have nothing to feed but the sinks (the baselines) call
    this; :class:`~repro.core.hanoi.HanoiInference` rolls its own variant
    because it must keep the legacy event log even with no sinks installed.
    """
    if _SINKS:
        return Emitter(sinks=_SINKS, run=run)
    return NULL_EMITTER
