"""The typed event/span emitter behind all inference tracing.

Every inference run owns one emitter.  Instrumented code reports two things
through it:

* *point events* - ``emit(name, data, cat=...)`` - a single timestamped
  record, e.g. a CEGIS loop decision or a cache milestone;
* *spans* - ``with emitter.span(name, cat=...):`` - a nested, timed region,
  e.g. one synthesis call inside one CEGIS iteration inside one run.

Records are plain JSON-safe dictionaries with a versioned schema
(:data:`SCHEMA_VERSION`):

======== ======================================================================
key      meaning
======== ======================================================================
``v``    schema version (currently 1)
``seq``  per-emitter sequence number, starting at 1, strictly increasing
``ts``   timestamp from the emitter's clock, relative to emitter creation
``run``  run identity (``benchmark``/``mode`` label), same for a whole run
``kind`` ``"event"``, ``"span-start"``, or ``"span-end"``
``cat``  coarse category: ``loop`` (CEGIS decisions, mirroring the loop log),
         ``phase`` (timed spans), ``cache`` (cache milestones), ``run``
         (run start/end), ``stream`` (runner-level records)
``name`` the event or span name
``span`` id of the enclosing span (``None`` at top level)
``id``   (span records only) the span's own id
``dur``  (span-end only) duration from the span's start, same clock
``data`` free-form JSON-safe payload (omitted when empty)
======== ======================================================================

The clock is injectable.  The default is :func:`time.monotonic` (re-based to
the emitter's creation); tests that need byte-identical traces across runs
pass a :class:`CountingClock`, which makes ``ts`` a deterministic logical
tick.  Nothing else in a trace depends on wall time, so a counting-clock
trace of a deterministic run is byte-identical across processes and
``PYTHONHASHSEED`` values.

Zero-cost-when-off: code that may run with tracing disabled receives
:data:`NULL_EMITTER`, whose ``emit`` returns immediately and whose ``span``
returns a shared no-op context manager; hot call sites additionally guard on
``emitter.enabled`` so no payload dictionary is ever built.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Sequence

__all__ = [
    "SCHEMA_VERSION",
    "CountingClock",
    "Emitter",
    "NullEmitter",
    "NULL_EMITTER",
]

#: Version stamped on every record; bump when the record shape changes.
SCHEMA_VERSION = 1


class CountingClock:
    """A deterministic logical clock: each call returns the next integer.

    Used by the golden-trace tests so ``ts`` values (and span durations) are
    reproducible byte-for-byte across processes and hash seeds.
    """

    def __init__(self, start: int = 0) -> None:
        self._tick = start

    def __call__(self) -> int:
        self._tick += 1
        return self._tick


class _NullSpan:
    """A reusable no-op context manager (what a disabled emitter's ``span``
    returns)."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullEmitter:
    """The disabled emitter: every operation is a no-op.

    ``enabled`` is ``False`` so hot paths can skip building event payloads
    entirely; calls that do land here return immediately.
    """

    __slots__ = ()
    enabled = False

    def emit(self, name: str, data: Optional[Dict[str, object]] = None,
             cat: str = "event") -> None:
        return None

    def span(self, name: str, data: Optional[Dict[str, object]] = None,
             cat: str = "phase") -> _NullSpan:
        return _NULL_SPAN


#: The shared disabled emitter; components default to it.
NULL_EMITTER = NullEmitter()


class _Span:
    """Handle for an open span; closing records the span-end event."""

    __slots__ = ("_emitter", "_id", "_name", "_cat", "_started")

    def __init__(self, emitter: "Emitter", span_id: int, name: str, cat: str,
                 started: float) -> None:
        self._emitter = emitter
        self._id = span_id
        self._name = name
        self._cat = cat
        self._started = started

    @property
    def id(self) -> int:
        return self._id

    def __enter__(self) -> "_Span":
        return self

    def __exit__(self, *exc: object) -> bool:
        self._emitter._close_span(self)
        return False


class Emitter:
    """A live event emitter feeding one or more sinks.

    Parameters
    ----------
    sinks:
        Objects with a ``handle(record: dict)`` method.  Sinks must not
        mutate the record (it is shared between them).
    run:
        Run identity stamped on every record (``benchmark/mode`` label).
        Deterministic by construction - no pids, times, or uuids - so traces
        of deterministic runs stay reproducible.
    clock:
        A zero-argument callable returning a number.  Defaults to
        :func:`time.monotonic`; timestamps are re-based to the emitter's
        creation instant.
    """

    __slots__ = ("sinks", "run", "clock", "enabled", "_origin", "_seq",
                 "_next_span", "_stack")

    def __init__(self, sinks: Sequence[object] = (),
                 run: Optional[str] = None,
                 clock: Optional[Callable[[], float]] = None) -> None:
        self.sinks = list(sinks)
        self.run = run
        self.clock = clock if clock is not None else time.monotonic
        self.enabled = True
        self._origin = self.clock()
        self._seq = 0
        self._next_span = 0
        self._stack: List[int] = []

    # -- record plumbing ---------------------------------------------------------

    def _now(self) -> float:
        elapsed = self.clock() - self._origin
        # Monotonic floats carry sub-microsecond noise that bloats traces;
        # integers (a CountingClock) pass through untouched.
        return elapsed if isinstance(elapsed, int) else round(elapsed, 6)

    def _record(self, kind: str, name: str, cat: str,
                data: Optional[Dict[str, object]],
                span_id: Optional[int] = None,
                dur: Optional[float] = None) -> None:
        self._seq += 1
        record: Dict[str, object] = {
            "v": SCHEMA_VERSION,
            "seq": self._seq,
            "ts": self._now(),
            "run": self.run,
            "kind": kind,
            "cat": cat,
            "name": name,
            "span": self._stack[-1] if self._stack else None,
        }
        if span_id is not None:
            record["id"] = span_id
        if dur is not None:
            record["dur"] = dur
        if data:
            record["data"] = data
        for sink in self.sinks:
            sink.handle(record)

    # -- public API --------------------------------------------------------------

    def emit(self, name: str, data: Optional[Dict[str, object]] = None,
             cat: str = "event") -> None:
        """Record one point event."""
        self._record("event", name, cat, data)

    def span(self, name: str, data: Optional[Dict[str, object]] = None,
             cat: str = "phase") -> _Span:
        """Open a nested span; use as a context manager."""
        self._next_span += 1
        span_id = self._next_span
        started = self._now()
        self._record("span-start", name, cat, data, span_id=span_id)
        self._stack.append(span_id)
        return _Span(self, span_id, name, cat, started)

    def _close_span(self, span: _Span) -> None:
        # Tolerate mismatched closes (an exception unwinding several spans):
        # pop until this span's id is gone.
        while self._stack:
            popped = self._stack.pop()
            if popped == span._id:
                break
        ended = self._now()
        dur = ended - span._started
        if not isinstance(dur, int):
            dur = round(dur, 6)
        self._record("span-end", span._name, span._cat, None,
                     span_id=span._id, dur=dur)
