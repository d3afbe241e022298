"""Structured tracing and metrics for inference runs.

The observability layer has three pieces:

* :mod:`repro.obs.events` - a typed, versioned event/span emitter.  Every
  inference run owns one emitter; instrumented code reports point events and
  nested spans (run -> CEGIS iteration -> synthesis/verification call ->
  cache activity) through it.  A disabled emitter short-circuits before any
  formatting work, so tracing is zero-cost when off.
* :mod:`repro.obs.sinks` - pluggable consumers of the event stream: an
  in-memory sink, a crash-safe JSONL trace-file sink (the ``--trace PATH``
  flag), a live CLI progress renderer, and a cross-process queue sink the
  parallel runner uses to stream worker events back to the parent.
* :mod:`repro.obs.analyze` - the ``repro trace`` subcommand: per-phase time
  breakdowns, cache hit-rate tables read from the
  :class:`~repro.core.stats.InferenceStats` counters on each ``run-end``
  record, slowest-span listings, and Chrome trace-event export loadable in
  ``chrome://tracing`` / Perfetto.

See docs/observability.md for the schema and the span hierarchy.
"""

from .events import (
    NULL_EMITTER,
    SCHEMA_VERSION,
    Emitter,
    NullEmitter,
)
from .sinks import (
    InMemorySink,
    JsonlTraceSink,
    LiveRenderer,
    QueueSink,
    emitter_for_run,
    install_sink,
    installed_sinks,
    reset_sinks,
    uninstall_sink,
)

__all__ = [
    "SCHEMA_VERSION",
    "Emitter",
    "NullEmitter",
    "NULL_EMITTER",
    "InMemorySink",
    "JsonlTraceSink",
    "LiveRenderer",
    "QueueSink",
    "install_sink",
    "uninstall_sink",
    "installed_sinks",
    "reset_sinks",
    "emitter_for_run",
]
