"""Statistics instrumentation for inference runs.

The paper's Figure 7 reports, per benchmark:

* ``Size`` - AST size of the inferred invariant,
* ``Time`` - end-to-end wall-clock time,
* ``TVT`` / ``TVC`` / ``MVT`` - total verification time, number of
  verification calls, and mean time per verification call,
* ``TST`` / ``TSC`` / ``MST`` - the same three quantities for synthesis.

:class:`InferenceStats` accumulates these counters; the experiment harness
turns them into table rows.  Verification calls cover both sufficiency checks
and (conditional) inductiveness checks, matching the paper's accounting where
all checking work flows through the ``Verify`` component.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from typing import ClassVar, Dict, Iterator, Optional, Tuple

__all__ = ["InferenceStats"]


@dataclass
class InferenceStats:
    """Mutable counters describing one inference run."""

    verification_calls: int = 0
    verification_time: float = 0.0
    synthesis_calls: int = 0
    synthesis_time: float = 0.0
    #: Synthesis requests answered from the synthesis-result cache (Section 4.4).
    synthesis_cache_hits: int = 0
    #: Synthesis calls whose answer the persistent store replayed instead of
    #: running the synthesizer (each also counts in ``synthesis_calls``).
    synthesis_replays: int = 0
    #: Conditional-inductiveness checks (Figure 3's relation, visible or
    #: full); each also counts in ``verification_calls``.
    inductiveness_checks: int = 0
    #: Inductiveness checks whose verdict the persistent store replayed
    #: instead of running the checker (each also counts in
    #: ``inductiveness_checks``).
    inductiveness_replays: int = 0
    #: Verification/synthesis rounds skipped thanks to counterexample list caching.
    trace_replays: int = 0
    #: Sufficiency assignments whose spec verdict the evaluation cache
    #: replayed.  Inductiveness checks keep no cache and count nothing here.
    eval_cache_hits: int = 0
    #: Spec verdicts computed fresh while the evaluation cache was active
    #: (each one seeds a future hit; 0/0 when the cache is disabled).
    eval_cache_misses: int = 0
    #: Synthesis component applications served by the pool cache (memoized
    #: applications plus the applications a whole-pool replay avoided).
    pool_cache_hits: int = 0
    #: Synthesis component applications computed fresh while the pool cache
    #: was active (0/0 when the cache is disabled).
    pool_cache_misses: int = 0
    #: Number of positive examples added across the run.
    positives_added: int = 0
    #: Number of negative examples added across the run.
    negatives_added: int = 0
    #: Candidate invariants proposed (including cached ones).
    candidates_proposed: int = 0
    #: Values evaluated by the enumerative verifier.
    structures_tested: int = 0
    #: Persistent cache sections restored from disk at run start (one per
    #: spec stream / component memo / synthesizer answer set found under the
    #: run's content keys; 0 when persistence is disabled).
    disk_cache_hits: int = 0
    #: Persistent cache sections looked up but absent, stale, or corrupt
    #: (each one is written back at run end, seeding a future hit).
    disk_cache_misses: int = 0
    started_at: float = field(default_factory=time.perf_counter)
    finished_at: Optional[float] = None

    #: Every field but the two perf-counter anchors, in declaration order:
    #: the counters persisted verbatim by :meth:`to_dict` / :meth:`from_dict`.
    COUNTER_FIELDS: ClassVar[Tuple[str, ...]]
    #: The deterministic subset of :data:`COUNTER_FIELDS` - integer counters
    #: only, no timers.  These are what the tracing layer stamps on ``run-end``
    #: events, so traces of deterministic runs stay byte-identical.
    INT_COUNTER_FIELDS: ClassVar[Tuple[str, ...]]

    # -- timers ---------------------------------------------------------------

    @contextmanager
    def verification(self) -> Iterator[None]:
        """Record one verification call and the time spent inside the block."""
        self.verification_calls += 1
        start = time.perf_counter()
        try:
            yield
        finally:
            self.verification_time += time.perf_counter() - start

    @contextmanager
    def synthesis(self) -> Iterator[None]:
        """Record one synthesis call and the time spent inside the block."""
        self.synthesis_calls += 1
        start = time.perf_counter()
        try:
            yield
        finally:
            self.synthesis_time += time.perf_counter() - start

    def finish(self) -> None:
        """Mark the end of the run (idempotent)."""
        if self.finished_at is None:
            self.finished_at = time.perf_counter()

    # -- derived quantities -----------------------------------------------------

    @property
    def total_time(self) -> float:
        """End-to-end wall-clock time of the run (the table's ``Time`` column)."""
        end = self.finished_at if self.finished_at is not None else time.perf_counter()
        return end - self.started_at

    @property
    def mean_verification_time(self) -> Optional[float]:
        """``MVT``: mean time of a single verification call, or None if no calls."""
        if self.verification_calls == 0:
            return None
        return self.verification_time / self.verification_calls

    @property
    def mean_synthesis_time(self) -> Optional[float]:
        """``MST``: mean time of a single synthesis call, or None if no calls."""
        if self.synthesis_calls == 0:
            return None
        return self.synthesis_time / self.synthesis_calls

    def as_dict(self) -> Dict[str, object]:
        """A flat dictionary of every reported statistic."""
        report: Dict[str, object] = {
            "time": self.total_time,
            "tvt": self.verification_time,
            "tvc": self.verification_calls,
            "mvt": self.mean_verification_time,
            "tst": self.synthesis_time,
            "tsc": self.synthesis_calls,
            "mst": self.mean_synthesis_time,
        }
        report.update((name, getattr(self, name)) for name in self.COUNTER_FIELDS
                      if name not in _FIGURE7_FIELDS)
        return report

    # -- serialization ----------------------------------------------------------

    def counters(self) -> Dict[str, int]:
        """The integer counters only (no wall-clock timers).

        Used by the observability layer: ``run-end`` trace events carry these,
        they are the only source of the cache hit rates ``repro trace``
        reports, and golden-trace tests can assert byte-identity.
        """
        return {name: getattr(self, name) for name in self.INT_COUNTER_FIELDS}

    def to_dict(self) -> Dict[str, object]:
        """A JSON-safe dictionary from which :meth:`from_dict` rebuilds the stats.

        Unlike :meth:`as_dict` (which reports derived quantities like ``mvt``),
        this stores the raw counters plus the elapsed ``total_time``, so a
        round-trip preserves every reported number exactly.
        """
        payload: Dict[str, object] = {name: getattr(self, name) for name in self.COUNTER_FIELDS}
        payload["total_time"] = self.total_time
        return payload

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "InferenceStats":
        """Rebuild stats persisted by :meth:`to_dict`.

        The perf-counter anchors are re-based so that ``total_time`` reproduces
        the stored elapsed time instead of measuring from deserialization.
        """
        stats = cls(**{name: data[name] for name in cls.COUNTER_FIELDS if name in data})
        stats.started_at = 0.0
        stats.finished_at = float(data.get("total_time", 0.0))
        return stats


#: Counters :meth:`InferenceStats.as_dict` reports under Figure 7's names.
_FIGURE7_FIELDS = ("verification_calls", "verification_time",
                   "synthesis_calls", "synthesis_time")

InferenceStats.COUNTER_FIELDS = tuple(
    spec.name for spec in fields(InferenceStats)
    if spec.name not in ("started_at", "finished_at")
)
InferenceStats.INT_COUNTER_FIELDS = tuple(
    name for name in InferenceStats.COUNTER_FIELDS if not name.endswith("_time")
)
