"""The Hanoi inference algorithm (Figure 4), with the optimizations of
Section 4.4.

The loop maintains

* ``V+`` - positive examples, known constructible values of the abstract type
  that every future candidate must accept, and
* ``V-`` - negative examples, values the current candidate must reject (they
  may or may not be constructible),

and alternates two phases for each synthesized candidate ``I``:

* **ClosedPositives** (weakening): check *visible inductiveness* - conditional
  inductiveness with ``P`` = membership in V+ and ``Q`` = ``I``.  A
  counterexample's outputs are constructible (they are produced by module
  operations from known-constructible inputs), so they are added to V+ and
  the candidate is re-synthesized.  Without counterexample list caching V- is
  reset at this point; with it, the trace of the current strengthening phase
  is replayed (Figures 5-6).
* **NoNegatives** (strengthening): check sufficiency and then full
  inductiveness (``P`` = ``Q`` = ``I``).  Counterexample witnesses that are
  not already known constructible become new negative examples; if every
  witness of a sufficiency violation is known constructible, the module
  simply does not satisfy the specification and the loop reports it.

The loop terminates when a candidate passes both phases: that candidate is a
(likely) sufficient representation invariant.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Set

from ..lang.values import Value, value_order
# Re-exported only because perfbench/layers.py wraps canonical_hash here.
from ..analysis.canon import canonical_hash  # noqa: F401
from ..synth.base import SynthesisFailure
from ..synth.cache import SynthesisResultCache
from ..verify.result import (
    CheckResult,
    InductivenessCounterexample,
    SufficiencyCounterexample,
)
from .config import HanoiConfig
from .module import ModuleDefinition
from .predicate import Predicate
from .result import InferenceResult, Status
from .run import InferenceRun, SynthesizerFactory
from .trace import CounterexampleTrace

__all__ = ["HanoiInference", "SynthesizerFactory", "infer_invariant"]


class HanoiInference(InferenceRun):
    """One configured inference run over one module."""

    MODE = "hanoi"

    def __init__(self, module: ModuleDefinition, config: Optional[HanoiConfig] = None,
                 synthesizer_factory: Optional[SynthesizerFactory] = None,
                 mode_name: Optional[str] = None, emitter: Optional[object] = None):
        super().__init__(module, config, synthesizer_factory, mode_name, emitter)
        # Persistent cache tier (docs/service.md): warm the freshly created
        # caches and load the synthesizer's stored answers and the stored
        # inductiveness verdicts from the content-addressed disk store
        # before the loop starts.  Strictly best-effort - any failure here
        # or at write-back downgrades to a cold start, never changes an
        # outcome, and is surfaced as a ``disk-cache-warning`` event.
        # ``cache_dir=None`` (the default) skips even the import, so runs
        # without persistence pay one ``None`` check per synthesis call and
        # per inductiveness check.
        self.persistent = None
        self._disk_cache_warning = _disk_cache_warner(self.events, self.emitter)
        if self.config.cache_dir:
            try:
                from ..serve.diskcache import DiskCacheStore, PersistentCacheBinding

                store = DiskCacheStore(self.config.cache_dir,
                                       warn=self._disk_cache_warning)
                self.persistent = PersistentCacheBinding(
                    store, self.definition, self.instance, self.config,
                    self.synthesizer)
                self.persistent.restore(self.eval_cache, self.pool_cache,
                                        self.stats)
            except Exception as error:
                self.persistent = None
                self._disk_cache_warning("persistent cache disabled for this run",
                                         {"error": repr(error)})
        self.cache: Optional[SynthesisResultCache] = (
            SynthesisResultCache() if self.config.synthesis_result_caching else None
        )
        self.trace: Optional[CounterexampleTrace] = (
            CounterexampleTrace() if self.config.counterexample_list_caching else None
        )

    # -- public API -------------------------------------------------------------

    def infer(self) -> InferenceResult:
        """Run the CEGIS loop of Figure 4 and return the outcome."""
        return self._traced(self._infer_and_persist)

    def _infer_and_persist(self) -> InferenceResult:
        result = self._outcome()
        self._persist_caches()
        if self.emitter.enabled:
            self._emit_cache_snapshot()
        return result

    def _persist_caches(self) -> None:
        """Write the run's cache state back to the persistent tier."""
        if self.persistent is None:
            return
        try:
            self.persistent.persist(self.eval_cache, self.pool_cache)
        except Exception as error:
            self._disk_cache_warning("persistent cache write failed",
                                     {"error": repr(error)})

    def _emit_cache_snapshot(self) -> None:
        """Final cache occupancy, for the analyzer's growth reporting."""
        data: dict = {}
        if self.eval_cache is not None:
            data["eval"] = self.eval_cache.snapshot()
        if self.pool_cache is not None:
            data["pool"] = self.pool_cache.snapshot()
        if data:
            self.emitter.emit("cache-snapshot", data, cat="cache")

    def _infer(self) -> Optional[InferenceResult]:
        emitter = self.emitter
        positives: Set[Value] = set()
        negatives: Set[Value] = set()
        while self._step():
            with emitter.span("iteration",
                              {"index": self.iterations} if emitter.enabled else None):
                outcome = self._iterate(positives, negatives)
            if outcome is not None:
                return self._result(*outcome)
        return None

    def _iterate(self, positives: Set[Value],
                 negatives: Set[Value]) -> Optional[tuple]:
        """One CEGIS iteration over the mutable example sets.

        Returns ``None`` to continue looping, or a ``(status, invariant,
        message)`` triple when the run is decided.
        """
        try:
            candidate = self._next_candidate(positives, negatives)
        except SynthesisFailure:
            # Trace completeness pads unknown sub-values of examples
            # to false (Section 4.3).  When such a value is in fact
            # constructible, no candidate can separate the padded
            # example sets even though an invariant exists; the fix
            # the padding relies on - a visible check moving the
            # value into V+ - never runs if synthesis dies first.
            # Recover by growing V+ with outputs the module produces
            # from known-constructible inputs, then resynthesize.
            closure = self._check("closure", None, positives)
            if not isinstance(closure, InductivenessCounterexample):
                raise
            new_positives = set(closure.outputs) - positives
            if not new_positives:
                raise
            self._weaken("synthesis-recovery", None, closure.operation,
                         new_positives, positives, negatives)
            return None
        self.stats.candidates_proposed += 1

        # -- ClosedPositives: weaken until visibly inductive ------------------
        visible = self._check("visible", candidate, positives)
        if isinstance(visible, InductivenessCounterexample):
            self._weaken("visible-counterexample", candidate, visible.operation,
                         set(visible.outputs) - positives, positives, negatives)
            return None

        # -- NoNegatives: sufficiency, then full inductiveness ------------------
        sufficiency = self.verifier.check_sufficiency(candidate)
        if isinstance(sufficiency, SufficiencyCounterexample):
            witnesses = set(sufficiency.witnesses)
            new_negatives = witnesses - positives
            if not new_negatives:
                # Every witness is known constructible: the module
                # itself violates the specification (Figure 4's
                # "Counterexample N" failure).
                shown = _shown(witnesses)
                self._log("spec-violation", candidate, witnesses=shown)
                return (Status.SPEC_VIOLATION, None,
                        "constructible specification violation: " + ", ".join(shown))
            self._strengthen("sufficiency-counterexample", candidate, new_negatives,
                             negatives)
            return None

        inductive = self._check("full", candidate, positives)
        if isinstance(inductive, InductivenessCounterexample):
            new_negatives = set(inductive.inputs) - positives
            if not new_negatives:
                # Should be impossible once the candidate is visibly
                # inductive (Lemma B.11); with a bounded, unsound
                # verifier it can still occur, in which case the
                # outputs are known constructible and we weaken.
                new_positives = set(inductive.outputs) - positives
                if not new_positives:
                    return (Status.FAILURE, None,
                            "inductiveness counterexample entirely inside V+")
                self._weaken("late-visible-counterexample", candidate,
                             inductive.operation, new_positives, positives, negatives)
                return None
            self._strengthen("inductiveness-counterexample", candidate, new_negatives,
                             negatives, operation=inductive.operation)
            return None

        # Both checks passed: the candidate is a (likely) sufficient
        # representation invariant.
        self._log("success", candidate)
        return (Status.SUCCESS, candidate, "")

    # -- helpers -------------------------------------------------------------------

    def _next_candidate(self, positives: Set[Value], negatives: Set[Value]) -> Predicate:
        """Look up a cached candidate or call the synthesizer (Section 4.4).

        V+ and V- are sorted by ``value_order`` once, so the cache scan and
        the persistent store's key do not follow the sets' iteration order.
        """
        positives = tuple(sorted(positives, key=value_order))
        negatives = tuple(sorted(negatives, key=value_order))
        if self.cache is not None:
            cached = self.cache.lookup(positives, negatives)
            if cached is not None:
                self.stats.synthesis_cache_hits += 1
                self._log("synthesis-cache-hit", cached)
                return cached
        candidates = self._synthesize(positives, negatives)
        if self.cache is not None:
            self.cache.store(candidates)
        self._log("synthesized", candidates[0], alternatives=len(candidates))
        return candidates[0]

    def _synthesize(self, positives: Sequence[Value],
                    negatives: Sequence[Value]) -> List[Predicate]:
        """Replay the synthesizer's answer from the persistent store, or call
        the synthesizer and record its answer (candidates or failure)."""
        persistent = self.persistent
        if persistent is None:
            return self.synthesizer.synthesize(positives, negatives)
        replayed = persistent.replay(positives, negatives, self.stats)
        if replayed is not None:
            return replayed
        try:
            candidates = self.synthesizer.synthesize(positives, negatives)
        except SynthesisFailure as failure:
            persistent.record(positives, negatives, failure)
            raise
        persistent.record(positives, negatives, candidates)
        return candidates

    def _check(self, kind: str, candidate: Optional[Predicate],
               positives: Set[Value]) -> CheckResult:
        """One conditional-inductiveness check (Figure 3): ``visible`` (P is
        membership in V+, Q the candidate), ``full`` (P and Q the candidate)
        or ``closure`` (P and Q membership in V+, for synthesis recovery).

        The persistent store replays the check's stored verdict; otherwise
        the checker runs and its verdict is recorded."""
        if kind == "full":
            p, q, pool = candidate, candidate, None
        else:
            p, pool = positives.__contains__, positives
            q = p if candidate is None else candidate
        persistent = self.persistent
        if persistent is None:
            return self.checker.check(p=p, q=q, p_pool=pool)
        key = persistent.check_key(kind, candidate, positives)
        replayed = persistent.replay_check(key, self.stats)
        if replayed is not None:
            return replayed
        tested = self.stats.structures_tested
        result = self.checker.check(p=p, q=q, p_pool=pool)
        persistent.record_check(key, result, self.stats.structures_tested - tested)
        return result

    def _weaken(self, event: str, candidate: Optional[Predicate], operation: str,
                new_positives: Set[Value], positives: Set[Value],
                negatives: Set[Value]) -> None:
        """Grow V+ by ``new_positives`` and replace V-: without
        counterexample list caching V- empties, otherwise it becomes the
        replayed prefix of the current trace."""
        self._log(event, candidate, operation=operation, added=_shown(new_positives))
        positives |= new_positives
        self.stats.positives_added += len(new_positives)
        negatives.clear()
        if self.trace is not None:
            negatives.update(self.trace.replay(new_positives) - positives)
            self.stats.trace_replays += 1
            self._log("trace-replay", None, kept=len(negatives))

    def _strengthen(self, event: str, candidate: Predicate, new_negatives: Set[Value],
                    negatives: Set[Value], **operation: str) -> None:
        """Grow V- by ``new_negatives`` and record them in the trace."""
        self._log(event, candidate, **operation, added=_shown(new_negatives))
        negatives |= new_negatives
        self.stats.negatives_added += len(new_negatives)
        if self.trace is not None:
            self.trace.record(candidate, new_negatives)

    def _log(self, event: str, candidate: Optional[object], **details: object) -> None:
        _log_to(self.events, self.emitter, event, candidate, **details)


def _log_to(events: List[dict], emitter: object, event: str,
            candidate: Optional[object], **details: object) -> None:
    """Append one entry to a run's loop log, and mirror it as a ``loop``
    trace record when tracing is on."""
    data: dict = {}
    if candidate is not None:
        data["candidate_size"] = getattr(candidate, "size", None)
    data.update(details)
    events.append({"event": event, **data})
    if emitter.enabled:
        emitter.emit(event, data, cat="loop")


def _disk_cache_warner(events: List[dict],
                       emitter: object) -> Callable[[str, dict], None]:
    """The disk store's warning sink: logs a ``disk-cache-warning`` entry.

    It holds the run's loop log and emitter, never the run.  The run holds
    the binding, the binding the store and the store this sink, so a sink
    that reached the run would make the run's whole state one reference
    cycle, kept alive after the run returns until a full collection.
    """
    def warn(message: str, detail: dict) -> None:
        _log_to(events, emitter, "disk-cache-warning", None, message=message, **detail)
    return warn


def _shown(values: Set[Value]) -> List[str]:
    """Values as the loop log and messages list them: rendered, in
    :func:`~repro.lang.values.value_order` (set order follows memory
    addresses)."""
    return [str(v) for v in sorted(values, key=value_order)]


def infer_invariant(module: ModuleDefinition, config: Optional[HanoiConfig] = None,
                    synthesizer_factory: Optional[SynthesizerFactory] = None,
                    emitter: Optional[object] = None) -> InferenceResult:
    """Convenience wrapper: run Hanoi on a module definition and return the result."""
    return HanoiInference(module, config=config, synthesizer_factory=synthesizer_factory,
                          emitter=emitter).infer()
