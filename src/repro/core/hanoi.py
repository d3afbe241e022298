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

from typing import List, Optional, Set

from ..lang.values import Value, value_order
# Re-exported only because perfbench/layers.py wraps canonical_hash here.
from ..analysis.canon import canonical_hash  # noqa: F401
from ..synth.base import SynthesisFailure
from ..synth.cache import SynthesisResultCache
from ..verify.result import InductivenessCounterexample, SufficiencyCounterexample
from .config import HanoiConfig, InferenceTimeout
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
        # caches from the content-addressed disk store before the loop
        # starts.  Strictly best-effort - any failure here or at write-back
        # downgrades to a cold start, never changes an outcome, and is
        # surfaced as a ``disk-cache-warning`` event.  ``cache_dir=None``
        # (the default) skips even the import, so runs without persistence
        # pay nothing.
        self.persistent = None
        if self.config.cache_dir and (self.eval_cache is not None
                                      or self.pool_cache is not None):
            try:
                from ..serve.diskcache import DiskCacheStore, PersistentCacheBinding

                store = DiskCacheStore(self.config.cache_dir,
                                       warn=self._disk_cache_warning)
                self.persistent = PersistentCacheBinding(
                    store, self.definition, self.instance, self.config)
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
        result = self._infer()
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

    def _disk_cache_warning(self, message: str, detail: dict) -> None:
        self._log("disk-cache-warning", None, message=message, **detail)

    def _emit_cache_snapshot(self) -> None:
        """Final cache occupancy, for the analyzer's growth reporting."""
        data: dict = {}
        if self.eval_cache is not None:
            data["eval"] = self.eval_cache.snapshot()
        if self.pool_cache is not None:
            data["pool"] = self.pool_cache.snapshot()
        if data:
            self.emitter.emit("cache-snapshot", data, cat="cache")

    def _infer(self) -> InferenceResult:
        emitter = self.emitter
        positives: Set[Value] = set()
        negatives: Set[Value] = set()
        iterations = 0
        try:
            while iterations < self.config.max_iterations:
                iterations += 1
                self.deadline.check()
                with emitter.span("iteration",
                                  {"index": iterations} if emitter.enabled else None):
                    outcome = self._iterate(positives, negatives)
                if outcome is not None:
                    status, invariant, message = outcome
                    return self._result(status, invariant, iterations, message=message)

            return self._result(Status.FAILURE, None, iterations,
                                message="iteration limit reached")
        except InferenceTimeout as timeout:
            return self._result(Status.TIMEOUT, None, iterations, message=str(timeout))
        except SynthesisFailure as failure:
            return self._result(Status.SYNTHESIS_FAILURE, None, iterations, message=str(failure))
        except NotImplementedError as unsupported:
            return self._result(Status.FAILURE, None, iterations, message=str(unsupported))

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
            closure = self.checker.check(
                p=lambda v: v in positives,
                q=lambda v: v in positives,
                p_pool=positives,
            )
            if not isinstance(closure, InductivenessCounterexample):
                raise
            new_positives = set(closure.outputs) - positives
            if not new_positives:
                raise
            self._log("synthesis-recovery", None,
                      operation=closure.operation,
                      added=_shown(new_positives))
            positives |= new_positives
            self.stats.positives_added += len(new_positives)
            self._replace_negatives(negatives, new_positives, positives)
            return None
        self.stats.candidates_proposed += 1

        # -- ClosedPositives: weaken until visibly inductive ------------------
        visible = self.checker.check(
            p=lambda v: v in positives, q=candidate, p_pool=positives
        )
        if isinstance(visible, InductivenessCounterexample):
            new_positives = set(visible.outputs) - positives
            self._log("visible-counterexample", candidate,
                      operation=visible.operation,
                      added=_shown(new_positives))
            positives |= new_positives
            self.stats.positives_added += len(new_positives)
            self._replace_negatives(negatives, new_positives, positives)
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
            self._log("sufficiency-counterexample", candidate,
                      added=_shown(new_negatives))
            negatives |= new_negatives
            self.stats.negatives_added += len(new_negatives)
            if self.trace is not None:
                self.trace.record(candidate, new_negatives)
            return None

        inductive = self.checker.check(p=candidate, q=candidate, p_pool=None)
        if isinstance(inductive, InductivenessCounterexample):
            witnesses = set(inductive.inputs)
            new_negatives = witnesses - positives
            if not new_negatives:
                # Should be impossible once the candidate is visibly
                # inductive (Lemma B.11); with a bounded, unsound
                # verifier it can still occur, in which case the
                # outputs are known constructible and we weaken.
                new_positives = set(inductive.outputs) - positives
                if not new_positives:
                    return (Status.FAILURE, None,
                            "inductiveness counterexample entirely inside V+")
                self._log("late-visible-counterexample", candidate,
                          operation=inductive.operation,
                          added=_shown(new_positives))
                positives |= new_positives
                self.stats.positives_added += len(new_positives)
                self._replace_negatives(negatives, new_positives, positives)
                return None
            self._log("inductiveness-counterexample", candidate,
                      operation=inductive.operation,
                      added=_shown(new_negatives))
            negatives |= new_negatives
            self.stats.negatives_added += len(new_negatives)
            if self.trace is not None:
                self.trace.record(candidate, new_negatives)
            return None

        # Both checks passed: the candidate is a (likely) sufficient
        # representation invariant.
        self._log("success", candidate)
        return (Status.SUCCESS, candidate, "")

    # -- helpers -------------------------------------------------------------------

    def _next_candidate(self, positives: Set[Value], negatives: Set[Value]) -> Predicate:
        """Look up a cached candidate or call the synthesizer (Section 4.4)."""
        if self.cache is not None:
            cached = self.cache.lookup(positives, negatives)
            if cached is not None:
                self.stats.synthesis_cache_hits += 1
                self._log("synthesis-cache-hit", cached)
                return cached
        candidates = self.synthesizer.synthesize(positives, negatives)
        if self.cache is not None:
            self.cache.store(candidates)
        self._log("synthesized", candidates[0], alternatives=len(candidates))
        return candidates[0]

    def _reset_negatives(self, new_positives: Set[Value], positives: Set[Value]) -> Set[Value]:
        """V- after a weakening step: empty without counterexample list
        caching, otherwise the replayed prefix of the current trace."""
        if self.trace is None:
            return set()
        replayed = self.trace.replay(new_positives) - positives
        self.stats.trace_replays += 1
        self._log("trace-replay", None, kept=len(replayed))
        return set(replayed)

    def _replace_negatives(self, negatives: Set[Value], new_positives: Set[Value],
                           positives: Set[Value]) -> None:
        """In-place version of :meth:`_reset_negatives` (the iteration helper
        shares the caller's set)."""
        replacement = self._reset_negatives(new_positives, positives)
        negatives.clear()
        negatives.update(replacement)

    def _log(self, event: str, candidate: Optional[object], **details: object) -> None:
        """Append one entry to the loop log, and mirror it as a ``loop``
        trace record when tracing is on."""
        data: dict = {}
        if candidate is not None:
            data["candidate_size"] = getattr(candidate, "size", None)
        data.update(details)
        self.events.append({"event": event, **data})
        if self.emitter.enabled:
            self.emitter.emit(event, data, cat="loop")


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
