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

from typing import Callable, List, Optional, Set

from ..enumeration.functions import FunctionEnumerator
from ..enumeration.values import ValueEnumerator
from ..inductive.relation import ConditionalInductivenessChecker
from ..lang.values import Value, value_size
from ..obs.events import Emitter, LegacyRecorder
from ..obs.sinks import LegacyEventSink, installed_sinks
# Re-exported only because perfbench/layers.py wraps canonical_hash here.
from ..analysis.canon import canonical_hash  # noqa: F401
from ..synth.base import SynthesisFailure
from ..synth.cache import SynthesisResultCache
from ..synth.myth import MythSynthesizer
from ..synth.poolcache import SynthesisEvaluationCache
from ..verify.evalcache import EvaluationCache
from ..verify.result import InductivenessCounterexample, SufficiencyCounterexample
from ..verify.tester import Verifier
from .config import Deadline, HanoiConfig, InferenceTimeout
from .module import ModuleDefinition, ModuleInstance
from .predicate import Predicate
from .result import InferenceResult, Status
from .stats import InferenceStats
from .trace import CounterexampleTrace

__all__ = ["HanoiInference", "infer_invariant"]

SynthesizerFactory = Callable[..., object]


class HanoiInference:
    """One configured inference run over one module."""

    def __init__(self, module: ModuleDefinition, config: Optional[HanoiConfig] = None,
                 synthesizer_factory: Optional[SynthesizerFactory] = None,
                 mode_name: str = "hanoi", emitter: Optional[object] = None):
        self.config = config or HanoiConfig()
        self.definition = module
        self.instance: ModuleInstance = module.instantiate(fuel=self.config.eval_fuel)
        self.mode_name = mode_name

        # The run always needs its legacy event log (it populates
        # ``InferenceResult.events``); spans and the rest of the trace stream
        # exist only when tracing is on.  With no emitter supplied and no sink
        # installed, the LegacyRecorder keeps the run exactly as cheap as the
        # seed's ad-hoc ``self.events.append``.
        if emitter is None:
            sinks = installed_sinks()
            if sinks:
                emitter = Emitter(sinks=sinks, run=f"{module.name}/{mode_name}")
            else:
                emitter = LegacyRecorder()
        if isinstance(emitter, Emitter):
            self._legacy = LegacyEventSink()
            emitter.sinks.append(self._legacy)
            self.events: List[dict] = self._legacy.events
        else:
            self.events = getattr(emitter, "events", [])
        self.emitter = emitter

        self.stats = InferenceStats()
        self.deadline: Deadline = self.config.deadline()
        self.enumerator = ValueEnumerator(self.instance.program.types)
        self.eval_cache: Optional[EvaluationCache] = (
            EvaluationCache() if self.config.evaluation_caching else None
        )
        self.verifier = Verifier(
            self.instance, self.enumerator, self.config.verifier_bounds, self.stats,
            self.deadline, eval_cache=self.eval_cache, emitter=self.emitter,
        )
        self.checker = ConditionalInductivenessChecker(
            self.instance,
            self.enumerator,
            FunctionEnumerator(self.instance),
            self.config.verifier_bounds,
            self.stats,
            self.deadline,
            emitter=self.emitter,
        )
        self.pool_cache: Optional[SynthesisEvaluationCache] = (
            SynthesisEvaluationCache()
            if self.config.synthesis_evaluation_caching else None
        )
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
        factory = synthesizer_factory or MythSynthesizer
        self.synthesizer = factory(
            self.instance,
            bounds=self.config.synthesis_bounds,
            stats=self.stats,
            deadline=self.deadline,
            pool_cache=self.pool_cache,
        )
        self.cache: Optional[SynthesisResultCache] = (
            SynthesisResultCache() if self.config.synthesis_result_caching else None
        )
        self.trace: Optional[CounterexampleTrace] = (
            CounterexampleTrace() if self.config.counterexample_list_caching else None
        )
        # Custom factories (tests) may not accept an ``emitter`` kwarg, so the
        # synthesizer is wired up after construction; objects that cannot take
        # the attribute simply run untraced.
        try:
            self.synthesizer.emitter = self.emitter
        except AttributeError:
            pass

    # -- public API -------------------------------------------------------------

    def infer(self) -> InferenceResult:
        """Run the CEGIS loop of Figure 4 and return the outcome."""
        emitter = self.emitter
        if not emitter.enabled:
            result = self._infer()
            self._persist_caches()
            return result
        with emitter.span("run", {"benchmark": self.definition.name,
                                  "mode": self.mode_name}, cat="run"):
            emitter.emit("run-start", {"benchmark": self.definition.name,
                                       "mode": self.mode_name}, cat="run")
            result = self._infer()
            self._persist_caches()
            self._emit_cache_snapshot()
            emitter.emit("run-end", {"status": result.status,
                                     "iterations": result.iterations,
                                     "stats": self.stats.counters()}, cat="run")
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
        data: dict = {"message": message}
        data.update(detail)
        self.emitter.emit("disk-cache-warning", data, legacy=True)

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
                      added=[str(v) for v in
                             sorted(new_positives, key=value_size)])
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
                      added=[str(v) for v in sorted(new_positives, key=value_size)])
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
                self._log("spec-violation", candidate,
                          witnesses=[str(v) for v in witnesses])
                return (Status.SPEC_VIOLATION, None,
                        "constructible specification violation: "
                        + ", ".join(str(v) for v in witnesses))
            self._log("sufficiency-counterexample", candidate,
                      added=[str(v) for v in sorted(new_negatives, key=value_size)])
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
                          added=[str(v) for v in new_positives])
                positives |= new_positives
                self.stats.positives_added += len(new_positives)
                self._replace_negatives(negatives, new_positives, positives)
                return None
            self._log("inductiveness-counterexample", candidate,
                      operation=inductive.operation,
                      added=[str(v) for v in sorted(new_negatives, key=value_size)])
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
                if self.emitter.enabled:
                    self.emitter.emit("synthesis-result-cache", {"hits": 1}, cat="cache")
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
        data: dict = {}
        if candidate is not None:
            data["candidate_size"] = getattr(candidate, "size", None)
        data.update(details)
        self.emitter.emit(event, data, legacy=True)

    def _result(self, status: str, invariant: Optional[Predicate], iterations: int,
                message: str = "") -> InferenceResult:
        self.stats.finish()
        return InferenceResult(
            benchmark=self.definition.name,
            mode=self.mode_name,
            status=status,
            invariant=invariant,
            stats=self.stats,
            message=message,
            iterations=iterations,
            events=self.events,
        )


def infer_invariant(module: ModuleDefinition, config: Optional[HanoiConfig] = None,
                    synthesizer_factory: Optional[SynthesizerFactory] = None,
                    emitter: Optional[object] = None) -> InferenceResult:
    """Convenience wrapper: run Hanoi on a module definition and return the result."""
    return HanoiInference(module, config=config, synthesizer_factory=synthesizer_factory,
                          emitter=emitter).infer()
