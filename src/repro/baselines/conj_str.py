"""The ∧Str baseline: conjunctive strengthening in the style of LoopInvGen.

Section 5.5: "When running ∧Str, if a candidate invariant I1 is sufficient to
prove the specification, but is not inductive, the algorithm attempts to
synthesize a new predicate I2 such that the module is conditionally inductive
with respect to I1 ∧ I2.  In that case, I1 ∧ I2 is considered the new
candidate invariant.  This process continues until either the conjoined
invariants are inductive, or they are overly strong so a new positive
counterexample is found, at which point the whole process restarts."

The important contrast with Hanoi: ∧Str "can only add new positive examples
in order to weaken the candidate invariant after it has obviously
over-strengthened", whereas Hanoi eagerly weakens through visible
inductiveness checks.
"""

from __future__ import annotations

from typing import List, Optional, Set

from ..core.config import HanoiConfig, InferenceTimeout
from ..core.hanoi import SynthesizerFactory
from ..core.module import ModuleDefinition
from ..core.predicate import Predicate
from ..core.result import InferenceResult, Status
from ..core.stats import InferenceStats
from ..enumeration.functions import FunctionEnumerator
from ..enumeration.values import ValueEnumerator
from ..inductive.relation import ConditionalInductivenessChecker
from ..lang.values import Value
from ..obs.sinks import emitter_for_run
from ..synth.base import SynthesisFailure
from ..synth.myth import MythSynthesizer
from ..synth.poolcache import SynthesisEvaluationCache
from ..verify.evalcache import EvaluationCache
from ..verify.result import InductivenessCounterexample, SufficiencyCounterexample
from ..verify.tester import Verifier

__all__ = ["ConjunctivePredicate", "ConjunctiveStrengtheningInference"]


class ConjunctivePredicate:
    """A conjunction of predicates, presented with the Predicate interface."""

    def __init__(self, conjuncts: List[Predicate]):
        if not conjuncts:
            raise ValueError("a conjunction needs at least one conjunct")
        self.conjuncts = list(conjuncts)

    def __call__(self, value: Value) -> bool:
        return all(conjunct(value) for conjunct in self.conjuncts)

    @property
    def size(self) -> int:
        # One ``andb`` application node between every pair of conjuncts.
        return sum(c.size for c in self.conjuncts) + 2 * (len(self.conjuncts) - 1)

    def render(self) -> str:
        if len(self.conjuncts) == 1:
            return self.conjuncts[0].render()
        parts = [c.render() for c in self.conjuncts]
        return "\n(* conjoined with *)\n".join(parts)

    def consistent_with(self, positives, negatives) -> bool:
        return all(self(v) for v in positives) and all(not self(v) for v in negatives)


class ConjunctiveStrengtheningInference:
    """The ∧Str mode of the paper's Figure 8."""

    MODE = "conj-str"

    def __init__(self, module: ModuleDefinition, config: Optional[HanoiConfig] = None,
                 synthesizer_factory: Optional[SynthesizerFactory] = None,
                 emitter: Optional[object] = None):
        self.config = config or HanoiConfig()
        self.definition = module
        self.instance = module.instantiate(fuel=self.config.eval_fuel)
        self.stats = InferenceStats()
        self.deadline = self.config.deadline()
        # Baselines emit spans only, never legacy loop events, so their
        # ``InferenceResult.events`` (and stored rows) stay exactly as before.
        self.emitter = emitter if emitter is not None else (
            emitter_for_run(f"{module.name}/{self.MODE}"))
        enumerator = ValueEnumerator(self.instance.program.types)
        eval_cache = EvaluationCache() if self.config.evaluation_caching else None
        self.verifier = Verifier(self.instance, enumerator, self.config.verifier_bounds,
                                 self.stats, self.deadline, eval_cache=eval_cache,
                                 emitter=self.emitter)
        self.checker = ConditionalInductivenessChecker(
            self.instance, enumerator, FunctionEnumerator(self.instance),
            self.config.verifier_bounds, self.stats, self.deadline,
            emitter=self.emitter,
        )
        self.pool_cache = (
            SynthesisEvaluationCache() if self.config.synthesis_evaluation_caching else None
        )
        factory = synthesizer_factory or MythSynthesizer
        self.synthesizer = factory(
            self.instance, bounds=self.config.synthesis_bounds,
            stats=self.stats, deadline=self.deadline, pool_cache=self.pool_cache,
        )
        try:
            self.synthesizer.emitter = self.emitter
        except AttributeError:
            pass
        self.events: List[dict] = []

    def infer(self) -> InferenceResult:
        emitter = self.emitter
        if not emitter.enabled:
            return self._infer()
        with emitter.span("run", {"benchmark": self.definition.name,
                                  "mode": self.MODE}, cat="run"):
            emitter.emit("run-start", {"benchmark": self.definition.name,
                                       "mode": self.MODE}, cat="run")
            result = self._infer()
            emitter.emit("run-end", {"status": result.status,
                                     "iterations": result.iterations,
                                     "stats": self.stats.counters()}, cat="run")
        return result

    def _infer(self) -> InferenceResult:
        positives: Set[Value] = set()
        negatives: Set[Value] = set()
        iterations = 0
        try:
            while iterations < self.config.max_iterations:
                iterations += 1
                self.deadline.check()

                # Find a candidate that is at least sufficient.
                base = self.synthesizer.synthesize(positives, negatives)[0]
                self.stats.candidates_proposed += 1
                sufficiency = self.verifier.check_sufficiency(base)
                if isinstance(sufficiency, SufficiencyCounterexample):
                    witnesses = set(sufficiency.witnesses)
                    fresh = witnesses - positives
                    if not fresh:
                        return self._result(Status.SPEC_VIOLATION, None, iterations,
                                            "constructible specification violation")
                    negatives |= fresh
                    self.stats.negatives_added += len(fresh)
                    continue

                # Strengthen by conjunction until inductive or over-strengthened.
                candidate = ConjunctivePredicate([base])
                restarted = False
                while iterations < self.config.max_iterations:
                    iterations += 1
                    self.deadline.check()
                    check = self.checker.check(p=candidate, q=candidate, p_pool=None)
                    if not isinstance(check, InductivenessCounterexample):
                        return self._result(Status.SUCCESS, candidate, iterations)
                    inputs = set(check.inputs)
                    outputs = set(check.outputs)
                    if inputs <= positives or not (inputs - positives):
                        # Over-strengthened: the rejected outputs are constructible.
                        new_positives = outputs - positives
                        positives |= new_positives
                        self.stats.positives_added += len(new_positives)
                        negatives = set()
                        restarted = True
                        break
                    # Conjoin a predicate separating the positives from the inputs
                    # that caused the violation.
                    try:
                        conjunct = self.synthesizer.synthesize(positives, inputs - positives)[0]
                    except SynthesisFailure:
                        new_positives = outputs - positives
                        if not new_positives:
                            raise
                        positives |= new_positives
                        self.stats.positives_added += len(new_positives)
                        negatives = set()
                        restarted = True
                        break
                    self.stats.candidates_proposed += 1
                    candidate = ConjunctivePredicate(candidate.conjuncts + [conjunct])
                if restarted:
                    continue
            return self._result(Status.FAILURE, None, iterations, "iteration limit reached")
        except InferenceTimeout as timeout:
            return self._result(Status.TIMEOUT, None, iterations, str(timeout))
        except SynthesisFailure as failure:
            return self._result(Status.SYNTHESIS_FAILURE, None, iterations, str(failure))
        except NotImplementedError as unsupported:
            return self._result(Status.FAILURE, None, iterations, str(unsupported))

    def _result(self, status: str, invariant, iterations: int, message: str = "") -> InferenceResult:
        self.stats.finish()
        return InferenceResult(
            benchmark=self.definition.name,
            mode=self.MODE,
            status=status,
            invariant=invariant,
            stats=self.stats,
            message=message,
            iterations=iterations,
            events=self.events,
        )
