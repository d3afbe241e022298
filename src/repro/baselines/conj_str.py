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

from ..core.predicate import Predicate
from ..core.result import InferenceResult, Status
from ..core.run import InferenceRun
from ..lang.values import Value
from ..synth.base import SynthesisFailure
from ..verify.result import InductivenessCounterexample, SufficiencyCounterexample

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


class ConjunctiveStrengtheningInference(InferenceRun):
    """The ∧Str mode of the paper's Figure 8."""

    MODE = "conj-str"

    def _infer(self) -> Optional[InferenceResult]:
        positives: Set[Value] = set()
        negatives: Set[Value] = set()
        while self._step():
            # Find a candidate that is at least sufficient.
            base = self.synthesizer.synthesize(positives, negatives)[0]
            self.stats.candidates_proposed += 1
            sufficiency = self.verifier.check_sufficiency(base)
            if isinstance(sufficiency, SufficiencyCounterexample):
                witnesses = set(sufficiency.witnesses)
                fresh = witnesses - positives
                if not fresh:
                    return self._result(Status.SPEC_VIOLATION, None,
                                        "constructible specification violation")
                negatives |= fresh
                self.stats.negatives_added += len(fresh)
                continue

            # Strengthen by conjunction until inductive or over-strengthened.
            candidate = ConjunctivePredicate([base])
            while self._step():
                check = self.checker.check(p=candidate, q=candidate, p_pool=None)
                if not isinstance(check, InductivenessCounterexample):
                    return self._result(Status.SUCCESS, candidate)
                outputs = set(check.outputs)
                fresh = set(check.inputs) - positives
                # Conjoin a predicate separating the positives from the inputs
                # that caused the violation.
                conjunct = None
                if fresh:
                    try:
                        conjunct = self.synthesizer.synthesize(positives, fresh)[0]
                    except SynthesisFailure:
                        if not (outputs - positives):
                            raise
                if conjunct is None:
                    # Over-strengthened (the inputs are all in V+), or no
                    # conjunct separates them: the rejected outputs are
                    # constructible, so restart from the grown V+.
                    new_positives = outputs - positives
                    positives |= new_positives
                    self.stats.positives_added += len(new_positives)
                    negatives = set()
                    break
                self.stats.candidates_proposed += 1
                candidate = ConjunctivePredicate(candidate.conjuncts + [conjunct])
        return None
