"""The LA baseline: a LinearArbitrary-style counterexample strategy.

Section 5.5: "There are two differences from Hanoi.  First, LA tries to
satisfy individual inductiveness constraints, generated for each function in
the module, one at a time rather than all at once.  Second, rather than
eagerly searching for visible inductiveness violations, only full
inductiveness counterexamples are obtained.  However, if a full inductiveness
counterexample happens to also be a visible inductiveness counterexample then
it is treated accordingly."

Operationally: the loop never runs the ClosedPositives phase.  After a
candidate passes the sufficiency check, full inductiveness is checked
operation by operation; a counterexample whose inputs all lie in V+ is
treated as a positive counterexample (its outputs join V+), otherwise the
inputs outside V+ join V-.  Without the eager, directed weakening the search
can get "stuck in holes of negative counterexamples", which is what Figure 8
measures.
"""

from __future__ import annotations

from typing import Optional, Set

from ..core.result import InferenceResult, Status
from ..core.run import InferenceRun
from ..lang.values import Value
from ..verify.result import InductivenessCounterexample, SufficiencyCounterexample

__all__ = ["LinearArbitraryInference"]


class LinearArbitraryInference(InferenceRun):
    """The LA mode of the paper's Figure 8."""

    MODE = "linear-arbitrary"

    def _infer(self) -> Optional[InferenceResult]:
        positives: Set[Value] = set()
        negatives: Set[Value] = set()
        while self._step():
            candidate = self.synthesizer.synthesize(positives, negatives)[0]
            self.stats.candidates_proposed += 1

            sufficiency = self.verifier.check_sufficiency(candidate)
            if isinstance(sufficiency, SufficiencyCounterexample):
                witnesses = set(sufficiency.witnesses)
                fresh = witnesses - positives
                if not fresh:
                    return self._result(Status.SPEC_VIOLATION, None,
                                        "constructible specification violation")
                negatives |= fresh
                self.stats.negatives_added += len(fresh)
                continue

            check = self.checker.check(p=candidate, q=candidate, p_pool=None)
            if isinstance(check, InductivenessCounterexample):
                inputs = set(check.inputs)
                outputs = set(check.outputs)
                if inputs <= positives:
                    # The counterexample happens to be visible: resolve it the
                    # only correct way, by adding the outputs to V+.
                    new_positives = outputs - positives
                    positives |= new_positives
                    self.stats.positives_added += len(new_positives)
                    negatives -= positives
                else:
                    fresh = inputs - positives
                    negatives |= fresh
                    self.stats.negatives_added += len(fresh)
                continue

            return self._result(Status.SUCCESS, candidate)
        return None
