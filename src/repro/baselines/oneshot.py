"""The OneShot baseline: one-shot learning instead of CEGIS.

Section 5.5: "The OneShot algorithm runs the specification over the smallest
30 elements of the concrete implementation type, tagging each element as
either positive or negative.  Doing so generates sets V+ and V-, which may be
supplied to the synthesizer.  Whatever invariant synthesized is returned as
the result.  (This algorithm only works when the specification quantifies
over a single element of the abstract type...)"

The paper reports that OneShot fails on all but one benchmark, either because
the synthesis problem becomes too hard with that many examples or because the
fixed example budget under- or over-specifies the invariant.  To reproduce
that evaluation we validate the returned invariant post hoc (sufficiency and
full inductiveness) and report failure when it does not hold.
"""

from __future__ import annotations

import itertools
from typing import List

from ..core.result import InferenceResult, Status
from ..core.run import InferenceRun
from ..lang.types import mentions_abstract
from ..lang.values import Value, bool_of_value
from ..verify.result import Valid

__all__ = ["OneShotInference"]

#: Number of smallest concrete values labelled by the specification.
ONESHOT_SAMPLE = 30


class OneShotInference(InferenceRun):
    """The OneShot mode of the paper's Figure 8."""

    MODE = "oneshot"

    def _infer(self) -> InferenceResult:
        definition = self.definition
        if definition.spec_abstract_arity != 1:
            return self._result(
                Status.FAILURE, None,
                "OneShot only applies when the specification quantifies over a "
                "single abstract value",
            )
        # One synthesis call, counted as one iteration however it ends.
        self.iterations = 1
        positives, negatives = self._label_samples()
        candidates = self.synthesizer.synthesize(positives, negatives)
        self.stats.candidates_proposed += 1
        candidate = candidates[0]

        # Post-hoc validation: is the one-shot invariant actually sufficient
        # and inductive?  (The paper's evaluation counts it as a failure
        # otherwise.)
        if not isinstance(self.verifier.check_sufficiency(candidate), Valid):
            return self._result(Status.FAILURE, candidate,
                                "one-shot invariant is not sufficient")
        if not isinstance(self.checker.check(p=candidate, q=candidate, p_pool=None), Valid):
            return self._result(Status.FAILURE, candidate,
                                "one-shot invariant is not inductive")
        return self._result(Status.SUCCESS, candidate)

    # -- labelling -------------------------------------------------------------------

    def _label_samples(self):
        """Label the smallest concrete values by evaluating the specification.

        A value is positive when the specification holds for every enumerated
        instantiation of the remaining (base-type) quantifiers.
        """
        interface_signature = self.definition.spec_signature
        concrete_signature = self.instance.spec_concrete_signature()
        abstract_index = next(
            i for i, ty in enumerate(interface_signature) if mentions_abstract(ty)
        )

        base_pools: List[List[Value]] = []
        for i, concrete_type in enumerate(concrete_signature):
            if i == abstract_index:
                base_pools.append([])
                continue
            base_pools.append(
                list(self.enumerator.enumerate(
                    concrete_type,
                    max_size=self.config.verifier_bounds.max_nodes_multi,
                    max_count=self.config.verifier_bounds.max_base_values,
                ))
            )

        samples = self.enumerator.smallest(self.instance.concrete_type, ONESHOT_SAMPLE)
        positives, negatives = [], []
        with self.emitter.span("oneshot-labelling",
                               {"samples": len(samples)} if self.emitter.enabled else None):
            with self.stats.verification():
                for value in samples:
                    self.deadline.check()
                    if self._satisfies_spec(value, abstract_index, base_pools):
                        positives.append(value)
                    else:
                        negatives.append(value)
        return positives, negatives

    def _satisfies_spec(self, value: Value, abstract_index: int,
                        base_pools: List[List[Value]]) -> bool:
        assignments = [[value] if i == abstract_index else pool
                       for i, pool in enumerate(base_pools)]
        for assignment in itertools.product(*assignments):
            self.stats.structures_tested += 1
            if not bool_of_value(self.instance.call_spec(*assignment)):
                return False
        return True
