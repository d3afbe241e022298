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

from typing import List, Optional

from ..core.config import HanoiConfig, InferenceTimeout
from ..core.hanoi import SynthesizerFactory
from ..core.module import ModuleDefinition
from ..core.result import InferenceResult, Status
from ..core.stats import InferenceStats
from ..enumeration.functions import FunctionEnumerator
from ..enumeration.values import ValueEnumerator
from ..inductive.relation import ConditionalInductivenessChecker
from ..lang.types import mentions_abstract
from ..lang.values import Value, bool_of_value
from ..obs.sinks import emitter_for_run
from ..synth.base import SynthesisFailure
from ..synth.myth import MythSynthesizer
from ..synth.poolcache import SynthesisEvaluationCache
from ..verify.evalcache import EvaluationCache
from ..verify.result import Valid
from ..verify.tester import Verifier

__all__ = ["OneShotInference"]

#: Number of smallest concrete values labelled by the specification.
ONESHOT_SAMPLE = 30


class OneShotInference:
    """The OneShot mode of the paper's Figure 8."""

    MODE = "oneshot"

    def __init__(self, module: ModuleDefinition, config: Optional[HanoiConfig] = None,
                 synthesizer_factory: Optional[SynthesizerFactory] = None,
                 sample_size: int = ONESHOT_SAMPLE,
                 emitter: Optional[object] = None):
        self.config = config or HanoiConfig()
        self.definition = module
        self.instance = module.instantiate(fuel=self.config.eval_fuel)
        self.sample_size = sample_size
        self.stats = InferenceStats()
        self.deadline = self.config.deadline()
        # Baselines emit spans only, never legacy loop events, so their
        # ``InferenceResult.events`` (and stored rows) stay exactly as before.
        self.emitter = emitter if emitter is not None else (
            emitter_for_run(f"{module.name}/{self.MODE}"))
        self.enumerator = ValueEnumerator(self.instance.program.types)
        eval_cache = EvaluationCache() if self.config.evaluation_caching else None
        self.verifier = Verifier(self.instance, self.enumerator, self.config.verifier_bounds,
                                 self.stats, self.deadline, eval_cache=eval_cache,
                                 emitter=self.emitter)
        self.checker = ConditionalInductivenessChecker(
            self.instance, self.enumerator, FunctionEnumerator(self.instance),
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
        definition = self.definition
        if definition.spec_abstract_arity != 1:
            return self._result(
                Status.FAILURE, None, 0,
                "OneShot only applies when the specification quantifies over a "
                "single abstract value",
            )
        try:
            positives, negatives = self._label_samples()
            candidates = self.synthesizer.synthesize(positives, negatives)
            self.stats.candidates_proposed += 1
            candidate = candidates[0]

            # Post-hoc validation: is the one-shot invariant actually sufficient
            # and inductive?  (The paper's evaluation counts it as a failure
            # otherwise.)
            if not isinstance(self.verifier.check_sufficiency(candidate), Valid):
                return self._result(Status.FAILURE, candidate, 1,
                                    "one-shot invariant is not sufficient")
            if not isinstance(self.checker.check(p=candidate, q=candidate, p_pool=None), Valid):
                return self._result(Status.FAILURE, candidate, 1,
                                    "one-shot invariant is not inductive")
            return self._result(Status.SUCCESS, candidate, 1)
        except InferenceTimeout as timeout:
            return self._result(Status.TIMEOUT, None, 1, str(timeout))
        except SynthesisFailure as failure:
            return self._result(Status.SYNTHESIS_FAILURE, None, 1, str(failure))
        except NotImplementedError as unsupported:
            return self._result(Status.FAILURE, None, 1, str(unsupported))

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

        samples = self.enumerator.smallest(self.instance.concrete_type, self.sample_size)
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
        # Iterate the cartesian product of the base pools.
        def recurse(index: int, chosen: List[Value]) -> bool:
            if index == len(assignments):
                self.stats.structures_tested += 1
                return bool_of_value(self.instance.call_spec(*chosen))
            return all(recurse(index + 1, chosen + [v]) for v in assignments[index])

        return recurse(0, [])

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
        )
