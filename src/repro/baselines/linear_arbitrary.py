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

from typing import List, Optional, Set

from ..core.config import HanoiConfig, InferenceTimeout
from ..core.hanoi import SynthesizerFactory
from ..core.module import ModuleDefinition
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

__all__ = ["LinearArbitraryInference"]


class LinearArbitraryInference:
    """The LA mode of the paper's Figure 8."""

    MODE = "linear-arbitrary"

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

                candidate = self.synthesizer.synthesize(positives, negatives)[0]
                self.stats.candidates_proposed += 1

                sufficiency = self.verifier.check_sufficiency(candidate)
                if isinstance(sufficiency, SufficiencyCounterexample):
                    witnesses = set(sufficiency.witnesses)
                    fresh = witnesses - positives
                    if not fresh:
                        return self._result(Status.SPEC_VIOLATION, None, iterations,
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

                return self._result(Status.SUCCESS, candidate, iterations)
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
