"""The scaffold every inference mode runs on.

The paper defines Hanoi as a loop "parameterized by an example-based
synthesis engine and a verifier", and its Figure-8 baselines (∧Str, LA,
OneShot; Section 5.5) as other loops over the same two components.
:class:`InferenceRun` builds that shared stack once - the module instance,
the value enumerator, the verifier, the conditional-inductiveness checker,
the optional evaluation and pool caches, the synthesizer, the stats and the
deadline - and runs the loop the same way for every mode: it counts the
iterations (:meth:`InferenceRun._step`), maps how the loop stopped to a
status, owns the run's evaluator memo table, and records the run in one
``run`` span enclosing ``run-start`` and ``run-end`` (which carries the
final :meth:`~repro.core.stats.InferenceStats.counters`).  A mode subclasses it
and supplies only its loop body, as ``_infer``.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..enumeration.functions import FunctionEnumerator
from ..enumeration.values import ValueEnumerator
from ..inductive.relation import ConditionalInductivenessChecker
from ..lang.eval import memo_table
from ..obs.sinks import emitter_for_run
from ..synth.base import SynthesisFailure
from ..synth.myth import MythSynthesizer
from ..synth.poolcache import SynthesisEvaluationCache
from ..verify.evalcache import EvaluationCache
from ..verify.tester import Verifier
from .config import Deadline, HanoiConfig, InferenceTimeout
from .module import ModuleDefinition, ModuleInstance
from .result import InferenceResult, Status
from .stats import InferenceStats

__all__ = ["InferenceRun", "SynthesizerFactory", "MAX_ITERATIONS"]

SynthesizerFactory = Callable[..., object]

#: Safety valve on the number of iterations of one run.
MAX_ITERATIONS = 400


class InferenceRun:
    """One configured inference run over one module; subclasses add the loop.

    A subclass defines ``_infer``: it returns the run's result, or ``None``
    when :meth:`_step` ran out of iterations.  It may raise
    ``InferenceTimeout``, ``SynthesisFailure`` or ``NotImplementedError``;
    :meth:`_outcome` turns each into a status.

    ``emitter`` defaults to a live emitter over the installed trace sinks
    (or the shared null emitter when none is installed).  ``events`` is the
    run's loop log, ``InferenceResult.events``; modes that keep no log leave
    it empty.
    """

    #: The mode's name in results and trace run labels.
    MODE = ""

    def __init__(self, module: ModuleDefinition, config: Optional[HanoiConfig] = None,
                 synthesizer_factory: Optional[SynthesizerFactory] = None,
                 mode_name: Optional[str] = None, emitter: Optional[object] = None):
        self.config = config or HanoiConfig()
        self.definition = module
        self.instance: ModuleInstance = module.instantiate()
        self.mode_name = mode_name or self.MODE
        self.stats = InferenceStats()
        self.deadline: Deadline = self.config.deadline()
        self.emitter = emitter if emitter is not None else (
            emitter_for_run(f"{module.name}/{self.mode_name}"))
        self.events: List[dict] = []
        self.iterations = 0

        self.enumerator = ValueEnumerator(self.instance.program.types)
        self.eval_cache: Optional[EvaluationCache] = (
            EvaluationCache() if self.config.evaluation_caching else None
        )
        self.verifier = Verifier(
            self.instance, self.enumerator, self.config.verifier_bounds, self.stats,
            self.deadline, eval_cache=self.eval_cache, emitter=self.emitter,
        )
        self.checker = ConditionalInductivenessChecker(
            self.instance, self.enumerator, FunctionEnumerator(self.instance),
            self.config.verifier_bounds, self.stats, self.deadline,
            emitter=self.emitter,
        )
        self.pool_cache: Optional[SynthesisEvaluationCache] = (
            SynthesisEvaluationCache()
            if self.config.synthesis_evaluation_caching else None
        )
        factory = synthesizer_factory or MythSynthesizer
        self.synthesizer = factory(
            self.instance, stats=self.stats, deadline=self.deadline,
            pool_cache=self.pool_cache, emitter=self.emitter,
        )

    def infer(self) -> InferenceResult:
        """Run the mode's loop and return the outcome."""
        return self._traced(self._outcome)

    def _step(self) -> bool:
        """Start the next iteration: ``False`` once :data:`MAX_ITERATIONS`
        ran, otherwise count it and poll the deadline."""
        if self.iterations >= MAX_ITERATIONS:
            return False
        self.iterations += 1
        self.deadline.check()
        return True

    def _outcome(self) -> InferenceResult:
        """Run ``_infer``, mapping how it stopped to a status."""
        try:
            result = self._infer()
        except InferenceTimeout as timeout:
            return self._result(Status.TIMEOUT, None, str(timeout))
        except SynthesisFailure as failure:
            return self._result(Status.SYNTHESIS_FAILURE, None, str(failure))
        except NotImplementedError as unsupported:
            return self._result(Status.FAILURE, None, str(unsupported))
        if result is None:
            return self._result(Status.FAILURE, None, "iteration limit reached")
        return result

    def _traced(self, body: Callable[[], InferenceResult]) -> InferenceResult:
        """Run ``body`` over the run's memo table, inside the ``run`` span,
        between ``run-start`` and ``run-end``; with tracing off, no span.

        The table (:func:`repro.lang.eval.memo_table`) opens here, so every
        entry point (``infer_invariant``, a mode, ``run_module``) memoizes
        the same way; it is dropped on return or on a raise, because the
        result keeps the module's program alive.
        """
        with memo_table():
            emitter = self.emitter
            if not emitter.enabled:
                return body()
            identity = {"benchmark": self.definition.name, "mode": self.mode_name}
            with emitter.span("run", identity, cat="run"):
                emitter.emit("run-start", identity, cat="run")
                result = body()
                emitter.emit("run-end", {"status": result.status,
                                         "iterations": result.iterations,
                                         "stats": self.stats.counters()}, cat="run")
            return result

    def _result(self, status: str, invariant: Optional[object],
                message: str = "") -> InferenceResult:
        self.stats.finish()
        return InferenceResult(
            benchmark=self.definition.name,
            mode=self.mode_name,
            status=status,
            invariant=invariant,
            stats=self.stats,
            message=message,
            iterations=self.iterations,
            events=self.events,
        )
