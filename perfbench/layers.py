"""Per-layer attribution for the traced run, from outside the program.

A :class:`Tracer` replaces the public entry points of each layer with thin
wrappers that record a span around the call.  Wrappers are installed only
for the traced pass and removed afterwards, so untraced passes run the
program's own code objects.  Module-level functions are patched at every
place they are looked up (the ``from x import f`` sites), not only where
they are defined.

A layer's *self time* is the time inside its spans minus the time inside
spans nested in them, so the self times of all layers are disjoint and sum
to no more than the pass's wall time; what is left is ``unattributed_s``.
Work counts come from the results' public ``InferenceStats`` wherever those
cover them, and from the wrappers otherwise.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, List, Sequence, Tuple

__all__ = ["LAYERS", "Layer", "Tracer", "layer_metrics"]


@dataclass(frozen=True)
class Layer:
    """One layer and the end-to-end metric a gain there should move."""

    name: str
    moves: str


#: The layers, bottom up; :meth:`Tracer.install` shows what each wraps.
LAYERS: Tuple[Layer, ...] = (
    Layer("lang", "wall_norm on builtins-quick"),
    Layer("enumeration", "wall_norm on builtins-quick"),
    Layer("synth", "wall_norm on builtins-quick and warm-cache; module_p50_norm on corpus-quick"),
    Layer("verify", "wall_norm on builtins-quick"),
    Layer("inductive", "wall_norm on builtins-quick and warm-cache"),
    Layer("core", "cegis_iterations on every workload; module_p50_norm on corpus-quick"),
    Layer("analysis", "module_p50_norm on warm-cache and corpus-quick"),
    Layer("spec", "module_p50_norm on corpus-quick"),
    Layer("serve", "wall_norm on warm-cache"),
)


class Tracer:
    """Span bookkeeping plus the patches that feed it."""

    def __init__(self) -> None:
        #: span bucket (``layer`` or ``layer.part``) -> self seconds
        self.self_s: Dict[str, float] = defaultdict(float)
        #: counter name -> count
        self.counts: Dict[str, int] = defaultdict(int)
        # One [child seconds] cell per open span, innermost last.
        self._stack: List[List[float]] = []
        # Budgets of the evaluator calls currently open: a nested call that
        # shares its caller's budget is already inside the caller's delta.
        self._open_budgets: Dict[int, int] = {}
        # Open spans per bucket, for counting outermost calls only.
        self._open: Dict[str, int] = defaultdict(int)
        self._patches: List[Tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def timed(self, bucket: str, call: Callable, /, *args, **kwargs):
        """Call ``call`` inside a span charged to ``bucket``."""
        stack = self._stack
        cell = [0.0]
        stack.append(cell)
        start = perf_counter()
        try:
            return call(*args, **kwargs)
        finally:
            elapsed = perf_counter() - start
            stack.pop()
            self.self_s[bucket] += elapsed - cell[0]
            if stack:
                stack[-1][0] += elapsed

    def timed_iter(self, bucket: str, iterator, counter: str):
        """Re-yield ``iterator``, charging each step to ``bucket``."""
        try:
            while True:
                try:
                    item = self.timed(bucket, next, iterator)
                except StopIteration:
                    return
                self.counts[counter] += 1
                yield item
        finally:
            close = getattr(iterator, "close", None)
            if close is not None:
                close()

    def lang_call(self, call: Callable, budget, /, *args, **kwargs):
        """An evaluator entry: a span plus the fuel it spent and its errors."""
        from repro.lang.errors import LangError

        key = id(budget)
        outer = key not in self._open_budgets
        self._open_budgets[key] = self._open_budgets.get(key, 0) + 1
        before = budget.remaining
        self.counts["lang.calls"] += 1
        self._open["lang"] += 1
        try:
            return self.timed("lang", call, *args, **kwargs)
        except LangError:
            if self._open["lang"] == 1:
                self.counts["lang.errors"] += 1
            raise
        finally:
            self._open["lang"] -= 1
            self._open_budgets[key] -= 1
            if not self._open_budgets[key]:
                del self._open_budgets[key]
            if outer:
                self.counts["lang.steps"] += before - budget.remaining

    # -- patching --------------------------------------------------------------

    def _patch(self, owner, name: str, replacement) -> None:
        # Class attributes are read from __dict__ so restoring puts back the
        # exact object (a function, not a bound method).
        original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        self._patches.append((owner, name, original))
        setattr(owner, name, replacement)

    def _span(self, owner, name: str, bucket: str, counter: str = "") -> None:
        """Wrap ``owner.name``; ``counter`` counts calls not nested in the
        same bucket (``load_module_file`` calls ``load_module_text``)."""
        original = getattr(owner, name)
        tracer = self
        open_spans = self._open

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if counter and not open_spans[bucket]:
                tracer.counts[counter] += 1
            open_spans[bucket] += 1
            try:
                return tracer.timed(bucket, original, *args, **kwargs)
            finally:
                open_spans[bucket] -= 1

        self._patch(owner, name, wrapper)

    def _function_at_sites(self, function: str, sites: Sequence[str], bucket: str,
                           counter: str = "") -> None:
        """Wrap one module-level function at each module that looks it up."""
        defining = None
        for site in sites:
            module = importlib.import_module(site)
            original = getattr(module, function)
            if defining is None:
                defining = original
            if original is not defining:
                raise RuntimeError(f"{site}.{function} is not the function it imports")
            self._span(module, function, bucket, counter)

    def install(self) -> None:
        """Wrap every layer's entry points; a tracer installs once."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        evaluation = importlib.import_module("repro.lang.eval")
        from repro.core.hanoi import HanoiInference
        from repro.enumeration.functions import FunctionEnumerator
        from repro.enumeration.values import ValueEnumerator
        from repro.inductive.relation import ConditionalInductivenessChecker
        from repro.serve.diskcache import PersistentCacheBinding
        from repro.synth.bottomup import TermPool
        from repro.synth.myth import MythSynthesizer
        from repro.verify.tester import Verifier

        tracer = self
        budget_type = evaluation.EvalBudget
        evaluator = evaluation.Evaluator
        apply_original = evaluator.apply
        eval_original = evaluator.eval

        # The evaluator creates a fresh budget when given none; doing the
        # same here lets the wrapper read how much fuel the call spent.
        @functools.wraps(apply_original)
        def apply(self, fn, *args, budget=None):
            if budget is None:
                budget = budget_type(self.default_fuel)
            return tracer.lang_call(apply_original, budget, self, fn, *args, budget=budget)

        @functools.wraps(eval_original)
        def eval_(self, expr, env=None, budget=None):
            if budget is None:
                budget = budget_type(self.default_fuel)
            return tracer.lang_call(eval_original, budget, self, expr, env, budget)

        self._patch(evaluator, "apply", apply)
        self._patch(evaluator, "eval", eval_)

        enumerate_original = ValueEnumerator.enumerate

        @functools.wraps(enumerate_original)
        def enumerate_(*args, **kwargs):
            return tracer.timed_iter("enumeration", enumerate_original(*args, **kwargs),
                                     "enumeration.values")

        self._patch(ValueEnumerator, "enumerate", enumerate_)
        self._span(FunctionEnumerator, "functions", "enumeration",
                   "enumeration.function_calls")

        self._span(MythSynthesizer, "synthesize", "synth", "synth.calls")
        self._span(TermPool, "__init__", "synth.pool", "synth.pools")
        self._span(Verifier, "check_sufficiency", "verify", "verify.calls")

        check_original = ConditionalInductivenessChecker.check

        @functools.wraps(check_original)
        def check(self, p, q, p_pool=None, operations=None):
            kind = "visible" if p_pool is not None else "full"
            tracer.counts[f"inductive.{kind}_checks"] += 1
            return tracer.timed("inductive", check_original, self, p, q, p_pool, operations)

        self._patch(ConditionalInductivenessChecker, "check", check)

        self._span(HanoiInference, "__init__", "core")
        self._span(HanoiInference, "infer", "core")
        self._function_at_sites("canonical_hash",
                                ("repro.core.hanoi", "repro.serve.diskcache"), "analysis")
        self._function_at_sites("declaration_dependency_hashes",
                                ("repro.serve.diskcache",), "analysis")
        self._function_at_sites("split_components", ("repro.synth.myth",), "analysis")
        loaders = ("repro.spec.loader", "repro.spec", "repro")
        self._function_at_sites("load_module_text", loaders, "spec", "spec.loads")
        self._function_at_sites("load_module_file", loaders, "spec", "spec.loads")
        self._span(PersistentCacheBinding, "restore", "serve.restore")
        self._span(PersistentCacheBinding, "persist", "serve.persist")

    def uninstall(self) -> None:
        """Put back every original, last patch first."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- totals ------------------------------------------------------------------

    def layer_self_s(self, layer: str) -> float:
        return sum(seconds for bucket, seconds in self.self_s.items()
                   if bucket.split(".")[0] == layer)

    def total_self_s(self) -> float:
        return sum(self.self_s.values())


def _ratio(hits: int, misses: int) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def layer_metrics(tracer: Tracer, results: Sequence, traced_wall_s: float,
                  untraced_wall_s: float) -> Dict[str, float]:
    """The per-layer metrics of one traced pass over ``results``."""
    stats = [result.stats for result in results]

    def total(field: str) -> int:
        return sum(getattr(s, field) for s in stats)

    counts = tracer.counts
    metrics: Dict[str, float] = {
        "lang.self_s": tracer.layer_self_s("lang"),
        "lang.calls": counts["lang.calls"],
        "lang.steps": counts["lang.steps"],
        "lang.errors": counts["lang.errors"],
        "enumeration.self_s": tracer.layer_self_s("enumeration"),
        "enumeration.values": counts["enumeration.values"],
        "enumeration.function_calls": counts["enumeration.function_calls"],
        "synth.self_s": tracer.layer_self_s("synth"),
        "synth.calls": counts["synth.calls"],
        "synth.pools": counts["synth.pools"],
        "synth.pool_self_s": tracer.self_s["synth.pool"],
        "synth.pool_cache_hit_ratio": _ratio(total("pool_cache_hits"),
                                             total("pool_cache_misses")),
        "synth.result_cache_hits": total("synthesis_cache_hits"),
        "verify.self_s": tracer.layer_self_s("verify"),
        "verify.calls": counts["verify.calls"],
        "verify.structures": total("structures_tested"),
        "verify.eval_cache_hit_ratio": _ratio(total("eval_cache_hits"),
                                              total("eval_cache_misses")),
        "inductive.self_s": tracer.layer_self_s("inductive"),
        "inductive.visible_checks": counts["inductive.visible_checks"],
        "inductive.full_checks": counts["inductive.full_checks"],
        "core.self_s": tracer.layer_self_s("core"),
        "core.iterations": sum(result.iterations for result in results),
        "core.trace_replays": total("trace_replays"),
        "analysis.self_s": tracer.layer_self_s("analysis"),
        "spec.self_s": tracer.layer_self_s("spec"),
        "spec.loads": counts["spec.loads"],
        "serve.restore_s": tracer.self_s["serve.restore"],
        "serve.persist_s": tracer.self_s["serve.persist"],
        "serve.disk_hits": total("disk_cache_hits"),
        "serve.disk_misses": total("disk_cache_misses"),
        "trace.overhead_frac": traced_wall_s / untraced_wall_s - 1.0,
        "unattributed_s": traced_wall_s - tracer.total_self_s(),
    }
    return metrics
