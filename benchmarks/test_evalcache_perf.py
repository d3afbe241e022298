"""Benchmark harness for the verification evaluation cache.

Two angles on the same optimization:

* the end-to-end ablation (full Hanoi runs over the multi-iteration subset,
  cache on vs. off) - the wall-clock speedup ``python -m repro run`` users
  see, reported per variant so the comparison shows up in the
  pytest-benchmark table;
* the replayed hot path in isolation (a warmed verifier re-checking the
  oracle invariant) - the asymptotic win, with all first-pass spec
  evaluation amortized away.

Run with ``pytest benchmarks/test_evalcache_perf.py --benchmark-only``.
"""

import pytest

from repro.core.hanoi import HanoiInference
from repro.core.predicate import Predicate
from repro.core.stats import InferenceStats
from repro.enumeration.functions import FunctionEnumerator
from repro.enumeration.values import ValueEnumerator
from repro.inductive.relation import ConditionalInductivenessChecker
from repro.suite.registry import get_benchmark
from repro.verify.evalcache import EvaluationCache
from repro.verify.result import Valid
from repro.verify.tester import Verifier

#: Benchmarks whose quick-profile runs take many CEGIS iterations - the case
#: the cache exists for (re-checks dominated by redundant evaluation).
MULTI_ITERATION_SUBSET = [
    "/coq/sorted-list-::-set",
    "/other/stutter-list",
    "/coq/maxfirst-list-::-heap",
]


@pytest.mark.parametrize("variant", ["eval-cache", "no-eval-cache"])
def test_inference_ablation(benchmark, quick_config, variant):
    """Full inference over the multi-iteration subset, cache on vs. off."""
    config = (quick_config if variant == "eval-cache"
              else quick_config.without_evaluation_caching())
    definitions = [get_benchmark(name) for name in MULTI_ITERATION_SUBSET]

    def run():
        return [HanoiInference(definition, config=config, mode_name=variant).infer()
                for definition in definitions]

    results = benchmark.pedantic(run, iterations=1, rounds=2)
    assert all(result.succeeded for result in results)
    hits = sum(result.stats.eval_cache_hits for result in results)
    misses = sum(result.stats.eval_cache_misses for result in results)
    if variant == "eval-cache":
        assert hits > 0
    else:
        assert hits == 0 and misses == 0
    benchmark.extra_info.update({
        "variant": variant,
        "eval_cache_hits": hits,
        "eval_cache_misses": misses,
        "iterations": sum(result.iterations for result in results),
    })


@pytest.mark.parametrize("variant", ["eval-cache", "no-eval-cache"])
def test_reverification_hot_path(benchmark, quick_config, variant):
    """A re-check of an already-seen candidate.

    This is the per-iteration cost inside the CEGIS loop once the spec stream
    is warm - the quantity the cache optimizes.  The inductiveness check has
    no cache of its own, so it costs the same in both variants.
    """
    instance = get_benchmark("/coq/sorted-list-::-set").instantiate()
    invariant = Predicate.from_source(
        get_benchmark("/coq/sorted-list-::-set").expected_invariant, instance.program)
    bounds = quick_config.verifier_bounds
    cache = EvaluationCache() if variant == "eval-cache" else None
    stats = InferenceStats()
    verifier = Verifier(instance, bounds=bounds, stats=stats, eval_cache=cache)
    checker = ConditionalInductivenessChecker(
        instance, ValueEnumerator(instance.program.types), FunctionEnumerator(instance),
        bounds, stats)

    def check():
        sufficiency = verifier.check_sufficiency(invariant)
        inductiveness = checker.check(invariant, invariant)
        return sufficiency, inductiveness

    check()  # warm the stream (a no-op for the uncached variant)
    sufficiency, inductiveness = benchmark(check)
    assert isinstance(sufficiency, Valid) and isinstance(inductiveness, Valid)
    if cache is not None:
        assert stats.eval_cache_hits > 0
    benchmark.extra_info.update({
        "variant": variant,
        "eval_cache_hits": stats.eval_cache_hits,
        "eval_cache_misses": stats.eval_cache_misses,
    })
