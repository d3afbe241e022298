"""Micro-benchmarks of the substrates the inference loop is built on.

These are not paper experiments; they track the cost of the pieces that
dominate inference time (object-language evaluation, value enumeration,
synthesis, a single inductiveness check) so performance regressions in the
substrates are visible independently of the end-to-end figures.
"""

import pytest

from repro.core.config import FAST_VERIFIER_BOUNDS, SynthesisBounds
from repro.core.predicate import Predicate
from repro.core.stats import InferenceStats
from repro.enumeration.values import ValueEnumerator
from repro.inductive.relation import ConditionalInductivenessChecker
from repro.lang.parser import parse_expression
from repro.lang.types import TData, arrow
from repro.lang.values import nat_of_int, v_list
from repro.suite.registry import get_benchmark
from repro.synth.myth import MythSynthesizer
from repro.verify.tester import Verifier


@pytest.fixture(scope="module")
def listset_instance():
    return get_benchmark("/coq/unique-list-::-set").instantiate()


def test_eval_lookup(benchmark, listset_instance):
    """Cost of evaluating a module operation on a moderate structure."""
    values = v_list([nat_of_int(i) for i in range(8)])
    needle = nat_of_int(7)
    benchmark(lambda: listset_instance.program.call("lookup", values, needle))


def test_value_enumeration(benchmark, listset_instance):
    """Cost of enumerating the smallest 300 lists."""
    def run():
        enumerator = ValueEnumerator(listset_instance.program.types)
        return enumerator.smallest(listset_instance.concrete_type, 300)
    result = benchmark(run)
    assert len(result) == 300


def test_synthesis_call(benchmark, listset_instance):
    """Cost of one synthesis call on a representative example set."""
    synthesizer = MythSynthesizer(listset_instance)
    positives = [v_list([]), v_list([nat_of_int(1)]), v_list([nat_of_int(0)])]
    negatives = [v_list([nat_of_int(1), nat_of_int(1)])]
    result = benchmark(lambda: synthesizer.synthesize(positives, negatives))
    assert result


def test_sufficiency_check(benchmark, listset_instance):
    """Cost of one sufficiency verification call."""
    verifier = Verifier(listset_instance, bounds=FAST_VERIFIER_BOUNDS)
    invariant = Predicate.from_source(
        get_benchmark("/coq/unique-list-::-set").expected_invariant,
        listset_instance.program,
    )
    benchmark(lambda: verifier.check_sufficiency(invariant))


def test_full_inductiveness_check(benchmark, listset_instance):
    """Cost of one full-inductiveness check."""
    checker = ConditionalInductivenessChecker(listset_instance, bounds=FAST_VERIFIER_BOUNDS)
    invariant = Predicate.from_source(
        get_benchmark("/coq/unique-list-::-set").expected_invariant,
        listset_instance.program,
    )
    benchmark(lambda: checker.check(invariant, invariant))


def test_inductiveness_check_traced(benchmark, listset_instance):
    """Cost of the same check with tracing *on* (records fed to a no-op
    sink), so the price of live instrumentation stays visible next to the
    untraced number above."""
    from repro.obs.events import Emitter

    class NullSink:
        def handle(self, record):
            pass

    checker = ConditionalInductivenessChecker(
        listset_instance, bounds=FAST_VERIFIER_BOUNDS,
        emitter=Emitter(sinks=[NullSink()], run="bench/traced"))
    invariant = Predicate.from_source(
        get_benchmark("/coq/unique-list-::-set").expected_invariant,
        listset_instance.program,
    )
    benchmark(lambda: checker.check(invariant, invariant))


def test_component_pruning_speedup(listset_instance):
    """Reachability pruning must pay for itself: against a component set
    padded with six junk components (each consuming nat, producing a type
    nothing else consumes), the pruned synthesizer returns the identical
    candidate list measurably faster.  The curated built-ins carry no
    junk — this is what pruning buys on user-authored or generated
    modules with over-wide ``components`` directives."""
    import time as _time

    program = listset_instance.program
    succ = program.eval_expr(parse_expression("fun (n : nat) -> S n"))
    nat = TData("nat")
    junk = {f"ghost{i}": (arrow(nat, TData(f"ghost{i}")), succ)
            for i in range(6)}
    positives = [v_list([]), v_list([nat_of_int(1)]), v_list([nat_of_int(0)])]
    negatives = [v_list([nat_of_int(1), nat_of_int(1)])]

    def run(pruning):
        stats = InferenceStats()
        synthesizer = MythSynthesizer(
            listset_instance,
            bounds=SynthesisBounds(component_pruning=pruning),
            extra_components=junk, stats=stats)
        predicates = synthesizer.synthesize(positives, negatives)
        return [p.render() for p in predicates], stats

    pruned_preds, pruned_stats = run(True)
    ablated_preds, ablated_stats = run(False)
    # Equivalence first: pruning never changes what synthesis returns.
    assert pruned_preds == ablated_preds
    assert pruned_stats.components_pruned == len(junk)
    assert ablated_stats.components_pruned == 0

    def paired_minimums(repeats=9, calls=3):
        best_pruned = best_ablated = float("inf")
        for _ in range(repeats):
            start = _time.perf_counter()
            for _ in range(calls):
                run(True)
            best_pruned = min(best_pruned, _time.perf_counter() - start)
            start = _time.perf_counter()
            for _ in range(calls):
                run(False)
            best_ablated = min(best_ablated, _time.perf_counter() - start)
        return best_pruned, best_ablated

    for _ in range(3):
        pruned, ablated = paired_minimums()
        if pruned <= ablated * 0.95:  # measured ~0.76 locally
            return
    raise AssertionError(
        f"component pruning no longer speeds up junk-padded synthesis: "
        f"{pruned:.4f}s pruned vs {ablated:.4f}s ablated")


def test_analysis_overhead_under_five_percent():
    """The whole static-analysis layer (all lint passes + the canonical
    content hash) must stay below 5% of a quick-profile inference run on
    the same module — it runs once per module load, so it has to be
    invisible next to inference itself."""
    import time as _time

    from repro.analysis.lint import analyze_definition
    from repro.experiments.runner import quick_config, run_module

    definition = get_benchmark("/coq/unique-list-::-set")
    config = quick_config()
    run_module(definition, mode="hanoi", config=config)  # warm up
    analyze_definition(definition)

    def paired_minimums(repeats=3, calls=1):
        best_infer = best_lint = float("inf")
        for _ in range(repeats):
            start = _time.perf_counter()
            for _ in range(calls):
                run_module(definition, mode="hanoi", config=config)
            best_infer = min(best_infer, _time.perf_counter() - start)
            start = _time.perf_counter()
            for _ in range(calls):
                report = analyze_definition(definition)
                assert report.ok and report.content_hash
            best_lint = min(best_lint, _time.perf_counter() - start)
        return best_infer, best_lint

    for _ in range(3):
        infer, lint = paired_minimums()
        if lint <= infer * 0.05:  # measured ~1.2% locally
            return
    raise AssertionError(
        f"analysis overhead is {lint / infer:.1%} of a quick inference run "
        f"(> 5%): {lint:.4f}s lint vs {infer:.4f}s inference")


def test_disabled_tracing_overhead_under_two_percent(listset_instance):
    """Zero-cost-when-off guard: components default to the shared disabled
    emitter, whose check is one attribute load and branch before the
    pre-observability code path.  Measured against the bare (un-wrapped)
    check body, the overhead must stay under 2%."""
    import time as _time

    checker = ConditionalInductivenessChecker(listset_instance, bounds=FAST_VERIFIER_BOUNDS)
    invariant = Predicate.from_source(
        get_benchmark("/coq/unique-list-::-set").expected_invariant,
        listset_instance.program,
    )
    assert not checker.emitter.enabled  # the default IS the disabled path

    def instrumented():
        checker.check(invariant, invariant)

    def bare():
        # The exact pre-observability body: timer context + check.
        with checker.stats.verification():
            checker._check(invariant, invariant, None)

    instrumented(), bare()  # warm up

    def paired_minimums(repeats=9, calls=3):
        """Interleave A/B timing so clock drift hits both sides equally."""
        best_a = best_b = float("inf")
        for _ in range(repeats):
            start = _time.perf_counter()
            for _ in range(calls):
                instrumented()
            best_a = min(best_a, _time.perf_counter() - start)
            start = _time.perf_counter()
            for _ in range(calls):
                bare()
            best_b = min(best_b, _time.perf_counter() - start)
        return best_a, best_b

    # Min-of-repeats damps scheduler noise; retry twice more before
    # declaring a >2% regression so one noisy attempt cannot fail the guard
    # (a real formatting-on-the-hot-path bug fails every attempt).
    for _ in range(3):
        with_obs, without_obs = paired_minimums()
        if with_obs <= without_obs * 1.02:
            return
    raise AssertionError(
        f"disabled tracing costs {(with_obs / without_obs - 1):.1%} "
        f"(> 2%) on a full inductiveness check: {with_obs:.4f}s vs "
        f"{without_obs:.4f}s")


def test_warm_persistent_cache_beats_cold_by_integer_factor(tmp_path):
    """The persistent tier's reason to exist: a warm-started run (all
    sections replayed from the content-addressed disk store) must finish at
    least 2x faster than a cold run that has to enumerate, verify, and
    write everything itself — with a byte-identical outcome."""
    import shutil
    import time as _time

    from repro.experiments.runner import quick_config, run_module
    from repro.gen.diff import outcome_fingerprint

    definition = get_benchmark("/coq/unique-list-::-set")
    base = quick_config()
    run_module(definition, mode="hanoi", config=base)  # warm the process

    warm_dir = tmp_path / "warm-store"
    warm_config = base.with_cache_dir(str(warm_dir))
    cold_result = run_module(definition, mode="hanoi", config=warm_config)
    warm_result = run_module(definition, mode="hanoi", config=warm_config)
    assert outcome_fingerprint(warm_result) == outcome_fingerprint(cold_result)
    assert warm_result.stats.disk_cache_hits > 0
    assert warm_result.stats.disk_cache_misses == 0

    def paired_minimums(repeats=3):
        best_cold = best_warm = float("inf")
        for index in range(repeats):
            cold_dir = tmp_path / f"cold-store-{index}"
            start = _time.perf_counter()
            run_module(definition, mode="hanoi",
                       config=base.with_cache_dir(str(cold_dir)))
            best_cold = min(best_cold, _time.perf_counter() - start)
            shutil.rmtree(cold_dir)
            start = _time.perf_counter()
            run_module(definition, mode="hanoi", config=warm_config)
            best_warm = min(best_warm, _time.perf_counter() - start)
        return best_cold, best_warm

    for _ in range(3):
        cold, warm = paired_minimums()
        if cold >= warm * 2.0:  # measured ~3.0x locally
            return
    raise AssertionError(
        f"warm start no longer beats cold by 2x: {warm:.4f}s warm vs "
        f"{cold:.4f}s cold ({cold / warm:.2f}x)")


def test_disabled_persistence_overhead_under_two_percent():
    """Zero-cost-when-off guard for the persistent tier: with
    ``cache_dir=None`` (the default) the integration is one falsy config
    check at construction and one ``persistent is None`` check after the
    loop — no import of the serve package, no disk I/O.  Measured against
    the same run with the two seams stubbed out entirely, the overhead
    must stay under 2%."""
    import time as _time

    from repro.core.hanoi import HanoiInference
    from repro.experiments.runner import quick_config, run_module

    definition = get_benchmark("/coq/unique-list-::-set")
    config = quick_config()
    assert config.cache_dir is None
    run_module(definition, mode="hanoi", config=config)  # warm up

    stubbed_persist = lambda self: None  # noqa: E731

    def with_seams():
        result = run_module(definition, mode="hanoi", config=config)
        assert result.stats.disk_cache_hits == 0
        assert result.stats.disk_cache_misses == 0

    def without_seams(_real=HanoiInference._persist_caches):
        HanoiInference._persist_caches = stubbed_persist
        try:
            run_module(definition, mode="hanoi", config=config)
        finally:
            HanoiInference._persist_caches = _real

    def paired_minimums(repeats=5):
        best_on = best_off = float("inf")
        for _ in range(repeats):
            start = _time.perf_counter()
            with_seams()
            best_on = min(best_on, _time.perf_counter() - start)
            start = _time.perf_counter()
            without_seams()
            best_off = min(best_off, _time.perf_counter() - start)
        return best_on, best_off

    for _ in range(3):
        on, off = paired_minimums()
        if on <= off * 1.02:
            return
    raise AssertionError(
        f"disabled persistence costs {(on / off - 1):.1%} (> 2%) per run: "
        f"{on:.4f}s with the seams vs {off:.4f}s without")
