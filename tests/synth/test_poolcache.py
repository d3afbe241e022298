"""Tests for the cross-iteration synthesis evaluation (term-pool) cache.

Mirrors ``tests/verify/test_evalcache.py``: the cache must be *invisible* in
outcomes.  Every synthesis call returns exactly the candidate stream the
uncached enumeration would (same candidates, same order), and whole inference
runs produce byte-identical statuses, invariants, and event logs.  What
changes is only how much enumeration work repeats - asserted here through
the hit/miss counters.

Set ``POOLCACHE_FULL_EQUIVALENCE=1`` to extend the equivalence sweep from
the representative sample to all 28 registered built-ins (the CI
equivalence job does; it is too slow for the default tier-1 run).
"""

import os

import pytest

from repro.core.config import FAST_VERIFIER_BOUNDS, HanoiConfig
from repro.core.hanoi import HanoiInference
from repro.core.stats import InferenceStats
from repro.lang.types import TData
from repro.lang.values import nat_of_int, v_list
from repro.spec.loader import load_module_file
from repro.suite.registry import get_benchmark
from repro.synth.bottomup import TermPool, TypedComponent
from repro.synth.myth import MythSynthesizer
from repro.synth import bottomup, poolcache
from repro.synth.poolcache import CRASHED, SynthesisEvaluationCache

CONFIG = HanoiConfig(verifier_bounds=FAST_VERIFIER_BOUNDS, timeout_seconds=90)

#: Multi-iteration built-ins (plenty of repeated synthesis) plus
#: single-iteration ones (the cache must not change their behaviour either).
EQUIVALENCE_SAMPLE = [
    "/coq/unique-list-::-set",
    "/coq/sorted-list-::-set",
    "/other/stutter-list",
    "/other/sized-list",
    "/vfa/assoc-list-::-table",
]

MODULES_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "examples", "modules")
PACK_FILES = ["bounded-stack.hanoi", "two-list-queue.hanoi", "parity-counter.hanoi"]


class _RecordingSynthesizer(MythSynthesizer):
    """Logs the rendered candidate stream of every synthesize() call."""

    def __init__(self, *args, stream_log, **kwargs):
        super().__init__(*args, **kwargs)
        self._stream_log = stream_log

    def synthesize(self, positives, negatives):
        candidates = super().synthesize(positives, negatives)
        self._stream_log.append(tuple(p.render() for p in candidates))
        return candidates


def _recording_factory(stream_log):
    def factory(instance, **kwargs):
        return _RecordingSynthesizer(instance, stream_log=stream_log, **kwargs)
    return factory


def _run_pair(definition, config=CONFIG):
    """One inference run with the pool cache and one without, with the full
    candidate stream of every synthesis call recorded."""
    cached_stream, uncached_stream = [], []
    cached = HanoiInference(
        definition, config=config,
        synthesizer_factory=_recording_factory(cached_stream)).infer()
    uncached = HanoiInference(
        definition, config=config.without_synthesis_evaluation_caching(),
        synthesizer_factory=_recording_factory(uncached_stream)).infer()
    return cached, uncached, cached_stream, uncached_stream


def _assert_equivalent(cached, uncached, cached_stream, uncached_stream):
    assert cached.status == uncached.status
    assert cached.iterations == uncached.iterations
    assert cached.render_invariant() == uncached.render_invariant()
    # Counterexample events must match step for step: the cache may never
    # alter which candidate a synthesis call proposes.
    assert cached.events == uncached.events
    # ... and the full candidate stream (every alternative, in order) must be
    # byte-identical, not just the chosen candidates.
    assert cached_stream == uncached_stream
    assert uncached.stats.pool_cache_hits == 0
    assert uncached.stats.pool_cache_misses == 0


@pytest.mark.parametrize("name", EQUIVALENCE_SAMPLE)
def test_cached_and_uncached_inference_agree_on_builtins(name):
    cached, uncached, on_stream, off_stream = _run_pair(get_benchmark(name))
    _assert_equivalent(cached, uncached, on_stream, off_stream)
    assert cached.succeeded


@pytest.mark.parametrize("filename", PACK_FILES)
def test_cached_and_uncached_inference_agree_on_example_packs(filename):
    definition = load_module_file(os.path.join(MODULES_DIR, filename))
    cached, uncached, on_stream, off_stream = _run_pair(definition)
    _assert_equivalent(cached, uncached, on_stream, off_stream)
    assert cached.succeeded


@pytest.mark.skipif(os.environ.get("POOLCACHE_FULL_EQUIVALENCE") != "1",
                    reason="full 28-benchmark sweep; run by the CI equivalence job")
def test_cached_and_uncached_inference_agree_on_all_builtins():
    from repro.suite.registry import all_benchmark_names

    config = HanoiConfig(verifier_bounds=FAST_VERIFIER_BOUNDS, timeout_seconds=45)
    for name in all_benchmark_names():
        cached, uncached, on_stream, off_stream = _run_pair(get_benchmark(name), config)
        if "timeout" in (cached.status, uncached.status):
            # A wall-clock cutoff truncates the two runs at different points;
            # there is no determinate stream to compare.
            continue
        _assert_equivalent(cached, uncached, on_stream, off_stream)


def test_multi_iteration_runs_hit_the_cache():
    result = HanoiInference(get_benchmark("/coq/sorted-list-::-set"), config=CONFIG).infer()
    assert result.succeeded
    assert result.iterations > 1
    assert result.stats.pool_cache_hits > 0
    assert result.stats.pool_cache_misses > 0
    # The counters travel through serialization with everything else.
    row = result.stats.as_dict()
    assert row["pool_cache_hits"] == result.stats.pool_cache_hits
    restored = InferenceStats.from_dict(result.stats.to_dict())
    assert restored.pool_cache_hits == result.stats.pool_cache_hits
    assert restored.pool_cache_misses == result.stats.pool_cache_misses


def test_config_toggle_disables_the_cache():
    engine = HanoiInference(
        get_benchmark("/coq/unique-list-::-set"),
        config=CONFIG.without_synthesis_evaluation_caching())
    assert engine.pool_cache is None
    assert engine.synthesizer.pool_cache is None
    enabled = HanoiInference(get_benchmark("/coq/unique-list-::-set"), config=CONFIG)
    assert enabled.pool_cache is not None
    assert enabled.synthesizer.pool_cache is enabled.pool_cache


# -- pool-level behaviour ---------------------------------------------------------


@pytest.fixture(scope="module")
def listset():
    return get_benchmark("/coq/unique-list-::-set").instantiate()


def _components(program):
    return [
        TypedComponent("nat_eq", program.global_type("nat_eq"), program.global_value("nat_eq")),
        TypedComponent("lookup", program.global_type("lookup"), program.global_value("lookup")),
    ]


def _pool(listset, cache, stats, environments):
    return TermPool(
        listset.program, _components(listset.program),
        context=[("x", TData("list")), ("n", TData("nat"))],
        environments=environments, max_size=5, cache=cache, stats=stats)


ENVIRONMENTS = [
    {"x": v_list([nat_of_int(1)]), "n": nat_of_int(1)},
    {"x": v_list([nat_of_int(2), nat_of_int(1)]), "n": nat_of_int(0)},
]


def test_identical_pools_replay_without_evaluation(listset):
    cache = SynthesisEvaluationCache()
    stats = InferenceStats()
    first = _pool(listset, cache, stats, ENVIRONMENTS)
    misses_after_first = stats.pool_cache_misses
    hits_after_first = stats.pool_cache_hits
    assert misses_after_first > 0
    assert len(cache.pools) == 1

    second = _pool(listset, cache, stats, ENVIRONMENTS)
    # The replay evaluated nothing new and credited exactly the avoided
    # per-environment applications (the same unit misses are counted in).
    assert stats.pool_cache_misses == misses_after_first
    assert stats.pool_cache_hits - hits_after_first == first._evaluations

    plain = _pool(listset, None, None, ENVIRONMENTS)
    for result_type in (TData("bool"), TData("nat"), TData("list")):
        replayed = [(str(e.expr), e.size, e.vector) for e in second.entries(result_type)]
        fresh = [(str(e.expr), e.size, e.vector) for e in plain.entries(result_type)]
        assert replayed == fresh


def test_changed_environments_rebuild_through_the_application_memo(listset):
    cache = SynthesisEvaluationCache()
    stats = InferenceStats()
    _pool(listset, cache, stats, ENVIRONMENTS)
    misses_after_first = stats.pool_cache_misses

    # A grown example set changes the pool key, so the skeleton is rebuilt -
    # but applications over previously seen argument values replay from the
    # memo, so only the new environment costs fresh evaluations.
    grown = ENVIRONMENTS + [{"x": v_list([]), "n": nat_of_int(2)}]
    hits_before = stats.pool_cache_hits
    rebuilt = _pool(listset, cache, stats, grown)
    assert len(cache.pools) == 2
    assert stats.pool_cache_hits > hits_before
    fresh = stats.pool_cache_misses - misses_after_first
    assert 0 < fresh < misses_after_first

    plain = _pool(listset, None, None, grown)
    assert ([str(e.expr) for e in rebuilt.entries(TData("bool"))]
            == [str(e.expr) for e in plain.entries(TData("bool"))])


def test_crash_outcomes_are_memoized(listset):
    from repro.lang.types import arrow
    from repro.lang.values import VNative

    calls = []

    def explode(value):
        calls.append(value)
        raise ValueError("component crash")

    program = listset.program
    crashy = TypedComponent("crashy", arrow(TData("nat"), TData("bool")),
                            VNative(explode, name="crashy"))

    cache = SynthesisEvaluationCache()
    stats = InferenceStats()
    environments = [{"n": nat_of_int(1)}, {"n": nat_of_int(2)}]

    TermPool(program, [crashy], [("n", TData("nat"))], environments,
             max_size=3, cache=cache, stats=stats)
    first_calls = len(calls)
    assert first_calls > 0
    assert cache.applications.get(crashy.fn, (nat_of_int(1),)) is CRASHED

    # A different pool (different context name => different pool key) reuses
    # the crash outcomes instead of re-raising.
    TermPool(program, [crashy], [("m", TData("nat"))],
             [{"m": nat_of_int(1)}, {"m": nat_of_int(2)}],
             max_size=3, cache=cache, stats=stats)
    assert len(calls) == first_calls
    assert stats.pool_cache_hits > 0


def test_memo_caps_bound_memory(listset, monkeypatch):
    monkeypatch.setattr(poolcache, "MAX_APPLICATION_ENTRIES", 5)
    monkeypatch.setattr(poolcache, "MAX_POOL_ENTRIES", 1)
    cache = SynthesisEvaluationCache()
    stats = InferenceStats()
    _pool(listset, cache, stats, ENVIRONMENTS)
    assert len(cache.applications) == 5
    assert len(cache.pools) == 1
    # A second, different pool cannot be stored, but the build still works.
    grown = ENVIRONMENTS + [{"x": v_list([]), "n": nat_of_int(2)}]
    _pool(listset, cache, stats, grown)
    assert len(cache.pools) == 1


# -- cap cut-off and evaluation accounting ----------------------------------------

THREE_ENVIRONMENTS = ENVIRONMENTS + [{"x": v_list([]), "n": nat_of_int(2)}]


def _wide_pool(listset, max_size, cache=None, stats=None, deadline=None):
    program = listset.program
    components = [TypedComponent(name, program.global_type(name), program.global_value(name))
                  for name in ("nat_eq", "lookup", "insert", "andb", "plus")]
    return TermPool(
        program, components, context=[("x", TData("list")), ("n", TData("nat"))],
        environments=THREE_ENVIRONMENTS, max_size=max_size, deadline=deadline,
        cache=cache, stats=stats)


def _rendered(pool):
    return {result_type: [(str(e.expr), e.size, e.vector) for e in pool.entries(result_type)]
            for result_type in (TData("bool"), TData("nat"), TData("list"))}


@pytest.mark.parametrize("cap", [1, 7, 37])
def test_application_cap_cuts_off_identically_cached_or_not(listset, cap, monkeypatch):
    uncapped = _wide_pool(listset, max_size=6)
    assert uncapped._applications > cap
    monkeypatch.setattr(bottomup, "MAX_APPLICATIONS", cap)
    plain = _wide_pool(listset, max_size=6)
    # The pool memo never stores, so the warm build below is a real rebuild
    # answered by the application memo the cold build filled.
    monkeypatch.setattr(poolcache, "MAX_POOL_ENTRIES", 0)
    cache = SynthesisEvaluationCache()
    cold_stats, warm_stats = InferenceStats(), InferenceStats()
    cold = _wide_pool(listset, 6, cache, cold_stats)
    warm = _wide_pool(listset, 6, cache, warm_stats)
    assert len(cache.pools) == 0
    assert warm_stats.pool_cache_misses == 0
    assert warm_stats.pool_cache_hits == warm._evaluations
    for pool in (plain, cold, warm):
        assert pool._applications == cap
        assert _rendered(pool) == _rendered(plain)
    if cap == 7:
        # The cut falls inside a size: the last size reached keeps some, but
        # not all, of the entries the uncapped pool has there.
        last = max(entry.size for _, entry in plain._order)
        kept = [e for _, e in plain._order if e.size == last]
        full = [e for _, e in uncapped._order if e.size == last]
        assert 0 < len(kept) < len(full)


def test_a_crash_partway_through_a_vector_counts_the_evaluations_up_to_it(listset,
                                                                           monkeypatch):
    from repro.lang.types import arrow
    from repro.lang.values import VNative

    calls = []

    def crashy(value):
        calls.append(value)
        if value == nat_of_int(2):
            raise ValueError("component crash")
        return v_list([value])

    component = TypedComponent("crashy", arrow(TData("nat"), TData("list")),
                               VNative(crashy, name="crashy"))
    environments = [{"n": nat_of_int(1)}, {"n": nat_of_int(2)}, {"n": nat_of_int(3)}]

    def build(cache, stats):
        return TermPool(listset.program, [component], [("n", TData("nat"))],
                        environments, max_size=3, cache=cache, stats=stats)

    plain = build(None, None)
    # ``crashy n`` crashes on the second environment and stops there (two
    # evaluations); ``crashy O`` evaluates on all three.
    assert calls == [nat_of_int(1), nat_of_int(2), nat_of_int(0),
                     nat_of_int(0), nat_of_int(0)]
    assert plain._evaluations == 5
    terms = [str(e.expr) for e in plain.entries(TData("list"))]
    assert "(crashy O)" in terms
    assert "(crashy n)" not in terms

    monkeypatch.setattr(poolcache, "MAX_POOL_ENTRIES", 0)
    cache = SynthesisEvaluationCache()
    for expected_misses in (3, 0):  # cold, then warm
        stats = InferenceStats()
        pool = build(cache, stats)
        assert stats.pool_cache_hits + stats.pool_cache_misses == pool._evaluations == 5
        assert stats.pool_cache_misses == expected_misses
        assert _rendered(pool) == _rendered(plain)


def test_an_expired_deadline_leaves_exact_counters(listset, monkeypatch):
    import time

    from repro.core.config import Deadline, InferenceTimeout

    # The deadline is checked at every 512th application, before it is
    # evaluated, so the build that raises has done exactly the evaluations
    # of a build capped at 511 applications.
    assert _wide_pool(listset, max_size=12)._applications > 512
    with monkeypatch.context() as patch:
        patch.setattr(bottomup, "MAX_APPLICATIONS", 511)
        expected = _wide_pool(listset, max_size=12)._evaluations
    monkeypatch.setattr(poolcache, "MAX_POOL_ENTRIES", 0)
    for cache in (None, SynthesisEvaluationCache()):
        stats = InferenceStats()
        expired = Deadline(0.0, started_at=time.perf_counter() - 1.0)
        with pytest.raises(InferenceTimeout):
            _wide_pool(listset, 12, cache=cache, stats=stats, deadline=expired)
        if cache is None:
            assert stats.pool_cache_hits == stats.pool_cache_misses == 0
        else:
            assert stats.pool_cache_hits + stats.pool_cache_misses == expected
            assert stats.pool_cache_misses == len(cache.applications)
