"""Tests for the cross-iteration verification evaluation cache.

The cache must be *invisible* in outcomes: every check returns exactly the
verdict and counterexample the uncached enumeration would, and whole
inference runs produce byte-identical statuses, invariants, and event logs.
What changes is only how much evaluation work repeats - asserted here through
the hit/miss counters.
"""

import os

import pytest

from repro.core.config import FAST_VERIFIER_BOUNDS, HanoiConfig
from repro.core.hanoi import HanoiInference
from repro.core.predicate import Predicate, always_true
from repro.core.stats import InferenceStats
from repro.enumeration.functions import FunctionEnumerator
from repro.enumeration.values import ValueEnumerator
from repro.inductive.relation import ConditionalInductivenessChecker
from repro.lang.eval import memo_table
from repro.spec.loader import load_module_file
from repro.suite.registry import get_benchmark
from repro.verify.evalcache import SPEC_TRUE, EvaluationCache, SpecEntry
from repro.verify.result import SufficiencyCounterexample, Valid
from repro.verify.tester import Verifier

CONFIG = HanoiConfig(verifier_bounds=FAST_VERIFIER_BOUNDS, timeout_seconds=90)

#: Multi-iteration built-ins (plenty of repeated checks) plus single-iteration
#: ones (the cache must not change their behaviour either).
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


def _run_pair(definition):
    """One inference run with the evaluation cache and one without."""
    cached = HanoiInference(definition, config=CONFIG).infer()
    uncached = HanoiInference(
        definition, config=CONFIG.without_evaluation_caching()).infer()
    return cached, uncached


def _assert_equivalent(cached, uncached):
    assert cached.status == uncached.status
    assert cached.iterations == uncached.iterations
    assert cached.render_invariant() == uncached.render_invariant()
    # Counterexample events (witnesses added, operations blamed) must match
    # step for step: the cache may never alter which counterexample a check
    # reports.
    assert cached.events == uncached.events
    assert uncached.stats.eval_cache_hits == 0
    assert uncached.stats.eval_cache_misses == 0


@pytest.mark.parametrize("name", EQUIVALENCE_SAMPLE)
def test_cached_and_uncached_inference_agree_on_builtins(name):
    cached, uncached = _run_pair(get_benchmark(name))
    _assert_equivalent(cached, uncached)
    assert cached.succeeded


@pytest.mark.parametrize("filename", PACK_FILES)
def test_cached_and_uncached_inference_agree_on_example_packs(filename):
    definition = load_module_file(os.path.join(MODULES_DIR, filename))
    cached, uncached = _run_pair(definition)
    _assert_equivalent(cached, uncached)
    assert cached.succeeded


def test_multi_iteration_runs_hit_the_cache():
    result = HanoiInference(get_benchmark("/coq/sorted-list-::-set"), config=CONFIG).infer()
    assert result.succeeded
    assert result.iterations > 1
    assert result.stats.eval_cache_hits > 0
    assert result.stats.eval_cache_misses > 0
    # The counters travel through serialization with everything else.
    row = result.stats.as_dict()
    assert row["eval_cache_hits"] == result.stats.eval_cache_hits
    restored = InferenceStats.from_dict(result.stats.to_dict())
    assert restored.eval_cache_hits == result.stats.eval_cache_hits
    assert restored.eval_cache_misses == result.stats.eval_cache_misses


def test_snapshot_counts_spec_entries_only():
    engine = HanoiInference(get_benchmark("/coq/unique-list-::-set"), config=CONFIG)
    assert engine.infer().succeeded
    snapshot = engine.eval_cache.snapshot()
    assert set(snapshot) == {"spec_entries", "spec_exhausted"}
    assert snapshot["spec_entries"] == len(engine.eval_cache.entries) > 0


def test_config_toggle_disables_the_cache():
    engine = HanoiInference(
        get_benchmark("/coq/unique-list-::-set"),
        config=CONFIG.without_evaluation_caching())
    assert engine.eval_cache is None
    assert engine.verifier.eval_cache is None


# -- verifier-level behaviour ---------------------------------------------------


@pytest.fixture(scope="module")
def listset():
    return get_benchmark("/coq/unique-list-::-set").instantiate()


@pytest.fixture(scope="module")
def nodup(listset):
    return Predicate.from_source(
        get_benchmark("/coq/unique-list-::-set").expected_invariant, listset.program)


def test_repeated_sufficiency_checks_replay_verdicts(listset, nodup):
    stats = InferenceStats()
    verifier = Verifier(listset, bounds=FAST_VERIFIER_BOUNDS, stats=stats,
                        eval_cache=EvaluationCache())
    trivial = always_true(listset.concrete_type, listset.program)

    first = verifier.check_sufficiency(trivial)
    assert isinstance(first, SufficiencyCounterexample)
    misses_after_first = stats.eval_cache_misses

    second = verifier.check_sufficiency(trivial)
    assert isinstance(second, SufficiencyCounterexample)
    assert second.witnesses == first.witnesses
    # The replay resolved no new spec applications.
    assert stats.eval_cache_misses == misses_after_first
    assert stats.eval_cache_hits > 0

    # A different candidate over the same stream still gets the uncached
    # verdict (the oracle invariant is sufficient).
    assert isinstance(verifier.check_sufficiency(nodup), Valid)

    uncached = Verifier(listset, bounds=FAST_VERIFIER_BOUNDS)
    assert isinstance(uncached.check_sufficiency(nodup), Valid)
    baseline = uncached.check_sufficiency(trivial)
    assert baseline.witnesses == first.witnesses


def test_repeated_inductiveness_checks_answer_calls_from_the_memo_table(listset, nodup):
    """The checker re-applies every operation; the evaluator's memo table
    answers the first-order calls a repeated check makes, and the verdict is
    the one a check without the table gives."""
    plain = ConditionalInductivenessChecker(
        listset, ValueEnumerator(listset.program.types), FunctionEnumerator(listset),
        FAST_VERIFIER_BOUNDS).check(nodup, nodup)
    assert isinstance(plain, Valid)

    checker = ConditionalInductivenessChecker(
        listset, ValueEnumerator(listset.program.types), FunctionEnumerator(listset),
        FAST_VERIFIER_BOUNDS)
    with memo_table() as table:
        assert checker.check(nodup, nodup) == plain
        stored = dict(table)
        assert stored
        assert checker.check(nodup, nodup) == plain
        assert table == stored


def test_a_restored_stream_shares_one_spec_true_entry_and_checks_alike(
        listset, nodup, monkeypatch):
    """A stream restored from a snapshot holds one shared entry for every
    spec-true assignment, gives the checks the stream it was taken from
    gives, in the same order and with the same verdicts, and never resolves
    the shared entry."""
    trivial = always_true(listset.concrete_type, listset.program)

    def verifier(cache):
        return Verifier(listset, bounds=FAST_VERIFIER_BOUNDS, stats=InferenceStats(),
                        eval_cache=cache)

    def outcome(result):
        return type(result).__name__, getattr(result, "witnesses", None)

    cold_cache = EvaluationCache()
    cold = verifier(cold_cache)
    assert isinstance(cold.check_sufficiency(trivial), SufficiencyCounterexample)
    entries, exhausted = cold_cache.export_entries()
    assert sum(entry[2] is True for entry in entries) > 1

    warm_cache = EvaluationCache()
    warm_cache.restore_entries(entries, exhausted)
    assert [entry.verdict for entry in warm_cache.entries] == [e[2] for e in entries]
    assert all(entry is SPEC_TRUE for entry in warm_cache.entries if entry.verdict)
    assert [entry.verdict for entry in warm_cache.entries].count(True) > 1

    resolved = []
    resolve = SpecEntry.resolve

    def recording(self, verdict, error=None):
        resolved.append(self)
        resolve(self, verdict, error)

    monkeypatch.setattr(SpecEntry, "resolve", recording)
    warm = verifier(warm_cache)
    for candidate in (nodup, trivial, nodup):
        assert outcome(warm.check_sufficiency(candidate)) == \
            outcome(cold.check_sufficiency(candidate))
    assert resolved and all(entry is not SPEC_TRUE for entry in resolved)
    assert [entry.verdict for entry in warm_cache.entries] == \
        [entry.verdict for entry in cold_cache.entries]
    assert warm_cache.exhausted == cold_cache.exhausted
    assert (SPEC_TRUE.assignment, SPEC_TRUE.witnesses, SPEC_TRUE.verdict,
            SPEC_TRUE.error) == (None, None, True, None)


# -- Section 4.3 accounting ------------------------------------------------------


def test_structures_tested_counts_structures_not_assignments(listset, nodup):
    """The unique-list spec quantifies over two values (one abstract, one
    nat), so every processed assignment accounts for two structures and the
    structure total respects the ``max_total`` discipline."""
    for eval_cache in (None, EvaluationCache()):
        stats = InferenceStats()
        verifier = Verifier(listset, bounds=FAST_VERIFIER_BOUNDS, stats=stats,
                            eval_cache=eval_cache)
        assert isinstance(verifier.check_sufficiency(nodup), Valid)
        assert stats.structures_tested > 0
        assert stats.structures_tested % 2 == 0
        assert stats.structures_tested <= FAST_VERIFIER_BOUNDS.max_total


def test_every_inductiveness_check_counts_its_structures(listset, nodup):
    """Inductiveness checks keep no cache of their own, so a repeated check
    applies every operation again and counts every structure again."""
    stats = InferenceStats()
    checker = ConditionalInductivenessChecker(
        listset, ValueEnumerator(listset.program.types), FunctionEnumerator(listset),
        FAST_VERIFIER_BOUNDS, stats)

    assert isinstance(checker.check(nodup, nodup), Valid)
    first = stats.structures_tested
    assert first > 0
    assert isinstance(checker.check(nodup, nodup), Valid)
    assert stats.structures_tested == 2 * first
