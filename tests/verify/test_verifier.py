"""Unit tests for the enumerative verifier (sufficiency checking)."""

import pytest

from repro.core.config import Deadline, FAST_VERIFIER_BOUNDS, InferenceTimeout, VerifierBounds
from repro.core.predicate import Predicate, always_true
from repro.core.stats import InferenceStats
from repro.suite.registry import get_benchmark
from repro.verify.result import SufficiencyCounterexample, Valid
from repro.verify.tester import Verifier


@pytest.fixture(scope="module")
def listset():
    return get_benchmark("/coq/unique-list-::-set").instantiate()


@pytest.fixture(scope="module")
def nodup(listset):
    return Predicate.from_source(
        get_benchmark("/coq/unique-list-::-set").expected_invariant, listset.program
    )


def test_trivial_invariant_is_not_sufficient(listset):
    verifier = Verifier(listset, bounds=FAST_VERIFIER_BOUNDS)
    result = verifier.check_sufficiency(always_true(listset.concrete_type, listset.program))
    assert isinstance(result, SufficiencyCounterexample)
    # The witness is a list with a duplicate (it satisfies the candidate but
    # falsifies the SET specification).
    (witness,) = result.witnesses
    assert not _no_duplicates(witness)


def test_no_duplicates_invariant_is_sufficient(listset, nodup):
    verifier = Verifier(listset, bounds=FAST_VERIFIER_BOUNDS)
    assert isinstance(verifier.check_sufficiency(nodup), Valid)


def test_sufficiency_counterexample_satisfies_candidate(listset):
    verifier = Verifier(listset, bounds=FAST_VERIFIER_BOUNDS)
    weak = Predicate.from_source("""
let weak (l : list) : bool =
  match l with
  | Nil -> True
  | Cons (hd, tl) -> True
""", listset.program)
    result = verifier.check_sufficiency(weak)
    assert isinstance(result, SufficiencyCounterexample)
    assert all(weak(w) for w in result.witnesses)


def test_stats_are_recorded(listset, nodup):
    stats = InferenceStats()
    verifier = Verifier(listset, bounds=FAST_VERIFIER_BOUNDS, stats=stats)
    verifier.check_sufficiency(nodup)
    assert stats.verification_calls == 1
    assert stats.verification_time > 0
    assert stats.structures_tested > 0


def test_check_predicate_finds_counterexample(listset):
    verifier = Verifier(listset, bounds=FAST_VERIFIER_BOUNDS)
    never = Predicate.from_source("let never (l : list) : bool = False", listset.program)
    result = verifier.check_predicate(never)
    assert isinstance(result, SufficiencyCounterexample)
    always = Predicate.from_source("let always (l : list) : bool = True", listset.program)
    assert isinstance(verifier.check_predicate(always), Valid)


def test_deadline_is_honoured(listset, nodup):
    expired = Deadline(0.0)
    expired.started_at -= 1.0
    verifier = Verifier(listset, bounds=VerifierBounds(), deadline=expired)
    with pytest.raises(InferenceTimeout):
        verifier.check_sufficiency(nodup)


def _no_duplicates(value):
    from repro.lang.values import list_of_value

    items = [str(v) for v in list_of_value(value)]
    return len(items) == len(set(items))
