"""Tests for the ∧Str, LA, and OneShot baselines (Section 5.5)."""

import pytest

from repro.baselines.conj_str import ConjunctivePredicate, ConjunctiveStrengtheningInference
from repro.baselines.linear_arbitrary import LinearArbitraryInference
from repro.baselines.oneshot import OneShotInference
from repro.core.hanoi import HanoiInference
from repro.core.predicate import Predicate
from repro.core.result import Status
from repro.lang.values import nat_of_int, v_list
from repro.suite.registry import get_benchmark

BENCHMARK = "/coq/unique-list-::-set"


def L(*ints):
    return v_list([nat_of_int(i) for i in ints])


def test_conjunctive_predicate_semantics(listset_instance):
    accepts_all = Predicate.from_source("let p (l : list) : bool = True", listset_instance.program)
    no_dups = Predicate.from_source(
        get_benchmark(BENCHMARK).expected_invariant, listset_instance.program
    )
    conj = ConjunctivePredicate([accepts_all, no_dups])
    assert conj(L(2, 1)) and not conj(L(1, 1))
    assert conj.size > no_dups.size
    assert "(* conjoined with *)" in conj.render()
    assert conj.consistent_with([L()], [L(0, 0)])
    with pytest.raises(ValueError):
        ConjunctivePredicate([])


def test_conj_str_solves_motivating_example(fast_config):
    result = ConjunctiveStrengtheningInference(get_benchmark(BENCHMARK), config=fast_config).infer()
    assert result.succeeded
    assert result.mode == "conj-str"
    assert not result.invariant(L(1, 1))
    assert result.invariant(L(2, 1))


def test_linear_arbitrary_solves_motivating_example(fast_config):
    result = LinearArbitraryInference(get_benchmark(BENCHMARK), config=fast_config).infer()
    assert result.succeeded
    assert result.mode == "linear-arbitrary"
    assert not result.invariant(L(1, 1))


def test_oneshot_on_motivating_example(fast_config):
    """The paper reports OneShot succeeds only on coq/unique-list-set."""
    result = OneShotInference(get_benchmark(BENCHMARK), config=fast_config).infer()
    assert result.iterations == 1
    assert result.succeeded


def test_oneshot_rejects_multi_abstract_specs(fast_config):
    """OneShot only applies when the spec quantifies over one abstract value."""
    result = OneShotInference(get_benchmark("/coq/unique-list-::-set+binfuncs"),
                              config=fast_config).infer()
    assert result.status == Status.FAILURE
    assert "single abstract value" in result.message


def test_hanoi_uses_no_more_verification_calls_than_conj_str(fast_config):
    """The qualitative Figure-8 comparison on the motivating example: the
    eager visible-inductiveness strategy needs no more checking work than
    conjunctive strengthening."""
    hanoi = HanoiInference(get_benchmark(BENCHMARK), config=fast_config).infer()
    conj = ConjunctiveStrengtheningInference(get_benchmark(BENCHMARK), config=fast_config).infer()
    assert hanoi.succeeded and conj.succeeded
    assert hanoi.stats.verification_calls <= conj.stats.verification_calls
    assert hanoi.stats.synthesis_calls <= conj.stats.synthesis_calls
