"""The hand-written oracle invariants shipped with every built-in benchmark
are themselves sufficient and fully inductive (under the bounded verifier).

This is the executable counterpart of the paper's claim that the benchmark
problems admit sufficient representation invariants, and it guards the
benchmark definitions against regressions (a broken module operation or
specification usually breaks one of these checks).  The whole sweep takes a
few seconds at the FAST bounds, so it covers the slow benchmarks too."""

import pytest

from repro.core.config import FAST_VERIFIER_BOUNDS
from repro.core.predicate import Predicate
from repro.inductive.relation import ConditionalInductivenessChecker
from repro.suite.registry import all_benchmark_names, get_benchmark
from repro.verify.result import Valid
from repro.verify.tester import Verifier

#: Benchmarks whose oracle invariant should be checked (every built-in has one).
CHECKED = [name for name in all_benchmark_names()
           if get_benchmark(name).expected_invariant]


@pytest.mark.parametrize("name", CHECKED)
def test_oracle_invariant_is_sufficient(name):
    definition = get_benchmark(name)
    instance = definition.instantiate()
    oracle = Predicate.from_source(definition.expected_invariant, instance.program)
    verifier = Verifier(instance, bounds=FAST_VERIFIER_BOUNDS)
    assert isinstance(verifier.check_sufficiency(oracle), Valid), (
        f"oracle invariant for {name} is not sufficient for its specification"
    )


@pytest.mark.parametrize("name", CHECKED)
def test_oracle_invariant_is_fully_inductive(name):
    definition = get_benchmark(name)
    instance = definition.instantiate()
    oracle = Predicate.from_source(definition.expected_invariant, instance.program)
    checker = ConditionalInductivenessChecker(instance, bounds=FAST_VERIFIER_BOUNDS)
    assert isinstance(checker.check(oracle, oracle), Valid), (
        f"oracle invariant for {name} is not inductive"
    )
