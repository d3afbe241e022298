"""End-to-end integration tests: Hanoi on the fast benchmark subset.

Beyond "did it terminate with an invariant", these tests check the paper's
correctness claim (Section 5.3: all inferred invariants were correct) in an
executable form: every inferred invariant must

* be sufficient for the benchmark's specification (re-checked),
* be fully inductive (re-checked),
* accept every value actually constructed by random sequences of module
  operations (constructible values must satisfy any representation invariant).
"""

import random

import pytest

from repro.core.config import FAST_VERIFIER_BOUNDS, HanoiConfig
from repro.core.hanoi import HanoiInference
from repro.enumeration.values import ValueEnumerator
from repro.inductive.relation import ConditionalInductivenessChecker
from repro.lang.types import TArrow, mentions_abstract
from repro.suite.registry import FAST_BENCHMARKS, get_benchmark
from repro.verify.result import Valid
from repro.verify.tester import Verifier

CONFIG = HanoiConfig(verifier_bounds=FAST_VERIFIER_BOUNDS, timeout_seconds=90)

#: Every benchmark of the fast subset, so each quick-profile Figure-7 row is
#: re-checked end to end.
SUBSET = FAST_BENCHMARKS


def constructible_values(instance, count=60, seed=7, max_steps=5):
    """Sample values reachable by random sequences of module operations."""
    rng = random.Random(seed)
    enumerator = ValueEnumerator(instance.program.types)
    reachable = []
    operations = list(instance.operations)
    seeds = [instance.operation_value(op) for op in operations if not op.argument_types]
    reachable.extend(seeds)
    for _ in range(count):
        if not reachable:
            break
        value = rng.choice(reachable)
        for _ in range(rng.randint(1, max_steps)):
            op = rng.choice(operations)
            if not op.produces_abstract or not op.argument_types:
                continue
            if any(isinstance(t, TArrow) for t in op.argument_types):
                continue
            args = []
            feasible = True
            for arg_type in op.argument_types:
                if mentions_abstract(arg_type):
                    args.append(rng.choice(reachable))
                else:
                    pool = enumerator.smallest(arg_type, 6)
                    if not pool:
                        feasible = False
                        break
                    args.append(rng.choice(pool))
            if not feasible:
                continue
            value = instance.program.apply(instance.operation_value(op), *args)
            reachable.append(value)
    return reachable


@pytest.fixture(scope="module")
def results():
    out = {}
    for name in SUBSET:
        out[name] = HanoiInference(get_benchmark(name), config=CONFIG).infer()
    return out


@pytest.mark.parametrize("name", SUBSET)
def test_inference_succeeds(results, name):
    result = results[name]
    assert result.succeeded, f"{name}: {result.status} ({result.message})"
    assert result.invariant_size is not None and result.invariant_size >= 2


@pytest.mark.parametrize("name", SUBSET)
def test_inferred_invariant_is_sufficient_and_inductive(results, name):
    result = results[name]
    instance = get_benchmark(name).instantiate()
    verifier = Verifier(instance, bounds=FAST_VERIFIER_BOUNDS)
    checker = ConditionalInductivenessChecker(instance, bounds=FAST_VERIFIER_BOUNDS)
    invariant = result.invariant
    assert isinstance(verifier.check_sufficiency(invariant), Valid)
    assert isinstance(checker.check(invariant, invariant), Valid)


@pytest.mark.parametrize("name", SUBSET)
def test_inferred_invariant_accepts_constructible_values(results, name):
    result = results[name]
    instance = get_benchmark(name).instantiate()
    invariant = result.invariant
    for value in constructible_values(instance):
        assert invariant(value), f"{name}: constructible value {value} rejected by the invariant"


def test_statistics_shape_matches_paper_narrative(results):
    """Section 5.4: for the terminating benchmarks most time is spent in
    verification, and synthesis time stays small."""
    verification = sum(r.stats.verification_time for r in results.values())
    synthesis = sum(r.stats.synthesis_time for r in results.values())
    assert verification > synthesis
