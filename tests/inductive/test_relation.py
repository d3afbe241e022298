"""Unit tests for conditional / visible / full inductiveness checking."""

import pytest

from repro.core.config import FAST_VERIFIER_BOUNDS
from repro.core.predicate import Predicate, always_true
from repro.inductive.relation import ConditionalInductivenessChecker
from repro.lang.values import list_of_value, nat_of_int, v_list, value_order, value_size
from repro.suite.registry import get_benchmark
from repro.verify.result import InductivenessCounterexample, Valid


@pytest.fixture(scope="module")
def listset():
    return get_benchmark("/coq/unique-list-::-set").instantiate()


@pytest.fixture(scope="module")
def checker(listset):
    return ConditionalInductivenessChecker(listset, bounds=FAST_VERIFIER_BOUNDS)


@pytest.fixture(scope="module")
def nodup(listset):
    return Predicate.from_source(
        get_benchmark("/coq/unique-list-::-set").expected_invariant, listset.program
    )


def test_trivial_invariant_is_fully_inductive(listset, checker):
    trivial = always_true(listset.concrete_type, listset.program)
    assert isinstance(checker.check(trivial, trivial), Valid)


def test_no_duplicates_is_fully_inductive(checker, nodup):
    assert isinstance(checker.check(nodup, nodup), Valid)


def test_paper_motivating_visible_counterexample(listset, checker):
    """Section 2.1: with V+ = {[]} the candidate ``hd <> 1`` is not visibly
    inductive; the counterexample is <[], [1]>."""
    candidate = Predicate.from_source("""
let cand (l : list) : bool =
  match l with
  | Nil -> True
  | Cons (hd, tl) -> notb (nat_eq hd 1)
""", listset.program)
    vplus = {listset.program.global_value("empty")}
    result = checker.check(p=lambda v: v in vplus, q=candidate, p_pool=vplus)
    assert isinstance(result, InductivenessCounterexample)
    assert result.operation == "insert"
    assert set(result.inputs) <= vplus
    (output,) = result.outputs
    assert [str(v) for v in list_of_value(output)] == ["1"]


def test_visible_check_with_empty_pool_passes(listset, checker):
    """With no known constructible values, only nullary operations are
    constrained; ``empty`` satisfies any candidate accepting []."""
    candidate = always_true(listset.concrete_type, listset.program)
    result = checker.check(p=lambda v: False, q=candidate, p_pool=set())
    assert isinstance(result, Valid)


def test_nullary_operation_produces_counterexample(listset, checker):
    """A candidate rejecting [] is refuted by ``empty`` even with V+ = {}."""
    rejects_nil = Predicate.from_source("""
let cand (l : list) : bool =
  match l with
  | Nil -> False
  | Cons (hd, tl) -> True
""", listset.program)
    result = checker.check(p=lambda v: False, q=rejects_nil, p_pool=set())
    assert isinstance(result, InductivenessCounterexample)
    assert result.operation == "empty"
    assert result.inputs == ()


def test_full_inductiveness_counterexample_structure(listset, checker):
    """The paper's example non-inductive candidate ``hd <> 1``: a full check
    returns inputs that satisfy the candidate and outputs that falsify it."""
    candidate = Predicate.from_source("""
let cand (l : list) : bool =
  match l with
  | Nil -> True
  | Cons (hd, tl) -> notb (nat_eq hd 1)
""", listset.program)
    result = checker.check(p=candidate, q=candidate, p_pool=None)
    assert isinstance(result, InductivenessCounterexample)
    assert all(candidate(v) for v in result.inputs)
    assert all(not candidate(v) for v in result.outputs)


def test_higher_order_operations_are_checked_via_contracts():
    """The +hofs benchmark's map/filter operations run under contracts; the
    expected invariant remains fully inductive."""
    definition = get_benchmark("/coq/unique-list-::-set+hofs")
    instance = definition.instantiate()
    checker = ConditionalInductivenessChecker(instance, bounds=FAST_VERIFIER_BOUNDS)
    nodup = Predicate.from_source(definition.expected_invariant, instance.program)
    assert isinstance(checker.check(nodup, nodup), Valid)


def test_binary_operations_counterexample_collects_both_inputs():
    """For a binary operation, the witness set S may contain several inputs
    (Section 2.2)."""
    definition = get_benchmark("/coq/sorted-list-::-set+binfuncs")
    instance = definition.instantiate()
    checker = ConditionalInductivenessChecker(instance, bounds=FAST_VERIFIER_BOUNDS)
    # "The first element is at most 1" is sufficient-ish but not inductive;
    # union of two such lists can break it.
    candidate = Predicate.from_source("""
let cand (l : list) : bool =
  match l with
  | Nil -> True
  | Cons (hd, tl) -> nat_leq hd 1
""", instance.program)
    result = checker.check(p=candidate, q=candidate, p_pool=None)
    assert isinstance(result, InductivenessCounterexample)
    assert len(result.inputs) >= 1
    assert all(candidate(v) for v in result.inputs)


def test_visible_pool_ties_are_in_value_order(checker):
    """V+ is a set, whose order follows memory addresses: equal-size values
    must come back in ``value_order``, whatever order they are given in."""
    pool = [v_list(nat_of_int(n) for n in items) for items in ([0, 1], [1, 0], [4])]
    assert len({value_size(v) for v in pool}) == 1
    assert sorted(pool, key=value_order) == pool
    assert checker._abstract_pool(lambda v: True, pool[::-1]) == pool
