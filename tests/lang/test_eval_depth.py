"""Deep inputs fail as a typed evaluation error, not a raw RecursionError.

Evaluation recurses on the Python stack, so a deep enough value overflows it
long before fuel runs out.  Callers (the verifier, the inductiveness checker,
candidate predicates) handle crashes by catching ``LangError``, so the
overflow must surface as one.
"""

import sys

import pytest

from repro.core.predicate import Predicate
from repro.lang.errors import EvalDepthExceeded, EvalError, LangError
from repro.lang.parser import parse_expression
from repro.lang.program import Program
from repro.lang.values import int_of_nat, nat_of_int


# Before 3.11 every Python call also takes C stack, and at the evaluator's
# recursion limit (20,000) the C stack overflows first: the process crashes
# instead of raising RecursionError, at about 3,900-deep naturals.
pytestmark = pytest.mark.skipif(
    sys.version_info < (3, 11),
    reason="deep Python recursion overflows the C stack before 3.11")


@pytest.fixture(scope="module")
def program():
    return Program.from_source("")


def test_deep_nat_raises_typed_error(program):
    deep = nat_of_int(8000)
    with pytest.raises(EvalDepthExceeded) as caught:
        program.call("plus", deep, nat_of_int(1))
    assert isinstance(caught.value, EvalError)
    assert isinstance(caught.value, LangError)


def test_moderately_deep_nat_still_evaluates(program):
    result = program.call("plus", nat_of_int(4000), nat_of_int(2))
    assert int_of_nat(result) == 4002


def test_deep_eval_expression_raises_typed_error(program):
    with pytest.raises(EvalDepthExceeded):
        program.eval_expr(parse_expression("plus x x"), {"x": nat_of_int(8000)})


def test_predicate_records_depth_failure_as_rejection(program):
    predicate = Predicate.from_source(
        "let inv (x : nat) : bool = nat_leq x (plus x x)", program)
    assert predicate(nat_of_int(3)) is True
    assert predicate(nat_of_int(8000)) is False


def test_predicate_evaluates_and_caches_very_deep_value(program):
    # Hashing a hash-consed value never recurses, so the predicate's cache
    # takes a value of any depth.
    predicate = Predicate.from_source(
        "let inv (x : nat) : bool = match x with | O -> False | S y -> True",
        program)
    deep = nat_of_int(100_000)
    assert predicate(deep) is True
    assert predicate._cache == {deep: True}
    assert predicate(nat_of_int(100_000)) is True
