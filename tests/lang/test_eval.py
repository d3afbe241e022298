"""Unit tests for the evaluator and the Program wrapper."""

import pytest

from repro.lang.errors import EvalError, FuelExhausted, MatchFailure
from repro.lang.eval import EvalBudget, Evaluator, match_pattern
from repro.lang.parser import parse_expression
from repro.lang.program import Program
from repro.lang.values import (
    VCtor,
    VNative,
    VTuple,
    bool_of_value,
    int_of_nat,
    nat_of_int,
    v_list,
)
from repro.lang.ast import PCtor, PTuple, PVar, PWild


@pytest.fixture(scope="module")
def program():
    return Program.from_source("""
type list = Nil | Cons of nat * list

let rec length (l : list) : nat =
  match l with
  | Nil -> O
  | Cons (hd, tl) -> S (length tl)

let rec append (a : list) (b : list) : list =
  match a with
  | Nil -> b
  | Cons (hd, tl) -> Cons (hd, append tl b)

let twice (f : nat -> nat) (x : nat) : nat = f (f x)
""")


def test_prelude_arithmetic(program):
    assert int_of_nat(program.call("plus", nat_of_int(2), nat_of_int(3))) == 5
    assert int_of_nat(program.call("minus", nat_of_int(7), nat_of_int(3))) == 4
    assert int_of_nat(program.call("nat_max", nat_of_int(2), nat_of_int(9))) == 9
    assert bool_of_value(program.call("nat_leq", nat_of_int(3), nat_of_int(3)))
    assert not bool_of_value(program.call("nat_lt", nat_of_int(3), nat_of_int(3)))


def test_recursive_list_functions(program):
    values = v_list([nat_of_int(i) for i in (4, 1, 2)])
    assert int_of_nat(program.call("length", values)) == 3
    appended = program.call("append", values, v_list([nat_of_int(9)]))
    assert int_of_nat(program.call("length", appended)) == 4


def test_higher_order_application(program):
    succ = program.global_value("succ")
    assert int_of_nat(program.call("twice", succ, nat_of_int(3))) == 5


def test_native_function_applies(program):
    double = VNative(lambda v: nat_of_int(int_of_nat(v) * 2), name="double")
    assert int_of_nat(program.call("twice", double, nat_of_int(3))) == 12


def test_eval_expression_with_env(program):
    expr = parse_expression("plus x (S x)")
    result = program.eval_expr(expr, {"x": nat_of_int(2)})
    assert int_of_nat(result) == 5


def test_match_failure_raises(program):
    evaluator = Evaluator({})
    expr = parse_expression("match x with | O -> O")
    with pytest.raises(MatchFailure):
        evaluator.eval(expr, {"x": nat_of_int(1)})


def test_unbound_variable_raises(program):
    with pytest.raises(EvalError):
        program.eval_expr(parse_expression("unknown_variable"))


def test_fuel_exhaustion(program):
    big = nat_of_int(40)
    with pytest.raises(FuelExhausted):
        program.evaluator.apply(program.global_value("plus"), big, big,
                                budget=EvalBudget(20))


def test_application_of_non_function_raises(program):
    with pytest.raises(EvalError):
        program.apply(nat_of_int(1), nat_of_int(2))


def test_match_pattern_bindings():
    value = VCtor("Cons", VTuple((nat_of_int(1), VCtor("Nil"))))
    bindings = match_pattern(PCtor("Cons", PTuple((PVar("hd"), PVar("tl")))), value)
    assert int_of_nat(bindings["hd"]) == 1
    assert bindings["tl"] == VCtor("Nil")
    assert match_pattern(PCtor("Nil"), value) is None
    assert match_pattern(PWild(), value) == {}


def test_budget_is_shared_across_nested_calls():
    budget = EvalBudget(5)
    budget.spend(3)
    budget.spend(2)
    with pytest.raises(FuelExhausted):
        budget.spend(1)
