"""Scope resolution and error surfaces of the evaluator.

Whether a name is local or global is decided when a body is compiled, but
globals are still read at run time, because some callers (the fold
synthesizer) install globals after the code that uses them was compiled.

Error messages are pinned because outcome fingerprints include them.
"""

import pytest

from repro.core.predicate import Predicate
from repro.lang.ast import ECtor, EProj, ETuple, EVar
from repro.lang.errors import EvalError, FuelExhausted, MatchFailure
from repro.lang.eval import EvalBudget, Evaluator
from repro.lang.parser import parse_expression
from repro.lang.program import Program
from repro.lang.values import (
    VNative,
    bool_of_value,
    int_of_nat,
    nat_of_int,
    v_list,
)

SOURCE = """
type list = Nil | Cons of nat * list

let param_shadows (plus : nat) : nat = S plus

let rec sum_firsts (l : list) : nat =
  match l with
  | Nil -> O
  | Cons (plus, tl) -> plus
"""


@pytest.fixture(scope="module")
def program():
    return Program.from_source(SOURCE)


def test_parameter_shadows_global_of_same_name(program):
    assert int_of_nat(program.call("param_shadows", nat_of_int(2))) == 3
    # The global is untouched and still callable.
    assert int_of_nat(program.call("plus", nat_of_int(2), nat_of_int(2))) == 4


def test_match_binder_shadows_global_of_same_name(program):
    value = v_list([nat_of_int(5), nat_of_int(1)])
    assert int_of_nat(program.call("sum_firsts", value)) == 5


def test_global_added_after_compilation_is_found():
    program = Program.from_source("")
    predicate = Predicate.from_source(
        "let inv (x : nat) : bool = nat_leq (late_helper x) x", program)
    # Before the global exists, the candidate crashes (and so rejects).
    with pytest.raises(EvalError, match="unbound variable at runtime: late_helper"):
        program.evaluator.apply(predicate._closure, nat_of_int(3))
    program.evaluator.globals["late_helper"] = VNative(lambda v: nat_of_int(0), name="zero")
    assert predicate(nat_of_int(3)) is True
    # So does a closure built by evaluating a ``fun``.
    closure = program.eval_expr(parse_expression("fun (y : nat) -> later y"))
    program.evaluator.globals["later"] = program.global_value("succ")
    assert int_of_nat(program.apply(closure, nat_of_int(1))) == 2


def test_eval_with_caller_environment(program):
    result = program.eval_expr(parse_expression("plus x (S x)"), {"x": nat_of_int(2)})
    assert int_of_nat(result) == 5
    # A caller-supplied name shadows the global of the same name.
    assert int_of_nat(program.eval_expr(parse_expression("S plus"),
                                        {"plus": nat_of_int(1)})) == 2


def test_closure_captures_caller_environment_by_value(program):
    env = {"x": nat_of_int(2)}
    closure = program.eval_expr(parse_expression("fun (y : nat) -> plus x y"), env)
    env["x"] = nat_of_int(10)
    assert int_of_nat(program.apply(closure, nat_of_int(3))) == 5


def test_let_and_match_scopes_end_with_their_bodies(program):
    expr = parse_expression(
        "(match (let x = S x in x) with | S x -> plus x x | O -> x)")
    # The let binds x to 3 for its body only; the branch's S x then binds 2.
    assert int_of_nat(program.eval_expr(expr, {"x": nat_of_int(2)})) == 4


def test_unbound_variable_message(program):
    budget = EvalBudget(100)
    with pytest.raises(EvalError) as caught:
        program.evaluator.eval(parse_expression("S unknown_variable"), None, budget)
    assert str(caught.value) == "unbound variable at runtime: unknown_variable"
    assert budget.remaining == 98


def test_match_failure_message(program):
    budget = EvalBudget(100)
    evaluator = Evaluator({})
    with pytest.raises(MatchFailure) as caught:
        evaluator.eval(parse_expression("match x with | O -> O"), {"x": nat_of_int(1)}, budget)
    assert str(caught.value) == "no branch matched value 1"
    assert budget.remaining == 98


def test_projection_error_messages():
    evaluator = Evaluator({})
    pair = ETuple((ECtor("O"), ECtor("True")))
    with pytest.raises(EvalError) as caught:
        evaluator.eval(EProj(2, pair))
    assert str(caught.value) == "invalid projection from (0, True)"
    with pytest.raises(EvalError) as caught:
        evaluator.eval(EProj(0, EVar("n")), {"n": nat_of_int(1)})
    assert str(caught.value) == "invalid projection from 1"


def test_projection_reads_the_component():
    evaluator = Evaluator({})
    pair = ETuple((ECtor("O"), ECtor("True")))
    assert bool_of_value(evaluator.eval(EProj(1, pair)))
    assert int_of_nat(evaluator.eval(EProj(0, pair))) == 0


def test_non_function_application_message(program):
    budget = EvalBudget(100)
    with pytest.raises(EvalError) as caught:
        program.evaluator.apply(nat_of_int(1), nat_of_int(2), budget=budget)
    assert str(caught.value) == "application of non-function value 1"
    assert budget.remaining == 99


def test_fuel_exhaustion_message_and_remaining(program):
    budget = EvalBudget(10)
    big = nat_of_int(40)
    with pytest.raises(FuelExhausted) as caught:
        program.evaluator.apply(program.global_value("plus"), big, big, budget=budget)
    assert str(caught.value) == "evaluation step budget exhausted"
    assert budget.remaining == -1
