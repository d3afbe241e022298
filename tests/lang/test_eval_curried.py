"""Saturated calls of curried closures run without building their partial
applications.

A call ``f a b c`` of a closure whose body is a ``fun`` chain steps through
the chain's bodies one after another.  That must be invisible: at every
budget, the call gives the value (or the error) and leaves the fuel that
applying ``f`` to one argument at a time gives, and inside a memo table it
stores and hits the same keys.  Three routes are compared:

* the call written as an expression, evaluated with :meth:`Evaluator.eval`;
* :meth:`Evaluator.apply` given every argument at once;
* :meth:`Evaluator.apply` given one argument at a time, sharing one budget,
  which builds every partial application.
"""

import pytest

from repro.lang.errors import LangError, MatchFailure
from repro.lang.eval import EvalBudget, memo_table
from repro.lang.parser import parse_expression
from repro.lang.program import Program
from repro.lang.types import TData
from repro.lang.values import VClosure, VCtor, int_of_nat, nat_of_int, v_list

SOURCE = """
type list = Nil | Cons of nat * list

let pick (a : nat) (b : nat) : nat =
  match a with
  | O -> b
  | S p -> plus p b

let sum3 (a : nat) (b : nat) (c : nat) : nat = plus (pick a b) c

let rec fill (n : nat) (x : nat) (y : nat) (l : list) : list =
  match n with
  | O -> l
  | S m -> Cons (pick x y, fill m y x l)

let staged (a : nat) : nat -> nat =
  let d = S a in fun (b : nat) -> plus d b

let staged2 (a : nat) (b : nat) : nat -> nat =
  let d = plus a b in fun (c : nat) -> plus d c

let strict (a : nat) (b : nat) (c : nat) : nat =
  match a with
  | S p -> plus b c

let twice (f : nat -> nat) (x : nat) : nat = f (f x)
"""

#: A recursive closure built by ``Evaluator.closure`` whose body is a ``fun``:
#: its first step captures the closure itself.
REC_BODY = "fun (m : nat) -> match n with | O -> m | S p -> S (self p m)"


@pytest.fixture(scope="module")
def program():
    return Program.from_source(SOURCE)


def _rec_closure(program):
    return program.evaluator.closure("n", TData("nat"), parse_expression(REC_BODY),
                                     rec_name="self")


def _nats(*items):
    return tuple(nat_of_int(item) for item in items)


# (case id, head: a global name or a builder, arguments)
CASES = [
    ("arity-2", "pick", lambda p: _nats(3, 4)),
    ("arity-3", "sum3", lambda p: _nats(2, 1, 3)),
    ("arity-4-let-rec", "fill", lambda p: _nats(3, 1, 2) + (v_list(_nats(5)),)),
    ("let-in-fun", "staged", lambda p: _nats(2, 3)),
    ("let-in-fun-over-applied", "staged2", lambda p: _nats(2, 1, 3)),
    ("match-failure", "strict", lambda p: _nats(0, 1, 2)),
    ("partial-application", "sum3", lambda p: _nats(2, 1)),
    ("rec-named-closure", _rec_closure, lambda p: _nats(2, 3)),
]


def _head(program, head):
    return program.global_value(head) if isinstance(head, str) else head(program)


def _names(args):
    return [f"a{index}" for index in range(len(args))]


def _expression_route(program, head, args, budget):
    """The call as an expression: the head is a global, or the local ``f``."""
    name = head if isinstance(head, str) else "f"
    env = dict(zip(_names(args), args))
    if not isinstance(head, str):
        env["f"] = head(program)
    expr = parse_expression(" ".join([name] + _names(args)))
    return program.evaluator.eval(expr, env, budget)


def _all_at_once(program, head, args, budget):
    return program.evaluator.apply(_head(program, head), *args, budget=budget)


def _one_at_a_time(program, head, args, budget, as_expression=False):
    """Apply to one argument at a time.  ``as_expression`` also spends the
    units the expression spends around its applications: one per
    application node and one for the head, at once, then one for each
    argument variable before its application."""
    fn = _head(program, head)
    if as_expression:
        for _ in range(len(args) + 1):
            budget.spend()
    for arg in args:
        if as_expression:
            budget.spend()
        fn = program.evaluator.apply(fn, arg, budget=budget)
    return fn


def _outcome(route, fuel):
    """The route's value (a closure as its code and captured values) or error
    type, and the budget's ``remaining`` afterwards."""
    budget = EvalBudget(fuel)
    try:
        value = route(budget)
    except LangError as error:
        value = type(error)
    if isinstance(value, VClosure):
        value = ("closure", value.code, value.env)
    return value, budget.remaining


def _cost(route):
    budget = EvalBudget(10_000)
    try:
        route(budget)
    except LangError:
        pass
    return 10_000 - budget.remaining


@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
def test_routes_agree_at_every_budget(program, case):
    _, head, build = case
    args = build(program)

    def route(run, **options):
        return lambda budget: run(program, head, args, budget, **options)

    cost = _cost(route(_one_at_a_time))
    for fuel in range(cost + 1):
        assert _outcome(route(_all_at_once), fuel) == \
            _outcome(route(_one_at_a_time), fuel), fuel
    cost = _cost(route(_one_at_a_time, as_expression=True))
    for fuel in range(cost + 1):
        assert _outcome(route(_expression_route), fuel) == \
            _outcome(route(_one_at_a_time, as_expression=True), fuel), fuel
    # the last budget is the full cost: the call finishes
    assert _outcome(route(_expression_route), cost)[1] == 0


def test_results(program):
    assert int_of_nat(program.call("sum3", *_nats(2, 1, 3))) == 5
    assert int_of_nat(program.call("staged2", *_nats(2, 1, 3))) == 6
    assert program.call("fill", *_nats(2, 1, 2), v_list(())) == v_list(_nats(2, 2))
    assert int_of_nat(program.apply(_rec_closure(program), *_nats(2, 3))) == 5
    with pytest.raises(MatchFailure):
        program.call("strict", *_nats(0, 1, 2))


def test_only_bodies_that_are_a_fun_are_stepped_into(program):
    for name in ("pick", "sum3", "fill", "staged", "staged2"):
        program.call(name, *_nats(1))  # compile the outer body
    assert program.global_value("pick").code.inner is not None
    assert program.global_value("sum3").code.inner.inner is not None
    assert program.global_value("fill").code.inner.inner.inner is not None
    assert program.global_value("staged").code.inner is None
    assert program.global_value("staged2").code.inner.inner is None


@pytest.mark.parametrize("case", CASES[:3], ids=[c[0] for c in CASES[:3]])
def test_memo_keys_are_those_of_one_application_at_a_time(program, case):
    _, head, build = case
    args = build(program)
    routes = [_all_at_once, _one_at_a_time]
    for first, second in (routes, routes[::-1]):
        with memo_table() as table:
            stored = _outcome(lambda budget: first(program, head, args, budget), 10_000)
            size = len(table)
            assert size
            hit = _outcome(lambda budget: second(program, head, args, budget), 10_000)
            assert len(table) == size
            assert hit == stored


def test_partial_application_is_a_working_closure(program):
    plus_two = program.apply(program.global_value("plus"), nat_of_int(2))
    assert isinstance(plus_two, VClosure)
    assert int_of_nat(program.call("twice", plus_two, nat_of_int(1))) == 5
    expr = parse_expression("twice (sum3 (S (S O)) O) (S (S O))")
    assert int_of_nat(program.eval_expr(expr)) == 4
    sum3_partial = program.apply(program.global_value("sum3"), *_nats(3, 0))
    assert isinstance(sum3_partial, VClosure)
    assert int_of_nat(program.apply(sum3_partial, nat_of_int(4))) == 6
    assert program.call("twice", sum3_partial, VCtor("O")) == nat_of_int(4)
