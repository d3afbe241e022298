"""Golden fuel counts for the evaluator.

Fuel exhaustion is an observable outcome (a candidate invariant that runs out
of fuel rejects the value), so the number of steps a call consumes is part of
the evaluator's contract: one unit per expression node evaluated and one per
function application.  The literals below were recorded from the original
tree-walking interpreter; any evaluator must reproduce them exactly.

For each case the call must succeed with exactly ``steps`` units of fuel and
raise :class:`FuelExhausted` with one unit less.
"""

import pytest

from repro.lang.errors import FuelExhausted
from repro.lang.eval import EvalBudget
from repro.lang.parser import parse_expression
from repro.lang.program import Program
from repro.lang.values import VNative, int_of_nat, nat_of_int, v_list

SOURCE = """
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

let shadow_let (x : nat) : nat =
  let x = S x in plus x x

let shadow_match (x : nat) (l : list) : nat =
  match l with
  | Nil -> x
  | Cons (x, tl) -> plus x x

let adder (l : list) : nat -> nat =
  match l with
  | Nil -> (fun (y : nat) -> y)
  | Cons (hd, tl) -> (fun (y : nat) -> plus hd y)
"""


@pytest.fixture(scope="module")
def program():
    return Program.from_source(SOURCE)


def _nats(*items):
    return v_list([nat_of_int(i) for i in items])


def _double():
    return VNative(lambda v: nat_of_int(int_of_nat(v) * 2), name="double")


def _lambda(program, source):
    return program.eval_expr(parse_expression(source))


# (case id, global function, arguments, expected nat result or None, steps)
CASES = [
    ("plus", "plus", lambda p: (nat_of_int(3), nat_of_int(4)), 7, 39),
    ("minus", "minus", lambda p: (nat_of_int(5), nat_of_int(2)), 3, 30),
    ("nat_max", "nat_max", lambda p: (nat_of_int(2), nat_of_int(5)), 5, 40),
    ("length", "length", lambda p: (_nats(4, 1, 2),), 3, 25),
    ("append", "append", lambda p: (_nats(4, 1), _nats(9)), None, 32),
    ("twice-global", "twice", lambda p: (p.global_value("succ"), nat_of_int(3)), 5, 14),
    ("twice-lambda", "twice",
     lambda p: (_lambda(p, "fun (y : nat) -> S (S y)"), nat_of_int(3)), 7, 16),
    ("twice-native", "twice", lambda p: (_double(), nat_of_int(3)), 12, 10),
    ("shadow-let", "shadow_let", lambda p: (nat_of_int(2),), 6, 48),
    ("shadow-match", "shadow_match", lambda p: (nat_of_int(7), _nats(2, 5)), 4, 38),
    ("capture-binder", "adder", lambda p: (_nats(3), nat_of_int(2)), 5, 49),
    ("capture-nil", "adder", lambda p: (_nats(), nat_of_int(2)), 2, 6),
]


def _run(program, name, args, fuel):
    budget = EvalBudget(fuel)
    result = program.evaluator.apply(program.global_value(name), *args, budget=budget)
    return result, fuel - budget.remaining


@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
def test_golden_step_count(program, case):
    _, name, build, expected, steps = case
    result, spent = _run(program, name, build(program), 10_000)
    if expected is not None:
        assert int_of_nat(result) == expected
    assert spent == steps


@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
def test_exact_fuel_succeeds_and_one_less_exhausts(program, case):
    _, name, build, _, steps = case
    _, spent = _run(program, name, build(program), steps)
    assert spent == steps
    with pytest.raises(FuelExhausted):
        _run(program, name, build(program), steps - 1)
