"""Two-argument calls of a global run in one closure.

``g a b`` with ``g`` a global compiles to its own closure: it reads a
local-variable argument straight from its frame slot and steps into a curried
closure's inner ``fun`` without building it.  That must be invisible.  The
same expression with ``g`` bound to a local variable runs the generic fused
call, and at every budget the two give the same value or error and leave the
same fuel; inside a memo table they store the same entries.  The value is
also the one :meth:`Evaluator.apply` gives.
"""

import pytest

from repro.lang.errors import EvalError, FuelExhausted, LangError
from repro.lang.eval import EvalBudget, memo_table
from repro.lang.parser import parse_expression
from repro.lang.program import Program
from repro.lang.types import TData
from repro.lang.values import VClosure, VNative, nat_of_int

SOURCE = """
let pick (a : nat) (b : nat) : nat =
  match a with
  | O -> b
  | S p -> plus p b

let konst (a : nat) (b : nat) : nat = b

let double (n : nat) : nat = plus n n

let staged2 (a : nat) (b : nat) : nat -> nat =
  let d = plus a b in fun (c : nat) -> plus d c

let part : nat -> nat -> nat = staged2 (S O)

let two : nat = S (S O)
"""

#: Recursive closures whose body is a ``fun``.  The first's inner ``fun``
#: captures the frame's leading slots in order, so stepping in keeps them;
#: the second's captures them in the other order, so they are gathered.
REC_HEADS = {
    "rec_kept": ("n", "fun (m : nat) -> match n with | O -> m | S p -> S (self p m)"),
    "rec_gathered": ("z", "fun (m : nat) -> match z with | O -> m | S p -> S (self p m)"),
}

#: Calls of natives, in order, across the whole module.
NATIVE_CALLS = []


def _native2(a):
    NATIVE_CALLS.append(("first", a))

    def second(b):
        NATIVE_CALLS.append(("second", b))
        return nat_of_int(7)
    return VNative(second, "native2-second")


@pytest.fixture(scope="module")
def program():
    program = Program.from_source(SOURCE)
    for name, (param, body) in REC_HEADS.items():
        program.evaluator.globals[name] = program.evaluator.closure(
            param, TData("nat"), parse_expression(body), rec_name="self")
    program.evaluator.globals["native2"] = VNative(_native2, "native2")
    return program


HEADS = ["pick", "konst", "rec_kept", "rec_gathered", "native2", "part", "two"]

SHAPES = {
    "local/local": ("x", "y"),
    "local/application": ("x", "(double y)"),
    "application/local": ("(double x)", "y"),
    "application/application": ("(double x)", "(pick y x)"),
    "constant/local": ("(S O)", "y"),
}

ENV = {"x": nat_of_int(2), "y": nat_of_int(1)}


def _run(program, source, env, fuel):
    """The expression's value (a closure as its code and captured values) or
    error type, and the budget's ``remaining`` afterwards."""
    budget = EvalBudget(fuel)
    try:
        value = program.evaluator.eval(parse_expression(source), env, budget)
    except LangError as error:
        value = type(error)
    if isinstance(value, VClosure):
        value = ("closure", value.code, value.env)
    return value, budget.remaining


def _routes(program, head, shape):
    """The call with a global head, and the same call through a local."""
    args = " ".join(SHAPES[shape])
    local_env = dict(ENV, f=program.global_value(head))
    return ((f"{head} {args}", ENV), (f"f {args}", local_env))


def _cost(program, source, env):
    return 10_000 - _run(program, source, env, 10_000)[1]


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("head", HEADS)
def test_global_call_matches_the_generic_call_at_every_budget(program, head, shape):
    (global_call, global_env), (local_call, local_env) = _routes(program, head, shape)
    cost = _cost(program, local_call, local_env)
    assert _cost(program, global_call, global_env) == cost
    for fuel in range(cost + 1):
        del NATIVE_CALLS[:]
        expected = _run(program, local_call, local_env, fuel), list(NATIVE_CALLS)
        del NATIVE_CALLS[:]
        assert (_run(program, global_call, global_env, fuel), list(NATIVE_CALLS)) == \
            expected, fuel
    value, remaining = _run(program, global_call, global_env, cost)
    assert remaining == 0
    assert _run(program, global_call, global_env, cost - 1) == (FuelExhausted, -1)
    if head == "two":
        assert value is EvalError  # application of a non-function value
        return
    values = [program.evaluator.eval(parse_expression(arg), ENV) for arg in SHAPES[shape]]
    applied = program.evaluator.apply(program.global_value(head), *values)
    if isinstance(applied, VClosure):
        applied = ("closure", applied.code, applied.env)
    assert value == applied


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("head", ["pick", "konst", "staged2", "part"])
def test_memo_entries_match_the_generic_call(program, head, shape):
    tables = []
    for source, env in _routes(program, head, shape):
        with memo_table() as table:
            outcome = _run(program, source, env, 10_000)
            tables.append((outcome, dict(table)))
    assert tables[0] == tables[1]
    assert tables[0][1]


def test_unbound_head_raises_before_the_arguments_run(program):
    probe_calls = []

    def probe(value):
        probe_calls.append(value)
        return value

    env = dict(ENV, probe=VNative(probe, "probe"))
    for fuel in range(10):
        budget = EvalBudget(fuel)
        error = FuelExhausted if fuel < 3 else EvalError
        with pytest.raises(error):
            program.evaluator.eval(parse_expression("nosuch (probe x) y"), env, budget)
        assert budget.remaining == (fuel - 3 if fuel >= 3 else -1)
    assert probe_calls == []
    with pytest.raises(EvalError, match="unbound variable at runtime: nosuch"):
        program.evaluator.eval(parse_expression("nosuch x y"), ENV)


def test_curried_heads_step_in_without_gathering_when_they_can(program):
    program.call("pick", *ENV.values())  # compile the outer bodies
    program.call("konst", *ENV.values())
    program.apply(program.global_value("rec_kept"), *ENV.values())
    program.apply(program.global_value("rec_gathered"), *ENV.values())
    assert program.global_value("pick").code.gather is None
    assert program.global_value("rec_kept").code.gather is None
    assert program.global_value("konst").code.gather is not None
    assert program.global_value("rec_gathered").code.gather is not None
