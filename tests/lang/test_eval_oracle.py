"""The generated evaluator agrees with the closure compiler at every budget.

``reference_eval.py`` is the closure-compiling evaluator that generated code
replaced.  Each call below runs in a program of each evaluator at every
budget from 0 to one more than the call's cost, and both must give the same
value object (a closure compares by its parameter, body and captured values,
a native by its name), leave the same ``remaining``, and raise the same error
class with the same message.  The calls are the golden fuel-parity cases,
the two-argument and curried call cases, unbound globals, and on every
built-in and example module the first sufficiency assignments and the first
applications of every operation, with and without an open memo table.
"""

import glob
import os
from itertools import islice

import pytest

import test_eval_call2 as call2
import test_eval_curried as curried
import test_fuel_parity as parity
from reference_eval import reference_program

from repro.core.config import FAST_VERIFIER_BOUNDS
from repro.core.module import ModuleInstance
from repro.enumeration.functions import FunctionEnumerator
from repro.enumeration.ordering import diagonal_product
from repro.lang.errors import LangError
from repro.lang.eval import EvalBudget, memo_table
from repro.lang.parser import parse_expression
from repro.lang.program import Program
from repro.lang.types import TArrow, arrow_args, substitute_abstract
from repro.lang.values import VClosure, VNative
from repro.spec.loader import load_module_file
from repro.suite.registry import all_benchmark_names, get_benchmark
from repro.verify.tester import Verifier

EXAMPLES = sorted(glob.glob(os.path.join(os.path.dirname(__file__), "..", "..", "examples",
                                         "modules", "*.hanoi")))

#: Sufficiency assignments and applications per operation compared per module.
ASSIGNMENTS = 8
APPLICATIONS = 6


def _normal(value):
    if isinstance(value, VClosure):
        return ("closure", value.param, value.body, tuple(_normal(item) for item in value.env))
    if isinstance(value, VNative):
        return ("native", value.name)
    return value


def _outcome(run, fuel):
    budget = EvalBudget(fuel)
    try:
        value = _normal(run(budget))
    except LangError as error:
        value = (type(error), str(error))
    return value, budget.remaining


def agree(generated, reference, natives=None):
    """Run both at every budget up to one past the reference's cost, which
    is returned; with ``natives``, a list the calls' natives append to, also
    compare the native calls each run made."""
    def observed(run, fuel):
        if natives is None:
            return _outcome(run, fuel)
        del natives[:]
        return _outcome(run, fuel), list(natives)

    cost = 10_000 - _outcome(reference, 10_000)[1]
    assert cost < 10_000
    for fuel in range(cost + 2):
        assert observed(generated, fuel) == observed(reference, fuel), fuel
    return cost


# -- the golden, two-argument and curried cases -----------------------------------


def _both(source):
    return Program.from_source(source), reference_program(source)


@pytest.fixture(scope="module")
def parity_programs():
    return _both(parity.SOURCE)


@pytest.mark.parametrize("case", parity.CASES, ids=[c[0] for c in parity.CASES])
def test_fuel_parity_cases(parity_programs, case):
    _, name, build, _, _ = case
    generated, reference = [
        (lambda p: lambda budget: p.evaluator.apply(p.global_value(name), *build(p),
                                                    budget=budget))(program)
        for program in parity_programs]
    agree(generated, reference)


@pytest.fixture(scope="module")
def call2_programs():
    programs = _both(call2.SOURCE)
    for program in programs:
        for name, (param, body) in call2.REC_HEADS.items():
            program.evaluator.globals[name] = program.evaluator.closure(
                param, call2.TData("nat"), parse_expression(body), rec_name="self")
        program.evaluator.globals["native2"] = VNative(call2._native2, "native2")
    return programs


@pytest.mark.parametrize("shape", call2.SHAPES)
@pytest.mark.parametrize("head", call2.HEADS)
def test_two_argument_call_cases(call2_programs, head, shape):
    for route in range(2):
        runs = []
        for program in call2_programs:
            source, env = call2._routes(program, head, shape)[route]
            expr = parse_expression(source)
            runs.append((lambda p, e, x: lambda budget: p.evaluator.eval(x, e, budget))(
                program, env, expr))
        agree(*runs, natives=call2.NATIVE_CALLS)


#: Unbound globals at the head, at either argument and under other nodes.
UNBOUND = ["nosuch x y", "pick nosuch y", "pick x nosuch", "S (nosuch x)",
           "pick (S x) (nosuch y)", "match nosuch with | O -> x | S p -> p",
           "let z = S y in konst z (nosuch z)", "nosuch"]


@pytest.mark.parametrize("source", UNBOUND)
def test_unbound_global_cases(call2_programs, source):
    expr = parse_expression(source)
    agree(*[(lambda p: lambda budget: p.evaluator.eval(expr, call2.ENV, budget))(program)
            for program in call2_programs])


@pytest.fixture(scope="module")
def curried_programs():
    return _both(curried.SOURCE)


ROUTES = {
    "expression": curried._expression_route,
    "all-at-once": curried._all_at_once,
    "one-at-a-time": curried._one_at_a_time,
}


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("case", curried.CASES, ids=[c[0] for c in curried.CASES])
def test_curried_call_cases(curried_programs, case, route):
    _, head, build = case
    runs = [(lambda p: lambda budget: ROUTES[route](p, head, build(p), budget))(program)
            for program in curried_programs]
    agree(*runs)


# -- every built-in and example ---------------------------------------------------


def _definition(name):
    return load_module_file(name) if name.endswith(".hanoi") else get_benchmark(name)


def _calls(instance):
    """The module's first sufficiency assignments and operation
    applications, as (function value, arguments) pairs."""
    verifier = Verifier(instance, bounds=FAST_VERIFIER_BOUNDS)
    signature = instance.spec_concrete_signature()
    pools = [verifier._pool(ty, len(signature)) for ty in signature]
    spec = instance.program.global_value(instance.definition.spec_name)
    calls = [(spec, assignment)
             for assignment in islice(diagonal_product(pools, 1_000), ASSIGNMENTS)]
    functions = FunctionEnumerator(instance)
    for op in instance.operations:
        concrete = tuple(arrow_args(substitute_abstract(op.signature,
                                                        instance.concrete_type)))
        interface = tuple(arrow_args(op.signature))
        pools = [functions.functions(ty, 2) if isinstance(ty, TArrow)
                 else verifier._pool(concrete_ty, len(concrete))
                 for ty, concrete_ty in zip(interface, concrete)]
        fn = instance.operation_value(op)
        calls.extend((fn, args) for args in islice(diagonal_product(pools, 1_000),
                                                   APPLICATIONS))
    return calls


@pytest.mark.parametrize("name", all_benchmark_names() + EXAMPLES,
                         ids=all_benchmark_names() + [os.path.basename(p) for p in EXAMPLES])
def test_module_calls(name):
    definition = _definition(name)
    instances = [definition.instantiate(),
                 ModuleInstance(definition,
                                reference_program(declarations=definition.declarations))]
    generated, reference = [_calls(instance) for instance in instances]
    assert len(generated) == len(reference) > ASSIGNMENTS
    for (fn, args), (ref_fn, ref_args) in zip(generated, reference):
        assert [_normal(arg) for arg in args] == [_normal(arg) for arg in ref_args]
        runs = [(lambda p, f, a: lambda budget: p.evaluator.apply(f, *a, budget=budget))(
                    instance.program, function, arguments)
                for instance, (function, arguments) in zip(instances, [(fn, args),
                                                                       (ref_fn, ref_args)])]
        cost = agree(*runs)
        memoized = []
        for run in runs:  # a stored call, replayed or run again at every budget
            with memo_table():
                _outcome(run, 10_000)
                memoized.append([_outcome(run, fuel) for fuel in range(cost + 2)])
        assert memoized[0] == memoized[1]
