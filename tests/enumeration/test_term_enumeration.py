"""Unit tests for syntactic term enumeration and function-argument enumeration."""

from repro.enumeration.functions import FunctionEnumerator
from repro.enumeration.ordering import diagonal_product
from repro.enumeration.terms import Component, TermEnumerator
from repro.lang.ast import expr_size
from repro.lang.program import Program
from repro.lang.types import TAbstract, TArrow, TData, arrow
from repro.lang.values import int_of_nat, nat_of_int, v_list
from repro.suite.registry import get_benchmark


def make_enumerator():
    program = Program.from_source("type list = Nil | Cons of nat * list")
    components = [
        Component("plus", arrow(TData("nat"), TData("nat"), TData("nat"))),
        Component("nat_eq", arrow(TData("nat"), TData("nat"), TData("bool"))),
        Component("notb", arrow(TData("bool"), TData("bool"))),
    ]
    return TermEnumerator(program.types, components), program


def test_terms_are_well_sized_and_typed():
    enumerator, _ = make_enumerator()
    context = (("x", TData("nat")),)
    terms = list(enumerator.terms(TData("bool"), context, max_size=5))
    assert terms, "expected some boolean terms"
    assert all(expr_size(t) <= 5 for t in terms)
    # size order
    sizes = [expr_size(t) for t in terms]
    assert sizes == sorted(sizes)


def test_variables_and_constants_at_size_one():
    enumerator, _ = make_enumerator()
    context = (("x", TData("nat")),)
    terms = enumerator.terms_of_size(TData("nat"), context, 1)
    assert {str(t) for t in terms} == {"x", "O"}
    bools = enumerator.terms_of_size(TData("bool"), context, 1)
    assert {str(t) for t in bools} == {"True", "False"}


def test_applications_generated():
    enumerator, _ = make_enumerator()
    context = (("x", TData("nat")), ("y", TData("nat")))
    terms = [str(t) for t in enumerator.terms(TData("bool"), context, max_size=5)]
    assert "((nat_eq x) y)" in terms


def test_argument_restrictions_respected():
    program = Program.from_source("type list = Nil | Cons of nat * list")
    restricted = Component(
        "self", arrow(TData("list"), TData("bool")),
        argument_restrictions=(frozenset({"tl"}),),
    )
    enumerator = TermEnumerator(program.types, [restricted])
    context = (("x", TData("list")), ("tl", TData("list")))
    terms = [str(t) for t in enumerator.terms(TData("bool"), context, max_size=4)]
    assert "(self tl)" in terms
    assert "(self x)" not in terms


def test_functional_context_variables_can_be_applied():
    enumerator, _ = make_enumerator()
    context = (("f", TArrow(TData("nat"), TData("bool"))), ("x", TData("nat")))
    terms = [str(t) for t in enumerator.terms(TData("bool"), context, max_size=3)]
    assert "(f x)" in terms


def test_function_enumerator_simple_arrow():
    instance = get_benchmark("/coq/unique-list-::-set").instantiate()
    enumerator = FunctionEnumerator(instance)
    functions = enumerator.functions(TArrow(TData("nat"), TData("nat")), limit=4)
    assert 1 <= len(functions) <= 4
    # Each enumerated function must be applicable to a natural number.
    for fn in functions:
        result = instance.program.apply(fn, nat_of_int(2))
        int_of_nat(result)  # does not raise


def test_function_enumerator_abstract_arrow_uses_module_operations():
    instance = get_benchmark("/coq/unique-list-::-set").instantiate()
    enumerator = FunctionEnumerator(instance)
    fold_arg = TArrow(TData("nat"), TArrow(TAbstract(), TAbstract()))
    functions = enumerator.functions(fold_arg, limit=5)
    assert functions
    value = v_list([nat_of_int(1)])
    for fn in functions:
        result = instance.program.apply(fn, nat_of_int(0), value)
        assert result is not None


def test_diagonal_product_is_fair_and_bounded():
    pools = [[0, 1, 2, 3], ["a", "b", "c"], [True, False]]
    combos = list(diagonal_product(pools, max_total=10))
    assert len(combos) == 10
    assert combos[0] == (0, "a", True)
    # Within the first ten combos every pool should already have advanced.
    assert any(c[0] != 0 for c in combos)
    assert any(c[1] != "a" for c in combos)
    assert any(c[2] is not True for c in combos)


def test_diagonal_product_empty_pool_yields_nothing():
    assert list(diagonal_product([[1, 2], []], max_total=5)) == []
