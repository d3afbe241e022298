"""Unit and property tests for size-ordered value enumeration."""

from hypothesis import given, settings, strategies as st

from repro.enumeration.values import ValueEnumerator
from repro.lang.program import Program
from repro.lang.types import TData, TProd
from repro.lang.values import int_of_nat, value_size


def make_enumerator():
    program = Program.from_source("""
type list = Nil | Cons of nat * list
type tree = Leaf | Node of tree * nat * tree
""")
    return ValueEnumerator(program.types), program


def test_nat_enumeration_counts():
    enumerator, _ = make_enumerator()
    # There is exactly one natural of each size: S^(n-1) O.
    for size in range(1, 6):
        values = enumerator.values_of_size(TData("nat"), size)
        assert len(values) == 1
        assert int_of_nat(values[0]) == size - 1


def test_bool_enumeration():
    enumerator, _ = make_enumerator()
    assert len(enumerator.values_of_size(TData("bool"), 1)) == 2
    assert enumerator.values_of_size(TData("bool"), 2) == ()


def test_list_enumeration_sizes_and_order():
    enumerator, _ = make_enumerator()
    values = enumerator.smallest(TData("list"), 30)
    sizes = [value_size(v) for v in values]
    assert sizes == sorted(sizes)
    assert str(values[0]) == "[]"
    # every produced value has the size the enumerator claims
    for size in range(1, 8):
        for value in enumerator.values_of_size(TData("list"), size):
            assert value_size(value) == size


def test_product_enumeration():
    enumerator, _ = make_enumerator()
    pair = TProd((TData("nat"), TData("bool")))
    values = enumerator.values_of_size(pair, 3)
    # size 3 = tuple node + nat of size 1 + bool of size 1
    assert len(values) == 2
    assert all(value_size(v) == 3 for v in values)


def test_enumerate_respects_bounds():
    enumerator, _ = make_enumerator()
    assert len(list(enumerator.enumerate(TData("list"), max_count=17))) == 17
    assert all(value_size(v) <= 5 for v in enumerator.enumerate(TData("list"), max_size=5))


def test_arrow_types_not_enumerated():
    enumerator, _ = make_enumerator()
    from repro.lang.types import TArrow
    assert enumerator.values_of_size(TArrow(TData("nat"), TData("nat")), 3) == ()


def test_enumeration_is_deterministic_and_duplicate_free():
    enumerator, _ = make_enumerator()
    first = enumerator.smallest(TData("tree"), 60)
    second = ValueEnumerator(make_enumerator()[1].types).smallest(TData("tree"), 60)
    assert first == second
    assert len(set(first)) == len(first)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=1, max_value=9))
def test_every_value_of_claimed_size_has_that_size(size):
    enumerator, _ = make_enumerator()
    for value in enumerator.values_of_size(TData("tree"), size):
        assert value_size(value) == size


# -- proven-exhausted termination (regression: finite types used to hang) ---------


def test_finite_type_with_only_max_count_terminates():
    """Regression: ``enumerate(bool, max_count=10)`` used to spin forever on
    ever larger empty size classes once both booleans were produced."""
    enumerator, _ = make_enumerator()
    values = list(enumerator.enumerate(TData("bool"), max_count=10))
    assert len(values) == 2
    assert {str(v) for v in values} == {"True", "False"}


def test_finite_product_with_only_max_count_terminates():
    enumerator, _ = make_enumerator()
    pair = TProd((TData("bool"), TData("bool")))
    values = list(enumerator.enumerate(pair, max_count=100))
    assert len(values) == 4
    assert all(value_size(v) == 3 for v in values)


def test_arrow_enumeration_with_only_max_count_terminates():
    from repro.lang.types import TArrow
    enumerator, _ = make_enumerator()
    assert list(enumerator.enumerate(TArrow(TData("nat"), TData("nat")), max_count=3)) == []


def test_size_bound_classification():
    from repro.lang.types import TArrow
    enumerator, _ = make_enumerator()
    assert enumerator.size_bound(TData("bool")) == 1
    assert enumerator.size_bound(TData("nat")) is None       # recursive
    assert enumerator.size_bound(TData("list")) is None      # recursive
    assert enumerator.size_bound(TProd((TData("bool"), TData("bool")))) == 3
    assert enumerator.size_bound(TProd((TData("bool"), TData("nat")))) is None
    assert enumerator.size_bound(TArrow(TData("nat"), TData("nat"))) == 0
    # A product over an uninhabitable component is itself uninhabitable.
    assert enumerator.size_bound(
        TProd((TData("bool"), TArrow(TData("nat"), TData("nat"))))) == 0


def test_smallest_on_finite_type_is_unaffected():
    enumerator, _ = make_enumerator()
    assert len(enumerator.smallest(TData("bool"), 10)) == 2
    assert len(enumerator.smallest(TData("list"), 10)) == 10
