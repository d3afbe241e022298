"""Types are hash-consed: equal types are one object.

Building a type returns the interned object equal to it, so equality is the
identity test and hashing is ``object``'s C slot.  Pickling and deep copies
go through the constructor; the dataclass ``repr``, which the disk-store keys
and ``repro lint --hash`` read, is unchanged.
"""

import copy
import pickle

import pytest

from repro.lang.types import TAbstract, TArrow, TData, TProd, arrow, prod, substitute_abstract


def _build():
    """A fresh construction of one type of each class, nested ones included."""
    return [
        TData("nat"),
        TAbstract(),
        TProd((TData("nat"), TData("list"))),
        TArrow(TData("nat"), TData("bool")),
        TArrow(TData("list"), TProd((TData("nat"), TAbstract()))),
        arrow(TArrow(TData("nat"), TAbstract()), TAbstract(), TProd((TAbstract(), TData("nat")))),
        prod(TArrow(TData("nat"), TData("nat")), TProd((TAbstract(), TAbstract())), TData("bool")),
    ]


def test_equal_types_built_separately_are_one_object():
    for first, second in zip(_build(), _build()):
        assert first is second
    assert substitute_abstract(TArrow(TAbstract(), TAbstract()), TData("list")) \
        is TArrow(TData("list"), TData("list"))


def test_distinct_types_stay_distinct():
    types = _build()
    assert len({id(ty) for ty in types}) == len(types)
    assert TData("nat") is not TData("list")
    assert TArrow(TData("nat"), TData("list")) is not TArrow(TData("list"), TData("nat"))


@pytest.mark.parametrize("protocol", [0, pickle.HIGHEST_PROTOCOL])
def test_pickle_returns_the_interned_object(protocol):
    for ty in _build():
        assert pickle.loads(pickle.dumps(ty, protocol=protocol)) is ty


def test_copies_return_the_interned_object():
    for ty in _build():
        assert copy.deepcopy(ty) is ty
        assert copy.copy(ty) is ty
    nested = {"signature": [TArrow(TData("list"), TAbstract())]}
    assert copy.deepcopy(nested)["signature"][0] is nested["signature"][0]


def test_repr_is_the_dataclass_repr():
    ty = TArrow(TData("list"), TProd((TData("nat"), TAbstract())))
    assert repr(ty) == ("TArrow(arg=TData(name='list'), "
                        "result=TProd(items=(TData(name='nat'), TAbstract())))")
    assert str(ty) == "(list -> (nat * 't))"


def test_a_product_needs_two_components():
    with pytest.raises(ValueError):
        TProd((TData("nat"),))
    with pytest.raises(ValueError):
        TProd(())


def test_types_are_immutable():
    with pytest.raises(AttributeError):
        TData("nat").name = "list"


def test_equality_and_hash_are_the_identity_slots():
    for cls in (TData, TAbstract, TProd, TArrow):
        assert cls.__hash__ is object.__hash__
        assert cls.__eq__ is object.__eq__
