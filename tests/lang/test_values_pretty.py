"""Unit tests for runtime values, conversions, and pretty printing."""

import pytest

from repro.lang.ast import expr_size, free_vars
from repro.lang.parser import parse_expression, parse_program
from repro.lang.pretty import pretty_expr, pretty_fun_decl, pretty_type, pretty_type_decl
from repro.lang.types import TArrow, TData, TProd
from repro.lang.values import (
    VClosure,
    VCtor,
    VTuple,
    bool_of_value,
    int_of_nat,
    is_first_order,
    list_of_value,
    nat_of_int,
    v_bool,
    v_list,
    value_size,
)


def test_nat_roundtrip():
    for n in (0, 1, 5, 17):
        assert int_of_nat(nat_of_int(n)) == n


def test_nat_of_negative_rejected():
    with pytest.raises(ValueError):
        nat_of_int(-1)


def test_bool_conversions():
    assert bool_of_value(v_bool(True)) is True
    assert bool_of_value(v_bool(False)) is False
    with pytest.raises(ValueError):
        bool_of_value(nat_of_int(0))


def test_list_roundtrip():
    items = [nat_of_int(i) for i in (3, 1, 2)]
    value = v_list(items)
    assert list_of_value(value) == items
    with pytest.raises(ValueError):
        list_of_value(nat_of_int(2))


def test_value_size_counts_nodes():
    assert value_size(nat_of_int(0)) == 1
    assert value_size(nat_of_int(3)) == 4
    # Cons node + tuple node + element + Nil
    assert value_size(v_list([nat_of_int(0)])) == 4


def test_values_are_hashable_and_comparable():
    a = v_list([nat_of_int(1)])
    b = v_list([nat_of_int(1)])
    assert a == b
    assert len({a, b}) == 1


def test_is_first_order():
    assert is_first_order(v_list([nat_of_int(1)]))
    closure = VClosure("x", None, parse_expression("x"), ())
    assert not is_first_order(closure)
    assert not is_first_order(VTuple((nat_of_int(1), closure)))


def test_value_rendering_uses_sugar():
    assert str(nat_of_int(3)) == "3"
    assert str(v_list([nat_of_int(1), nat_of_int(2)])) == "[1; 2]"
    assert str(VCtor("Leaf")) == "Leaf"


def test_expr_size_and_free_vars():
    expr = parse_expression("andb (notb (lookup tl hd)) (inv tl)")
    assert expr_size(expr) == 13  # 7 leaves + 6 application nodes
    assert free_vars(expr) == frozenset({"andb", "notb", "lookup", "inv", "tl", "hd"})


def test_pretty_type():
    ty = TArrow(TProd((TData("nat"), TData("list"))), TData("bool"))
    assert pretty_type(ty) == "nat * list -> bool"


def test_pretty_fun_decl_matches_paper_style():
    (decl,) = parse_program("""
let rec inv (l : list) : bool =
  match l with
  | Nil -> True
  | Cons (hd, tl) -> andb (notb (lookup tl hd)) (inv tl)
""")
    rendered = pretty_fun_decl(decl)
    assert rendered.startswith("let rec inv (l : list) : bool =")
    assert "| Nil -> True" in rendered
    assert "andb (notb (lookup tl hd)) (inv tl)" in rendered


def test_pretty_type_decl():
    (decl,) = parse_program("type list = Nil | Cons of nat * list")
    assert pretty_type_decl(decl) == "type list = Nil | Cons of nat * list"


def test_pretty_expr_handles_let_and_fun():
    expr = parse_expression("let y = S x in fun (z : nat) -> plus y z")
    rendered = pretty_expr(expr)
    assert "let y = S x in" in rendered
    assert "fun (z : nat)" in rendered
