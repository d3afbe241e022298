"""Unit tests for the parser."""

import pytest

from repro.lang.ast import (
    ECtor,
    EFun,
    ELet,
    EMatch,
    ETuple,
    EVar,
    EApp,
    FunDecl,
    PCtor,
    PTuple,
    PVar,
    PWild,
    TypeDecl,
)
from repro.lang.errors import ParseError
from repro.lang.parser import MAX_NESTING, parse_expression, parse_program, parse_type
from repro.lang.types import TArrow, TData, TProd


def test_parse_type_arrow_right_associative():
    ty = parse_type("nat -> nat -> bool")
    assert ty == TArrow(TData("nat"), TArrow(TData("nat"), TData("bool")))


def test_parse_type_product_binds_tighter_than_arrow():
    ty = parse_type("nat * list -> bool")
    assert ty == TArrow(TProd((TData("nat"), TData("list"))), TData("bool"))


def test_parse_type_parentheses():
    ty = parse_type("(nat -> nat) -> list")
    assert isinstance(ty.arg, TArrow)


def test_parse_type_decl():
    (decl,) = parse_program("type list = Nil | Cons of nat * list")
    assert isinstance(decl, TypeDecl)
    assert [c.name for c in decl.ctors] == ["Nil", "Cons"]
    assert decl.ctors[0].payload is None
    assert decl.ctors[1].payload == TProd((TData("nat"), TData("list")))


def test_parse_fun_decl_with_params():
    (decl,) = parse_program("let rec plus (a : nat) (b : nat) : nat = b")
    assert isinstance(decl, FunDecl)
    assert decl.recursive
    assert decl.params == (("a", TData("nat")), ("b", TData("nat")))
    assert decl.return_type == TData("nat")


def test_parse_value_decl_without_params():
    (decl,) = parse_program("let empty : list = Nil")
    assert decl.params == ()
    assert decl.body == ECtor("Nil")


def test_application_is_left_associative():
    expr = parse_expression("f a b c")
    assert expr == EApp(EApp(EApp(EVar("f"), EVar("a")), EVar("b")), EVar("c"))


def test_constructor_takes_single_payload_atom():
    expr = parse_expression("Cons (x, xs)")
    assert expr == ECtor("Cons", ETuple((EVar("x"), EVar("xs"))))


def test_constructor_with_two_arguments_rejected():
    with pytest.raises(ParseError):
        parse_expression("Cons x xs")


def test_integer_literal_expands_to_peano():
    assert parse_expression("2") == ECtor("S", ECtor("S", ECtor("O")))
    assert parse_expression("0") == ECtor("O")


def test_if_desugars_to_match_on_bool():
    expr = parse_expression("if c then a else b")
    assert isinstance(expr, EMatch)
    assert [b.pattern for b in expr.branches] == [PCtor("True"), PCtor("False")]


def test_match_with_patterns():
    expr = parse_expression(
        "match l with | Nil -> True | Cons (hd, tl) -> False | _ -> False"
    )
    assert isinstance(expr, EMatch)
    patterns = [b.pattern for b in expr.branches]
    assert patterns[0] == PCtor("Nil")
    assert patterns[1] == PCtor("Cons", PTuple((PVar("hd"), PVar("tl"))))
    assert isinstance(patterns[2], PWild)


def test_nested_match_requires_parentheses_and_parses():
    expr = parse_expression(
        "match l with | Nil -> True | Cons (hd, tl) -> (match tl with | Nil -> True | Cons (a, b) -> False)"
    )
    outer = expr
    assert len(outer.branches) == 2
    inner = outer.branches[1].body
    assert isinstance(inner, EMatch)
    assert len(inner.branches) == 2


def test_let_in_and_fun():
    expr = parse_expression("let y = f x in fun (z : nat) -> g y z")
    assert isinstance(expr, ELet)
    assert isinstance(expr.body, EFun)


def test_tuple_expression():
    expr = parse_expression("(a, b, c)")
    assert expr == ETuple((EVar("a"), EVar("b"), EVar("c")))


def test_trailing_input_rejected():
    with pytest.raises(ParseError):
        parse_expression("f x) y")


def test_missing_branch_body_rejected():
    with pytest.raises(ParseError):
        parse_program("let f (x : nat) : nat = match x with | O ->")


def test_nesting_is_bounded_for_every_construct():
    depth = MAX_NESTING - 1  # the outermost expression is one level itself
    inside = {
        "parentheses": lambda n: "(" * n + "x" + ")" * n,
        "applications": lambda n: "f" + " x" * n,
        "let chains": lambda n: "let y = x in " * n + "x",
        "arrow types": lambda n: "fun (g : " + "nat -> " * n + "nat) -> g",
    }
    for name, make in inside.items():
        parse_expression(make(depth - 1))
        with pytest.raises(ParseError, match="nested more than 1000 levels"):
            parse_expression(make(depth + 1))


def test_literals_are_decimal_and_fit_under_the_bound():
    assert parse_expression("0007") == parse_expression("7")
    assert parse_expression("0" * 5000) == ECtor("O")
    parse_expression(str(MAX_NESTING - 1))
    for literal in (str(MAX_NESTING), "30000", "1" * 5000):
        with pytest.raises(ParseError, match="integer literal too large"):
            parse_expression(literal)
    with pytest.raises(ParseError, match="'²' is not a decimal integer literal"):
        parse_expression("²")
