"""Unit tests for the Program wrapper (parse + check + load)."""

import pytest

from repro.lang.errors import TypeError_
from repro.lang.program import Program
from repro.lang.values import bool_of_value, int_of_nat, nat_of_int


def test_from_source_includes_prelude_by_default():
    program = Program.from_source("let three : nat = 3")
    assert program.has_global("plus")
    assert int_of_nat(program.global_value("three")) == 3


def test_without_prelude_prelude_names_absent():
    program = Program.from_source("type unit = Unit", include_prelude=False)
    assert not program.has_global("plus")


def test_extend_adds_declarations():
    program = Program.from_source("")
    program.extend("let rec double (n : nat) : nat = match n with | O -> O | S x -> S (S (double x))")
    assert int_of_nat(program.call("double", nat_of_int(4))) == 8


def test_global_type_and_value_lookup_errors():
    program = Program.from_source("")
    with pytest.raises(TypeError_):
        program.global_value("missing")
    with pytest.raises(TypeError_):
        program.global_type("missing")
    with pytest.raises(TypeError_):
        program.datatype("missing")


def test_mutual_recursion_through_globals():
    program = Program.from_source("""
let rec is_even (n : nat) : bool =
  match n with
  | O -> True
  | S x -> is_odd x

let rec is_odd (n : nat) : bool =
  match n with
  | O -> False
  | S x -> is_even x
""")
    # ``is_even`` calls ``is_odd`` which is defined later; resolution happens
    # through the global environment at call time.
    assert bool_of_value(program.call("is_even", nat_of_int(10)))
    assert not bool_of_value(program.call("is_even", nat_of_int(7)))


def test_ill_typed_source_rejected_atomically():
    program = Program.from_source("")
    with pytest.raises(TypeError_):
        program.extend("let broken : nat = True")
