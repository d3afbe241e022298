"""Unit tests for type-inhabitation reachability pruning."""

from dataclasses import dataclass
from typing import Tuple

from repro.analysis.reachability import (
    constructible_types,
    split_components,
)
from repro.lang.prelude import PRELUDE_SOURCE
from repro.lang.program import Program
from repro.lang.types import TData, TProd, Type

NAT = TData("nat")
BOOL = TData("bool")


@dataclass(frozen=True)
class FakeComponent:
    """Anything with ``argument_types``/``result_type`` works as a component."""

    name: str
    argument_types: Tuple[Type, ...]
    result_type: Type


def _env(extra: str = ""):
    program = Program()
    program.extend(PRELUDE_SOURCE)
    if extra:
        program.extend(extra)
    return program.types


def _names(components):
    return [c.name for c in components]


def test_constructible_includes_seeds_and_nullary_datatypes():
    env = _env()
    constructible = constructible_types([NAT], env, [])
    # nat has O, bool has True/False, natoption has NoneN, cmp has LT/EQ/GT:
    # all four prelude datatypes have nullary constructors.
    assert {NAT, BOOL, TData("natoption"), TData("cmp")} <= constructible


def test_constructible_grows_through_components():
    env = _env("type wrapped = Wrap of nat")
    mk = FakeComponent("mk", (NAT,), TData("wrapped"))
    assert TData("wrapped") not in constructible_types([NAT], env, [])
    assert TData("wrapped") in constructible_types([NAT], env, [mk])


def test_destructure_closes_seeds_downward():
    env = _env("type pair_holder = Hold of nat * bool")
    holder = TData("pair_holder")
    shallow = constructible_types([holder], env, [], destructure=False)
    deep = constructible_types([holder], env, [], destructure=True)
    assert TProd((NAT, BOOL)) not in shallow
    assert TProd((NAT, BOOL)) in deep


def test_unreachable_result_type_pruned():
    env = _env("type ghost = Mist of nat")
    useful = FakeComponent("size", (NAT,), NAT)
    useless = FakeComponent("haunt", (NAT,), TData("ghost"))
    kept, dropped = split_components([useful, useless], [NAT], env, BOOL)
    # ghost never feeds bool; size feeds nothing either unless nat is needed.
    assert "haunt" in _names(dropped)


def test_chain_toward_goal_kept():
    env = _env("type mid = Mid of nat")
    step1 = FakeComponent("lift", (NAT,), TData("mid"))
    step2 = FakeComponent("test", (TData("mid"),), BOOL)
    kept, dropped = split_components([step1, step2], [NAT], env, BOOL)
    assert _names(kept) == ["lift", "test"]
    assert dropped == []


def test_component_with_unconstructible_argument_pruned():
    env = _env("type rare = Rare of nat")
    # Nothing produces ``rare`` (no nullary ctor, no component), so a
    # component consuming it can never be applied.
    consumer = FakeComponent("use_rare", (TData("rare"),), BOOL)
    kept, dropped = split_components([consumer], [NAT], env, BOOL)
    assert kept == []
    assert _names(dropped) == ["use_rare"]


def test_needed_argument_types_keep_their_producers():
    env = _env()
    a = FakeComponent("a", (NAT,), BOOL)
    b = FakeComponent("b", (NAT,), NAT)
    # Once ``a`` is useful, its nat argument is needed, so ``b`` is too.
    kept, _ = split_components([a, b], [NAT], env, BOOL)
    assert _names(kept) == ["a", "b"]


def test_prune_preserves_order():
    env = _env("type ghost = Mist of nat")
    a = FakeComponent("a", (NAT,), BOOL)
    g = FakeComponent("g", (NAT,), TData("ghost"))
    c = FakeComponent("c", (BOOL,), BOOL)
    kept, _ = split_components([a, g, c], [NAT], env, BOOL)
    assert _names(kept) == ["a", "c"]


def test_mutually_useful_cycle_requires_goal_path():
    env = _env("type x = MkX of nat\ntype y = MkY of nat")
    # x <-> y feed each other but never the goal.
    x2y = FakeComponent("x2y", (TData("x"),), TData("y"))
    y2x = FakeComponent("y2x", (TData("y"),), TData("x"))
    kept, dropped = split_components([x2y, y2x], [NAT], env, BOOL)
    assert kept == []
    assert len(dropped) == 2
