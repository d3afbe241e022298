"""`subvalues_at_type` against its recursive definition.

The walk is an explicit stack; the recursive walk it replaced is kept here as
the oracle.  Both must give the same sub-values in the same pre-order on
every value the quick-profile enumerator yields for each shipped module's
concrete type, and the stack walk must handle a value far deeper than the
recursion limit.
"""

import os
import sys

import pytest

from repro.core.config import FAST_VERIFIER_BOUNDS
from repro.enumeration.values import ValueEnumerator
from repro.lang.types import TData, TProd
from repro.lang.values import VCtor, VTuple, nat_of_int, v_list
from repro.spec import load_module_file
from repro.suite.registry import all_benchmark_names, get_benchmark
from repro.synth.examples import subvalues_at_type

EXAMPLES_DIR = os.path.join(
    os.path.dirname(__file__), os.pardir, os.pardir, "examples", "modules")
EXAMPLES = sorted(name for name in os.listdir(EXAMPLES_DIR) if name.endswith(".hanoi"))


def recursive_subvalues(value, value_type, target, types):
    """The recursive walk ``subvalues_at_type`` replaced."""
    found = []

    def walk(v, ty):
        if ty == target:
            found.append(v)
        if isinstance(ty, TData) and isinstance(v, VCtor) and ty.name in types.datatypes:
            info = types.ctors.get(v.ctor)
            if info is not None and info.payload is not None and v.payload is not None:
                walk(v.payload, info.payload)
        elif isinstance(ty, TProd) and isinstance(v, VTuple):
            for item, item_type in zip(v.items, ty.items):
                walk(item, item_type)

    walk(value, value_type)
    return found


def _instance(name):
    if name.endswith(".hanoi"):
        return load_module_file(os.path.join(EXAMPLES_DIR, name)).instantiate()
    return get_benchmark(name).instantiate()


@pytest.mark.parametrize("name", list(all_benchmark_names()) + EXAMPLES)
def test_stack_walk_matches_recursive_walk(name):
    instance = _instance(name)
    types = instance.program.types
    concrete = instance.concrete_type
    values = list(ValueEnumerator(types).enumerate(
        concrete, max_size=FAST_VERIFIER_BOUNDS.max_nodes_single,
        max_count=FAST_VERIFIER_BOUNDS.max_structures_single))
    assert values
    targets = [concrete, TData("nat")]
    if isinstance(concrete, TProd):
        targets.extend(concrete.items)
    for value in values:
        for target in targets:
            expected = recursive_subvalues(value, concrete, target, types)
            found = subvalues_at_type(value, concrete, target, types)
            assert len(found) == len(expected)
            assert all(a is b for a, b in zip(found, expected)), (name, str(value))


def test_deep_list_needs_no_recursion():
    types = get_benchmark("/coq/unique-list-::-set").instantiate().program.types
    length = 10_000
    value = v_list([nat_of_int(i % 3) for i in range(length)])
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1_000)
    try:
        with pytest.raises(RecursionError):
            recursive_subvalues(value, TData("list"), TData("list"), types)
        found = subvalues_at_type(value, TData("list"), TData("list"), types)
    finally:
        sys.setrecursionlimit(limit)
    assert len(found) == length + 1
    assert found[0] is value
    assert found[-1] is VCtor("Nil")
