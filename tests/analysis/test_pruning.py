"""Acting on HAN005's advice changes no term stream.

HAN005 (lint, advisory) names the declared components type-inhabitation
reachability proves no goal term can use.  The synthesizer keeps them; the
evidence that deleting them would change nothing is pool-level: a
:class:`TermPool` built without the unusable components enumerates exactly
the same bool stream as one built over every component, for a hand-written
pool and for the synthesizer's own component list of every built-in with a
junk component added, and it builds fewer applications.
"""

import dataclasses

import pytest

from repro.analysis.reachability import split_components
from repro.enumeration.values import ValueEnumerator
from repro.lang.parser import parse_expression
from repro.lang.prelude import PRELUDE_SOURCE
from repro.lang.program import Program
from repro.lang.types import TData
from repro.suite.registry import BENCHMARKS, get_benchmark
from repro.synth.bottomup import TermPool, TypedComponent
from repro.synth.myth import MAX_TERM_SIZE, MythSynthesizer, interface_components

NAT = TData("nat")
BOOL = TData("bool")

POOL_SOURCE = """
type ghost = Mist of nat

let nought (n : nat) : bool = match n with | O -> True | S m -> False
let rec double (n : nat) : nat = match n with | O -> O | S m -> S (S (double m))
let haunt (n : nat) : ghost = Mist n
"""


def _junk_extended(definition):
    """``definition`` plus a component whose result type cannot reach bool."""
    return dataclasses.replace(
        definition,
        source=definition.source
        + "\n\ntype ghost = Mist of nat\n\nlet haunt (n : nat) : ghost = Mist n\n",
        synthesis_components=definition.synthesis_components + ("haunt",))


def _render_stream(pool, result_type):
    from repro.lang.pretty import pretty_expr
    return [pretty_expr(e.expr) for e in pool.entries(result_type)]


def test_pool_stream_identical_after_pruning():
    program = Program()
    program.extend(PRELUDE_SOURCE)
    program.extend(POOL_SOURCE)
    components = [
        TypedComponent(name, program.global_type(name),
                       program.global_value(name))
        for name in ("nought", "double", "haunt")]
    context = [("x", NAT)]
    environments = [{"x": program.eval_expr(parse_expression(source))}
                    for source in ("O", "S O", "S (S O)")]
    pruned, _ = split_components(components, [NAT], program.types, BOOL)
    assert [c.name for c in pruned] == ["nought", "double"]

    full_pool = TermPool(program, components, context, environments, max_size=5)
    pruned_pool = TermPool(program, pruned, context, environments, max_size=5)
    assert _render_stream(full_pool, BOOL) == _render_stream(pruned_pool, BOOL)
    assert _render_stream(full_pool, NAT) == _render_stream(pruned_pool, NAT)
    # Dropping the unusable component saves work, counted exactly: its
    # applications are never built.
    assert pruned_pool._applications < full_pool._applications


@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_builtin_pool_stream_identical_after_pruning(name):
    """The pool-level check on every built-in: interface_components proves
    exactly the junk component unusable, the synthesizer still pools it, and
    dropping it leaves the bool stream over the concrete type unchanged
    while building fewer applications."""
    definition = _junk_extended(get_benchmark(name))
    instance = definition.instantiate()
    values = ValueEnumerator(instance.program.types).smallest(instance.concrete_type, 6)
    environments = [{"x": value} for value in values]

    components, unusable = interface_components(instance.program, definition)
    assert unusable == {"haunt"}
    full = MythSynthesizer(instance)._components(frozenset())
    assert [c.name for c in full] == [c.name for c in components]
    kept = [c for c in full if c.name not in unusable]

    context = [("x", instance.concrete_type)]
    full_pool = TermPool(instance.program, full, context, environments,
                         max_size=MAX_TERM_SIZE)
    kept_pool = TermPool(instance.program, kept, context, environments,
                         max_size=MAX_TERM_SIZE)
    assert _render_stream(full_pool, BOOL) == _render_stream(kept_pool, BOOL)
    assert kept_pool._applications < full_pool._applications
