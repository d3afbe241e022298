"""Pruning-equivalence tests: reachability pruning never changes results.

Three layers of evidence, cheapest first:

* **pool level** — a :class:`TermPool` built from the pruned component
  list enumerates exactly the same term stream as one built from the
  full list, for a hand-written pool and for the synthesizer's own
  component list of every built-in with a junk component added;
* **end-to-end** — inference over a module with an injected junk
  component (unreachable result type) produces an identical outcome
  fingerprint with pruning on and off, and the pruned run actually
  dropped the junk;
* **suite sweep** — every fast built-in infers the same invariant under
  both configurations (the full 28-benchmark sweep is gated behind
  ``DIFFERENTIAL_FULL=1``).

The end-to-end checks run through the differential harness
(:func:`repro.gen.diff.differential` with ``PRUNING_VARIANTS``).
"""

import dataclasses
import os

import pytest

from repro.analysis.reachability import prune_components
from repro.core.config import SynthesisBounds
from repro.enumeration.values import ValueEnumerator
from repro.experiments.runner import quick_config
from repro.gen.diff import PRUNING_VARIANTS, differential
from repro.lang.parser import parse_expression
from repro.lang.prelude import PRELUDE_SOURCE
from repro.lang.program import Program
from repro.lang.types import TData
from repro.suite.registry import BENCHMARKS, FAST_BENCHMARKS, get_benchmark
from repro.synth.bottomup import TermPool, TypedComponent
from repro.synth.myth import MythSynthesizer

NAT = TData("nat")
BOOL = TData("bool")

POOL_SOURCE = """
type ghost = Mist of nat

let is_zero (n : nat) : bool = match n with | O -> True | S m -> False
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
        for name in ("is_zero", "double", "haunt")]
    context = [("x", NAT)]
    environments = [{"x": program.eval_expr(parse_expression(source))}
                    for source in ("O", "S O", "S (S O)")]
    pruned = prune_components(components, [NAT], program.types, BOOL)
    assert [c.name for c in pruned] == ["is_zero", "double"]

    full_pool = TermPool(program, components, context, environments, max_size=5)
    pruned_pool = TermPool(program, pruned, context, environments, max_size=5)
    assert _render_stream(full_pool, BOOL) == _render_stream(pruned_pool, BOOL)
    assert _render_stream(full_pool, NAT) == _render_stream(pruned_pool, NAT)
    # Pruning pays in work, counted exactly: the junk component's
    # applications are never built.
    assert pruned_pool._applications < full_pool._applications


@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_builtin_pool_stream_identical_after_pruning(name):
    """The pool-level check on every built-in: the synthesizer prunes
    exactly the junk component, its bool stream over the concrete type is
    unchanged, and the pruned pool builds fewer applications."""
    instance = _junk_extended(get_benchmark(name)).instantiate()
    values = ValueEnumerator(instance.program.types).smallest(instance.concrete_type, 6)
    environments = [{"x": value} for value in values]
    max_size = SynthesisBounds().max_term_size

    def components(pruning):
        synthesizer = MythSynthesizer(
            instance, bounds=SynthesisBounds(component_pruning=pruning))
        return synthesizer._components(frozenset())

    full = components(False)
    pruned = components(True)
    assert [c.name for c in pruned] == [c.name for c in full if c.name != "haunt"]

    context = [("x", instance.concrete_type)]
    full_pool = TermPool(instance.program, full, context, environments, max_size=max_size)
    pruned_pool = TermPool(instance.program, pruned, context, environments,
                           max_size=max_size)
    assert _render_stream(full_pool, BOOL) == _render_stream(pruned_pool, BOOL)
    assert pruned_pool._applications < full_pool._applications


def _assert_pruning_transparent(definition, config, require_success=()):
    report = differential(definition, PRUNING_VARIANTS, modes=("hanoi",),
                          config=config, require_success=require_success)
    assert report.runs == len(PRUNING_VARIANTS.members)
    assert report.ok, report.describe()
    return report


def test_junk_component_pruned_same_outcome():
    definition = _junk_extended(get_benchmark("/coq/unique-list-::-set"))
    report = _assert_pruning_transparent(definition, quick_config(),
                                         require_success=("hanoi",))
    # The pruned run really dropped the junk component; the ablated one
    # really kept it.
    assert {result.variant: result.stats.components_pruned
            for result in report.results} == {"pruning": 1, "no-pruning": 0}


def test_without_component_pruning_roundtrip():
    config = quick_config()
    assert config.synthesis_bounds.component_pruning
    ablation = config.without_component_pruning()
    assert not ablation.synthesis_bounds.component_pruning
    # Everything else is untouched.
    assert ablation.verifier_bounds == config.verifier_bounds
    assert ablation.timeout_seconds == config.timeout_seconds


@pytest.mark.parametrize("name", FAST_BENCHMARKS[:3])
def test_fast_benchmark_equivalence(name):
    _assert_pruning_transparent(get_benchmark(name), quick_config())


@pytest.mark.skipif(not os.environ.get("DIFFERENTIAL_FULL"),
                    reason="set DIFFERENTIAL_FULL=1 for the full suite sweep")
@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_full_suite_equivalence(name):
    _assert_pruning_transparent(get_benchmark(name),
                                quick_config(timeout_seconds=300.0))
