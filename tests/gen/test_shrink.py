"""Shrinker behaviour: minimal, revalidated, reloadable reproducers.

``repro.gen.shrink`` is deliberately oracle-agnostic: it minimizes against
any ``still_fails`` predicate, re-validating every candidate through the
exporter/loader cycle.  A cheap structural predicate keeps these tests fast
while exercising the same reduction machinery the fuzz CLI drives with real
differential mismatches.
"""

import dataclasses
import os

import pytest

from repro.gen.modgen import generate_module
from repro.gen.shrink import (
    _revalidate,
    _without_dead_decls,
    shrink_module,
    write_reproducer,
)
from repro.spec import load_module_file, load_module_text, render_module

pytestmark = pytest.mark.fuzz


def _module_with_many_operations():
    """The first generated module with at least four operations."""
    for seed in range(100):
        module = generate_module(seed)
        if len(module.definition.operations) >= 4:
            return module.definition
    raise AssertionError("no generated module with >= 4 operations in range")


def test_shrinks_to_the_single_blamed_operation():
    definition = _module_with_many_operations()
    target = definition.operations[1].name

    def still_fails(candidate):
        return any(op.name == target for op in candidate.operations)

    minimal = shrink_module(definition, still_fails)
    assert [op.name for op in minimal.operations] == [target]
    # Everything irrelevant to the predicate is gone too.
    assert minimal.expected_invariant is None
    assert not minimal.description
    # ... and the reproducer still satisfies the exporter/loader contract.
    reloaded = load_module_text(render_module(minimal), path=minimal.name)
    assert still_fails(reloaded)
    reloaded.instantiate()


def test_shrunk_module_drops_dead_declarations():
    definition = _module_with_many_operations()
    keep = definition.operations[0].name

    def still_fails(candidate):
        return any(op.name == keep for op in candidate.operations)

    minimal = shrink_module(definition, still_fails)
    rendered = render_module(minimal)
    # Operations the predicate does not depend on must not survive, even as
    # unreferenced source declarations.
    for op in definition.operations[1:]:
        if op.name != keep:
            assert f"operation {op.name}" not in rendered


def test_rejects_a_module_that_does_not_fail():
    definition = generate_module(0).definition
    with pytest.raises(ValueError):
        shrink_module(definition, lambda candidate: False)


def test_write_reproducer_round_trips(tmp_path):
    definition = generate_module(0).definition
    target = definition.operations[0].name
    minimal = shrink_module(
        definition,
        lambda candidate: any(op.name == target for op in candidate.operations))
    path = write_reproducer(minimal, str(tmp_path / "reproducers"))
    assert os.path.exists(path)
    loaded = load_module_file(path)
    assert loaded.name == definition.name
    assert any(op.name == target for op in loaded.operations)


def test_revalidate_rejects_a_candidate_that_does_not_load():
    definition = generate_module(0).definition
    assert _revalidate(definition) is not None
    # A module interface needs at least one operation.
    assert _revalidate(dataclasses.replace(definition, operations=())) is None


def test_dead_declaration_pass_skips_unparsable_source():
    definition = generate_module(0).definition
    broken = dataclasses.replace(definition, source="let rec = (")
    assert _without_dead_decls(broken) is None
