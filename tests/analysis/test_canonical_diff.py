"""Differential tests for canonicalization and content-keyed caches.

The dead-branch rewriter (and the other canonicalizing passes) must be
*inference-transparent*: running the canonicalized module through every
fuzz mode yields byte-identical outcome fingerprints.  The canonical
hash must also be the content key actually stamped on the evaluation and
synthesis caches.
"""

import dataclasses
import glob
import os

import pytest

from repro.analysis.canon import canonical_hash, declaration_dependency_hashes
from repro.core.hanoi import HanoiInference
from repro.gen.diff import canonicalization_mismatches, fuzz_module
from repro.gen.modgen import generate_module
from repro.lang.program import _prelude_declarations
from repro.spec.loader import load_module_file
from repro.suite.registry import all_benchmark_names, get_benchmark

EXAMPLE_MODULES = sorted(glob.glob(os.path.join(
    os.path.dirname(__file__), "..", "..", "examples", "modules", "*.hanoi")))


def test_canonicalization_transparent_on_benchmark(fast_config):
    definition = get_benchmark("/coq/unique-list-::-set")
    mismatches = canonicalization_mismatches(definition, config=fast_config)
    assert mismatches == []


def test_canonicalization_transparent_on_generated_module(fast_config):
    module = generate_module(7)
    mismatches = canonicalization_mismatches(module.definition,
                                             modes=("hanoi", "oneshot"),
                                             config=fast_config)
    assert mismatches == [], [m.describe() for m in mismatches]


def test_fuzz_module_check_canonical_counts_runs(fast_config):
    definition = get_benchmark("/coq/unique-list-::-set")
    plain = fuzz_module(definition, modes=("hanoi",), config=fast_config)
    checked = fuzz_module(definition, modes=("hanoi",), config=fast_config,
                          check_canonical=True)
    assert checked.mismatches == []
    assert checked.runs == plain.runs + 2


def test_caches_stamped_with_canonical_hash(fast_config):
    definition = get_benchmark("/coq/unique-list-::-set")
    inference = HanoiInference(definition, config=fast_config)
    expected = canonical_hash(definition)
    assert inference.content_key == expected
    assert inference.eval_cache is not None
    assert inference.eval_cache.content_key == expected
    assert inference.pool_cache is not None
    assert inference.pool_cache.content_key == expected


@pytest.mark.parametrize(
    "load",
    [lambda name=name: get_benchmark(name) for name in all_benchmark_names()]
    + [lambda path=path: load_module_file(path) for path in EXAMPLE_MODULES],
    ids=all_benchmark_names() + [os.path.basename(path) for path in EXAMPLE_MODULES])
def test_hashes_of_instantiated_declarations_match_reparse(load):
    # Hashing the declarations an instance already checked, as the linter
    # and the persistent cache do, gives the keys of parsing the source
    # afresh.
    definition = load()
    program = definition.instantiate().program
    module_decls = program.declarations[len(_prelude_declarations()):]
    assert canonical_hash(definition, program, module_decls) == \
        canonical_hash(definition)
    assert declaration_dependency_hashes(definition, program, module_decls) == \
        declaration_dependency_hashes(definition)


def test_constant_too_costly_for_default_fuel_leaves_content_key_empty(fast_config):
    # Hashing loads the source again at the default fuel; a constant that
    # needs more than that, but fits the run's fuel, must not end the run.
    costly = """
let rec burn (n : nat) : bool =
  match n with
  | O -> True
  | S m -> andb (burn m) (burn m)

let burnt : bool = burn 15
"""
    definition = get_benchmark("/other/sized-list")
    definition = dataclasses.replace(definition, source=definition.source + costly)
    config = dataclasses.replace(fast_config, eval_fuel=1_000_000)
    assert HanoiInference(definition, config=config).content_key == ""


def test_cache_snapshot_carries_content_key(fast_config):
    definition = get_benchmark("/coq/unique-list-::-set")
    inference = HanoiInference(definition, config=fast_config)
    inference.infer()
    assert inference.eval_cache.snapshot()["content_key"] == \
        inference.content_key
    assert inference.pool_cache.snapshot()["content_key"] == \
        inference.content_key
