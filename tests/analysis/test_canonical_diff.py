"""Differential tests for canonicalization and content-keyed caches.

The dead-branch rewriter (and the other canonicalizing passes) must be
*inference-transparent*: running the canonicalized module through every
fuzz mode yields byte-identical outcome fingerprints.  Hashing the
declarations an instance already checked must give the keys of hashing
the source afresh.
"""

import dataclasses
import glob
import os

import pytest

from repro.analysis import canon
from repro.analysis.canon import canonical_hash, declaration_dependency_hashes
from repro.core import hanoi
from repro.core.hanoi import HanoiInference
from repro.gen.diff import CANONICAL_VARIANTS, differential, fuzz_module
from repro.gen.modgen import generate_module
from repro.lang.program import _prelude_declarations
from repro.lang.values import VCtor
from repro.spec.loader import load_module_file
from repro.suite.registry import all_benchmark_names, get_benchmark

EXAMPLE_MODULES = sorted(glob.glob(os.path.join(
    os.path.dirname(__file__), "..", "..", "examples", "modules", "*.hanoi")))


def test_canonicalization_transparent_on_benchmark(fast_config):
    definition = get_benchmark("/coq/unique-list-::-set")
    report = differential(definition, CANONICAL_VARIANTS, config=fast_config)
    assert report.mismatches == [], report.describe()


def test_canonicalization_transparent_on_generated_module(fast_config):
    module = generate_module(7)
    report = differential(module.definition, CANONICAL_VARIANTS,
                          modes=("hanoi", "oneshot"), config=fast_config)
    assert report.mismatches == [], report.describe()


def test_fuzz_module_check_canonical_counts_runs(fast_config):
    definition = get_benchmark("/coq/unique-list-::-set")
    plain = fuzz_module(definition, modes=("hanoi",), config=fast_config)
    checked = fuzz_module(definition, modes=("hanoi",), config=fast_config,
                          cross_checks=(CANONICAL_VARIANTS,))
    assert checked.mismatches == []
    assert checked.runs == plain.runs + 2
    assert checked.benchmarks == plain.benchmarks == [definition.name]


def test_inference_without_a_store_never_hashes_the_module(fast_config, monkeypatch):
    # Only the persistent store keys its sections by content; a run without
    # one must not pay for hashing the module.
    def refuse(*args, **kwargs):
        raise AssertionError("canonical_hash called")

    monkeypatch.setattr(canon, "canonical_hash", refuse)
    monkeypatch.setattr(hanoi, "canonical_hash", refuse)
    result = HanoiInference(get_benchmark("/coq/unique-list-::-set"),
                            config=fast_config).infer()
    assert result.succeeded


def test_constant_too_costly_for_default_fuel_loads_at_the_run_fuel(fast_config):
    # The module is loaded once, at the run's fuel; a constant that needs
    # more than the default fuel, but fits the run's, must not end the run.
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
    inference = HanoiInference(definition, config=config)
    assert inference.instance.program.global_value("burnt") == VCtor("True")


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
