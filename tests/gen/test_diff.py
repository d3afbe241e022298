"""The differential harness itself: variant matrix, fingerprints, faults.

``repro.gen.diff`` promises that a clean run of a generated module produces
an ``ok`` report, that any disagreement between cache variants (including a
missing variant) surfaces as a mismatch, and that the test-only fault hook
corrupts exactly the cell they claim to.  The in-process and stored-result
paths are both covered - the CLI uses the latter.
"""

import dataclasses
import os

import pytest

from repro.core.result import InferenceResult, Status, StoredInvariant
from repro.core.stats import InferenceStats
from repro.gen.diff import (
    CACHE_MATRIX,
    FAULT_ENV_VAR,
    compare_stored,
    differential,
    outcome_fingerprint,
)
from repro.gen.modgen import generate_corpus, generate_module
from repro.spec.loader import load_module_text

pytestmark = pytest.mark.fuzz


#: ``dup`` always returns ``Cons (O, s)``, which the expected invariant
#: (only ``Nil`` is valid) rejects: the invariant is trivially sufficient
#: for the ``True`` spec but not inductive.
NON_INDUCTIVE_MODULE = """
benchmark "/test/non-inductive-dup"
group testing

abstract type t = list

operation empty : t
operation dup : t -> t

type list = Nil | Cons of nat * list

let empty : list = Nil

let dup (s : list) : list = Cons (O, s)

spec wf : t -> bool

let wf (s : list) : bool = True

expected invariant
let inv (s : list) : bool =
  match s with
  | Nil -> True
  | Cons p -> False
"""


@pytest.fixture(scope="module")
def module_zero():
    return generate_module(0)


def test_cache_matrix_toggles_both_caches(fast_config, module_zero):
    """All caches on first, all off last; each cell only flips cache flags."""
    cells = [(tag,) + prepare(module_zero.definition, fast_config)
             for tag, prepare in CACHE_MATRIX.members]
    assert [(tag, config.evaluation_caching, config.synthesis_evaluation_caching)
            for tag, _, config in cells] == [
        ("ec+pc", True, True),
        ("ec-only", True, False),
        ("pc-only", False, True),
        ("no-caches", False, False)]
    for _, definition, config in cells:
        assert definition is module_zero.definition
        assert dataclasses.replace(config, evaluation_caching=True,
                                   synthesis_evaluation_caching=True) == fast_config


def test_fingerprint_ignores_stats():
    """Two runs differing only in timing/cache counters fingerprint equal."""
    def result(stats):
        return InferenceResult(
            benchmark="/x", mode="hanoi", status=Status.SUCCESS,
            invariant=StoredInvariant(size=3, rendered="let inv x = valid x"),
            stats=stats, iterations=4)
    fast = InferenceStats.from_dict({"wall_seconds": 0.1, "eval_cache_hits": 900})
    slow = InferenceStats.from_dict({"wall_seconds": 9.9, "eval_cache_hits": 0})
    assert outcome_fingerprint(result(fast)) == outcome_fingerprint(result(slow))


def test_clean_generated_module_fuzzes_ok(fast_config, module_zero):
    report = differential(module_zero.definition, CACHE_MATRIX, ("hanoi",),
                          fast_config, require_success=("hanoi",),
                          check_oracle=True)
    assert report.ok, report.summary()
    assert report.runs == len(CACHE_MATRIX.members)
    assert report.benchmarks == [module_zero.name]
    assert "ok" in report.summary()


def test_fault_hook_surfaces_as_mismatch(fast_config, module_zero, monkeypatch):
    operation = module_zero.definition.operations[0].name
    monkeypatch.setenv(FAULT_ENV_VAR, operation)
    report = differential(module_zero.definition, CACHE_MATRIX, ("hanoi",),
                          fast_config)
    assert not report.ok
    assert len(report.mismatches) == 1
    described = report.mismatches[0].describe()
    assert "no-caches" in described and "fault-injected" in described


def test_env_fault_hook_targets_named_operation(fast_config, module_zero,
                                                monkeypatch):
    operation = module_zero.definition.operations[0].name
    monkeypatch.setenv(FAULT_ENV_VAR, operation)
    report = differential(module_zero.definition, CACHE_MATRIX, ("hanoi",),
                          fast_config)
    assert len(report.mismatches) == 1
    monkeypatch.setenv(FAULT_ENV_VAR, "no_module_defines_this")
    report = differential(module_zero.definition, CACHE_MATRIX, ("hanoi",),
                          fast_config)
    assert report.ok


def test_non_inductive_ground_truth_is_reported(fast_config):
    definition = load_module_text(NON_INDUCTIVE_MODULE, path="<dup>")
    report = differential(definition, CACHE_MATRIX, (), fast_config,
                          check_oracle=True)
    assert [f.reason for f in report.oracle_failures] == [
        "ground-truth invariant is not inductive"]


def _stored(benchmark, variant, status=Status.SUCCESS, invariant="valid x"):
    return InferenceResult(
        benchmark=benchmark, mode="hanoi", status=status,
        invariant=StoredInvariant(size=2, rendered=invariant),
        stats=InferenceStats.from_dict({}), iterations=1, variant=variant)


def test_compare_stored_passes_on_agreement(module_zero):
    rows = [_stored(module_zero.name, v) for v in CACHE_MATRIX.tags]
    report = compare_stored(rows, {module_zero.name: module_zero.definition},
                            modes=("hanoi",), require_success=(),
                            check_oracle=False)
    assert report.ok
    assert report.runs == len(CACHE_MATRIX.members)


def test_compare_stored_flags_divergent_variant(module_zero):
    rows = [_stored(module_zero.name, v) for v in CACHE_MATRIX.tags[:-1]]
    rows.append(_stored(module_zero.name, CACHE_MATRIX.tags[-1],
                        invariant="some_other x"))
    report = compare_stored(rows, {module_zero.name: module_zero.definition},
                            modes=("hanoi",), require_success=(),
                            check_oracle=False)
    assert [m.mode for m in report.mismatches] == ["hanoi"]


def test_compare_stored_flags_missing_variant(module_zero):
    rows = [_stored(module_zero.name, v) for v in CACHE_MATRIX.tags[:-1]]
    report = compare_stored(rows, {module_zero.name: module_zero.definition},
                            modes=("hanoi",), require_success=(),
                            check_oracle=False)
    assert len(report.mismatches) == 1
    assert "(missing)" in report.mismatches[0].describe()


@pytest.mark.parametrize("rendered", [
    "let inv (x : ) : bool =",             # LangError from the parser
    "type unused = A",                     # ValueError: no definition
    "let inv (x : nat) (y : nat) : bool = True",  # ValueError: two arguments
])
def test_compare_stored_reports_unparsable_invariant(fast_config, module_zero,
                                                     rendered):
    rows = [_stored(module_zero.name, v, invariant=rendered)
            for v in CACHE_MATRIX.tags]
    report = compare_stored(rows, {module_zero.name: module_zero.definition},
                            modes=("hanoi",), require_success=(),
                            config=fast_config)
    assert not report.mismatches
    assert len(report.oracle_failures) == 1
    assert "does not re-parse" in report.oracle_failures[0].reason


@pytest.mark.skipif(not os.environ.get("FUZZ_FULL"),
                    reason="deep in-process sweep; set FUZZ_FULL=1 (nightly CI)")
def test_deep_corpus_differential_sweep(fast_config):
    for module in generate_corpus(1, 8):
        report = differential(module.definition, CACHE_MATRIX, ("hanoi", "oneshot"),
                              fast_config, require_success=("hanoi",),
                              check_oracle=True)
        assert report.ok, report.describe()


def test_compare_stored_requires_success_when_asked(module_zero):
    rows = [_stored(module_zero.name, v, status=Status.SYNTHESIS_FAILURE,
                    invariant="(none)") for v in CACHE_MATRIX.tags]
    report = compare_stored(rows, {module_zero.name: module_zero.definition},
                            modes=("hanoi",), require_success=("hanoi",),
                            check_oracle=False)
    assert not report.mismatches  # the variants *agree* - on failing
    assert len(report.oracle_failures) == 1
    assert "expected success" in report.oracle_failures[0].describe()
