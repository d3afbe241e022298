"""Obligation-level soundness of the abstract interpreter's verdicts.

HAN006 trusts ``AbstractChecker.operation_verdict``: a REFUTED verdict is
reported as an operation that cannot preserve the expected invariant.  The
verdicts are taken over the abstraction of *every* concrete value, so the
bounded enumerative checker, run with ``P = true`` on the same operation,
must agree on every decided obligation:

* PROVEN - no enumerated application produces a value ``q`` rejects;
* REFUTED - some enumerated application does.

Candidates span the verdict space: trivially true and trivially false, the
module's expected invariant, and one discriminator per constructor of a
data-typed representation (exercising the ctor-set refinement of the match
transfer).  Every built-in benchmark and every example module is swept.
"""

import pathlib

import pytest

from repro.analysis.absint import PROVEN, REFUTED, AbstractChecker
from repro.core.predicate import Predicate, always_true
from repro.experiments.runner import quick_config
from repro.inductive.relation import ConditionalInductivenessChecker
from repro.lang.ast import Branch, ECtor, EMatch, EVar, PCtor, PWild
from repro.lang.types import TData
from repro.spec.loader import load_module_file
from repro.suite.registry import all_benchmark_names, get_benchmark
from repro.verify.result import Valid

EXAMPLES = sorted(
    (pathlib.Path(__file__).resolve().parents[2] / "examples" / "modules")
    .glob("*.hanoi"))


def _candidates(instance):
    program = instance.program
    concrete = instance.concrete_type
    candidates = [
        ("always-true", always_true(concrete, program)),
        ("always-false", Predicate.from_body(
            ECtor("False"), "x", concrete, program, recursive=False)),
    ]
    if instance.definition.expected_invariant:
        candidates.append(("oracle", Predicate.from_source(
            instance.definition.expected_invariant, program)))
    if isinstance(concrete, TData) and program.types.is_datatype(concrete):
        for info in program.types.datatype_ctors(concrete.name):
            body = EMatch(EVar("x"), (
                Branch(PCtor(info.name,
                             PWild() if info.payload is not None else None),
                       ECtor("True")),
                Branch(PWild(), ECtor("False")),
            ))
            candidates.append((f"is-{info.name}", Predicate.from_body(
                body, "x", concrete, program, recursive=False)))
    return candidates


def _verdict_mismatches(definition):
    """``(candidate, operation, verdict)`` for every decided verdict the
    enumerative checker contradicts, plus how many verdicts were decided."""
    instance = definition.instantiate()
    abstract = AbstractChecker(instance.program, definition)
    top = abstract.abstract_input()
    enumerative = ConditionalInductivenessChecker(
        instance, bounds=quick_config().verifier_bounds)
    anything = always_true(instance.concrete_type, instance.program)
    mismatches = []
    decided = 0
    for tag, q in _candidates(instance):
        for operation in instance.operations:
            verdict = abstract.operation_verdict(operation, q.decl, top)
            if verdict not in (PROVEN, REFUTED):
                continue
            decided += 1
            result = enumerative.check(anything, q, operations=(operation,))
            if (verdict == PROVEN) != isinstance(result, Valid):
                mismatches.append((tag, operation.name, verdict))
    return mismatches, decided


@pytest.mark.parametrize("name", all_benchmark_names())
def test_builtin_verdicts_agree_with_enumeration(name):
    mismatches, decided = _verdict_mismatches(get_benchmark(name))
    assert decided > 0
    assert mismatches == []


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_example_verdicts_agree_with_enumeration(path):
    mismatches, decided = _verdict_mismatches(load_module_file(str(path)))
    assert decided > 0
    assert mismatches == []
