"""The curated example modules: every one loads, infers, and matches its oracle.

``examples/modules`` is the user-facing showcase of the ``.hanoi`` format;
each file carries an ``expected invariant`` block.  For the data structures
added alongside the fuzzing harness (ring buffer, LRU cache, union-find)
inference must succeed outright and the inferred invariant must *imply* the
expected one on all bounded values - the same implication check the
differential fuzzer applies to generated modules.
"""

import os

import pytest

from repro.core.predicate import Predicate
from repro.core.result import Status
from repro.experiments.runner import run_module
from repro.spec import load_module_file
from repro.verify.result import Valid
from repro.verify.tester import Verifier

EXAMPLES_DIR = os.path.join(
    os.path.dirname(__file__), "..", "..", "examples", "modules")

#: Every shipped example; each one's oracle must itself pass the bounded
#: sufficiency and inductiveness checks.
EXAMPLES = sorted(name for name in os.listdir(EXAMPLES_DIR)
                  if name.endswith(".hanoi"))

#: file -> fragment the inferred invariant must mention (the enabling helper).
CURATED = {
    "ring-buffer.hanoi": "shape_ok",
    "lru-cache.hanoi": "wf",
    "union-find.hanoi": "in_range",
}


@pytest.mark.parametrize("filename", sorted(CURATED))
def test_curated_example_infers_its_invariant(filename, fast_config):
    definition = load_module_file(os.path.join(EXAMPLES_DIR, filename))
    result = run_module(definition, mode="hanoi", config=fast_config)
    assert result.status == Status.SUCCESS, result.message
    rendered = result.render_invariant()
    assert CURATED[filename] in rendered

    # The inferred invariant implies the file's expected invariant on every
    # value within the bounded tester's reach.
    instance = definition.instantiate()
    oracle = Predicate.from_source(definition.expected_invariant,
                                   instance.program)
    inferred = Predicate.from_source(rendered, instance.program)
    verifier = Verifier(instance, bounds=fast_config.verifier_bounds)
    verdict = verifier.check_predicate(lambda v: (not inferred(v)) or oracle(v))
    assert isinstance(verdict, Valid), (
        f"{filename}: inferred invariant does not imply the expected one "
        f"(witness: {verdict.witnesses[0]})")


@pytest.mark.parametrize("filename", EXAMPLES)
def test_curated_example_oracle_is_sufficient_and_inductive(filename,
                                                            fast_config):
    from repro.inductive.relation import ConditionalInductivenessChecker

    definition = load_module_file(os.path.join(EXAMPLES_DIR, filename))
    instance = definition.instantiate()
    oracle = Predicate.from_source(definition.expected_invariant,
                                   instance.program)
    verifier = Verifier(instance, bounds=fast_config.verifier_bounds)
    assert isinstance(verifier.check_sufficiency(oracle), Valid)
    checker = ConditionalInductivenessChecker(
        instance, bounds=fast_config.verifier_bounds)
    assert isinstance(checker.check(oracle, oracle), Valid)
