"""Module content-key tests.

The invariant under test: :func:`canonical_hash` separates modules whose
declarations or interface differ, and ignores what is neither (the
benchmark name).  Layout is covered in ``tests/serve/test_keys.py``.
"""

import dataclasses

from repro.analysis.canon import canonical_hash
from repro.spec.loader import load_module_text
from repro.suite.registry import FAST_BENCHMARKS, get_benchmark

TEMPLATE = """
benchmark "/test/canon"
group testing

abstract type t = nat

operation zero : t
operation bump : t -> t

spec spec : t -> bool

let zero : nat = O
let bump (c : nat) : nat = S c

{spec_decl}
"""

BASE_SPEC = "let spec (c : nat) : bool = match c with | O -> True | S m -> False"


def _load(spec_decl: str = BASE_SPEC):
    return load_module_text(TEMPLATE.format(spec_decl=spec_decl),
                            path="canon.hanoi")


def test_hash_changes_on_behaviour_change():
    flipped = BASE_SPEC.replace("| O -> True", "| O -> False")
    assert canonical_hash(_load()) != canonical_hash(_load(flipped))


def test_hash_changes_on_interface_change():
    definition = _load()
    other = dataclasses.replace(definition, name="/test/other-name")
    # The name is not part of the interface hash, but the component list is.
    widened = dataclasses.replace(
        definition,
        synthesis_components=definition.synthesis_components + ("bump",))
    assert canonical_hash(definition) == canonical_hash(other)
    assert canonical_hash(definition) != canonical_hash(widened)


def test_distinct_builtins_distinct_hashes():
    hashes = {canonical_hash(get_benchmark(name)) for name in FAST_BENCHMARKS}
    assert len(hashes) == len(FAST_BENCHMARKS)
