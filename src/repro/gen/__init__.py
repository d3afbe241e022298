"""Property-based module generation and differential fuzzing.

This package turns the ``.hanoi`` benchmark frontend (:mod:`repro.spec`) into
a scaling corpus and a correctness oracle:

* :mod:`repro.gen.modgen` mints random ADT modules whose representation
  invariant is known *by construction* - the invariant is chosen first and
  every operation is derived so that it provably preserves it;
* :mod:`repro.gen.diff` runs generated (or any) modules through several
  inference modes under each variant of a transparent layer (the cache
  matrix, the disk store) and
  cross-checks that the outcomes are byte-identical per mode, and that
  inferred invariants agree with the ground truth under the bounded tester;
* :mod:`repro.gen.shrink` minimizes a mismatching module to a small ``.hanoi``
  reproducer.

The CLI front end is ``python -m repro fuzz`` (see docs/fuzzing.md).
"""

from .diff import (
    CACHE_MATRIX,
    DEFAULT_FUZZ_MODES,
    DifferentialMismatch,
    FuzzReport,
    differential,
    outcome_fingerprint,
)
from .modgen import (
    FAMILIES,
    GeneratedModule,
    corpus_digest,
    generate_corpus,
    generate_module,
    write_corpus,
)
from .shrink import shrink_module

__all__ = [
    "FAMILIES",
    "GeneratedModule",
    "generate_module",
    "generate_corpus",
    "write_corpus",
    "corpus_digest",
    "CACHE_MATRIX",
    "DEFAULT_FUZZ_MODES",
    "differential",
    "outcome_fingerprint",
    "DifferentialMismatch",
    "FuzzReport",
    "shrink_module",
]
