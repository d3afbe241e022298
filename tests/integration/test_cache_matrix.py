"""Cache-transparency matrix: the 2x2 eval x pool grid changes nothing.

Both cross-iteration caches (verification evaluation, synthesis term-pool)
advertise "identical outcomes, less work".  This test runs representative
modules through Hanoi inference under all four cells of the cache matrix and
requires byte-identical outcome fingerprints (status, invariant, size,
iteration count, message - timing and counters excluded).

The default selection covers one built-in benchmark plus the curated example
modules; set ``DIFFERENTIAL_FULL=1`` to sweep every fast built-in (the
nightly CI job does).
"""

import os

import pytest

from repro.gen.diff import CACHE_MATRIX, differential
from repro.spec import load_module_file
from repro.suite.registry import fast_benchmarks, get_benchmark

EXAMPLES_DIR = os.path.join(
    os.path.dirname(__file__), "..", "..", "examples", "modules")

EXAMPLE_FILES = [
    "bounded-stack.hanoi",
    "parity-counter.hanoi",
    "ring-buffer.hanoi",
    "lru-cache.hanoi",
    "union-find.hanoi",
]

BUILTINS = ["/coq/unique-list-::-set"]
if os.environ.get("DIFFERENTIAL_FULL"):
    BUILTINS = [definition.name for definition in fast_benchmarks()]


def _assert_matrix_agrees(definition, fast_config):
    report = differential(definition, CACHE_MATRIX, modes=("hanoi",),
                          config=fast_config, require_success=("hanoi",))
    assert report.runs == len(CACHE_MATRIX.members)
    assert report.ok, report.describe()


@pytest.mark.parametrize("filename", EXAMPLE_FILES)
def test_example_outcomes_are_cache_independent(filename, fast_config):
    definition = load_module_file(os.path.join(EXAMPLES_DIR, filename))
    _assert_matrix_agrees(definition, fast_config)


@pytest.mark.parametrize("name", BUILTINS)
def test_builtin_outcomes_are_cache_independent(name, fast_config):
    _assert_matrix_agrees(get_benchmark(name), fast_config)
