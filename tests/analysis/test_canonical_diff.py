"""Content keys and the runs that compute them.

A run without a persistent store never hashes its module, and hashing the
declarations an instance already checked gives the keys of hashing the
source afresh.
"""

import glob
import os

import pytest

from repro.analysis import canon
from repro.analysis.canon import canonical_hash, declaration_dependency_hashes
from repro.core import hanoi
from repro.core.hanoi import HanoiInference
from repro.lang.program import _prelude_declarations
from repro.spec.loader import load_module_file
from repro.suite.registry import all_benchmark_names, get_benchmark

EXAMPLE_MODULES = sorted(glob.glob(os.path.join(
    os.path.dirname(__file__), "..", "..", "examples", "modules", "*.hanoi")))


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
    assert canonical_hash(definition, module_decls) == \
        canonical_hash(definition)
    assert declaration_dependency_hashes(definition, module_decls) == \
        declaration_dependency_hashes(definition)
