"""A top-level name is defined once: a second definition is a diagnostic
anchored at its line, from every command, and no shipped module has one."""

import glob
import os
import subprocess
import sys

import pytest

from repro.spec import SpecFileError, load_module_file, load_module_text
from repro.suite.registry import all_benchmark_names, get_benchmark

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), "..", "..", "examples", "modules")
STACK = os.path.join(EXAMPLES_DIR, "bounded-stack.hanoi")
SOURCE = os.path.join(os.path.dirname(__file__), "..", "..", "src")


def _duplicated_stack():
    """The bounded stack with ``guard`` defined twice, at different types,
    in the module's own declarations."""
    with open(STACK) as handle:
        text = handle.read()
    head, tail = text.split("expected invariant", 1)
    return (head + "let guard (s : list) : bool = True\n\nlet guard : nat = O\n\n"
            + "expected invariant" + tail)


def _line_of(text, needle):
    return text.splitlines().index(needle) + 1


def test_second_definition_is_a_spec_error_at_its_line():
    text = _duplicated_stack()
    with pytest.raises(SpecFileError) as caught:
        load_module_text(text, path="dup.hanoi")
    assert "duplicate definition: guard" in str(caught.value)
    assert caught.value.line == _line_of(text, "let guard : nat = O")


def test_redefining_a_prelude_name_is_rejected():
    with open(STACK) as handle:
        text = handle.read()
    head, tail = text.split("expected invariant", 1)
    text = head + "let nat_leq (a : nat) (b : nat) : bool = True\n\nexpected invariant" + tail
    with pytest.raises(SpecFileError, match="duplicate definition: nat_leq"):
        load_module_text(text, path="prelude-clash.hanoi")


@pytest.mark.parametrize("command", ["infer", "lint"])
def test_cli_prints_error_not_traceback(tmp_path, command):
    path = tmp_path / "dup.hanoi"
    path.write_text(_duplicated_stack())
    completed = subprocess.run(
        [sys.executable, "-m", "repro", command, str(path)], capture_output=True,
        text=True, timeout=120, env={**os.environ, "PYTHONPATH": SOURCE})
    output = completed.stdout + completed.stderr
    assert completed.returncode != 0, output
    assert "error:" in output and "duplicate definition: guard" in output, output
    assert "Traceback" not in output, output


def test_shipped_modules_still_load():
    names = all_benchmark_names()
    for name in names:
        get_benchmark(name).instantiate()
    examples = sorted(glob.glob(os.path.join(EXAMPLES_DIR, "*.hanoi")))
    for path in examples:
        load_module_file(path).instantiate()
    assert len(names) + len(examples) == 34
