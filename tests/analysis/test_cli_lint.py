"""CLI surface tests for ``repro lint`` and ``repro fuzz --lint``."""

import pathlib

import pytest

from repro.cli import main

EXAMPLES = str(pathlib.Path(__file__).resolve().parents[2]
               / "examples" / "modules")

CLEAN = """
benchmark "/test/cli-clean"
group testing

abstract type t = nat

operation zero : t
operation get : t -> nat

spec spec : t -> bool

let zero : nat = O
let get (c : nat) : nat = c
let spec (c : nat) : bool = True
"""

DIRTY = CLEAN.replace('benchmark "/test/cli-clean"',
                      'benchmark "/test/cli-dirty"') + """
let orphan (n : nat) : nat = n
"""


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_lint_clean_file_exits_zero(tmp_path, capsys):
    path = _write(tmp_path, "clean.hanoi", CLEAN)
    assert main(["lint", path]) == 0
    out = capsys.readouterr().out
    assert "ok" in out
    assert "1 clean, 0 with warnings" in out


def test_lint_dirty_file_warns_but_exits_zero(tmp_path, capsys):
    path = _write(tmp_path, "dirty.hanoi", DIRTY)
    assert main(["lint", path]) == 0
    out = capsys.readouterr().out
    assert "HAN003" in out
    assert "orphan" in out
    assert "1 with warnings" in out


def test_lint_werror_promotes_warnings_to_exit_one(tmp_path, capsys):
    path = _write(tmp_path, "dirty.hanoi", DIRTY)
    assert main(["lint", path, "--werror"]) == 1
    assert "HAN003" in capsys.readouterr().out


def test_lint_werror_leaves_clean_modules_at_zero(tmp_path):
    path = _write(tmp_path, "clean.hanoi", CLEAN)
    assert main(["lint", path, "--werror"]) == 0


def test_lint_json_format_one_object_per_finding(tmp_path, capsys):
    import json

    clean = _write(tmp_path, "clean.hanoi", CLEAN)
    dirty = _write(tmp_path, "dirty.hanoi", DIRTY)
    assert main(["lint", clean, dirty, "--format", "json"]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
    findings = [json.loads(line) for line in lines]
    assert len(findings) == 1  # json mode prints findings only, no summary
    finding = findings[0]
    assert finding["code"] == "HAN003"
    assert finding["severity"] == "warning"
    assert finding["decl"] == "orphan"
    assert finding["path"].endswith("dirty.hanoi")
    assert isinstance(finding["line"], int)
    assert "orphan" in finding["message"]


def test_lint_json_format_reports_load_errors(tmp_path, capsys):
    import json

    path = _write(tmp_path, "broken.hanoi", "benchmark \"/x\"\nlet bad = ???")
    assert main(["lint", path, "--format", "json"]) == 2
    lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
    codes = {json.loads(line)["code"] for line in lines}
    assert "HAN000" in codes


def test_lint_hash_flag_prints_content_key(tmp_path, capsys):
    path = _write(tmp_path, "clean.hanoi", CLEAN)
    assert main(["lint", path, "--hash"]) == 0
    out = capsys.readouterr().out
    assert "[" in out and "]" in out  # the truncated sha256


def test_lint_directory_expansion(tmp_path, capsys):
    _write(tmp_path, "a.hanoi", CLEAN)
    _write(tmp_path, "b.hanoi", DIRTY)
    assert main(["lint", str(tmp_path), "--werror"]) == 1
    assert "linted 2 module(s)" in capsys.readouterr().out


def test_lint_examples_directory(capsys):
    assert main(["lint", EXAMPLES]) == 0
    assert "0 with warnings" in capsys.readouterr().out


def test_lint_all_builtins(capsys):
    assert main(["lint", "--all-builtins"]) == 0
    out = capsys.readouterr().out
    assert "linted 28 module(s)" in out


def test_lint_single_benchmark(capsys):
    assert main(["lint", "--benchmark", "/coq/unique-list-::-set"]) == 0
    assert "ok" in capsys.readouterr().out


def test_lint_missing_path_fails(tmp_path):
    with pytest.raises(SystemExit):
        main(["lint", str(tmp_path / "nope.hanoi")])


def test_lint_malformed_module_is_han000_exit_two(tmp_path, capsys):
    path = _write(tmp_path, "broken.hanoi", "benchmark \"/x\"\nlet bad = ???")
    assert main(["lint", path]) == 2
    assert "HAN000" in capsys.readouterr().out


@pytest.mark.parametrize("text, line, message", [
    ("benchmark \"/x\"\nlet bad = ???", 2,
     "unexpected character '?' (line 2, column 11)"),
    # A file-level error has no line; it is anchored to line 1.
    ("let x : nat = O\n", 1, "missing 'abstract type <alias> = <type>' directive"),
])
def test_lint_load_error_renders_exactly(tmp_path, capsys, text, line, message):
    import json

    path = _write(tmp_path, "broken.hanoi", text)
    assert main(["lint", path]) == 2
    assert capsys.readouterr().out.splitlines() == [
        f"{path}:{line}: HAN000 error: {message}",
        "linted 1 module(s): 0 clean, 0 with warnings, 1 with errors",
    ]
    assert main(["lint", path, "--format", "json"]) == 2
    out = capsys.readouterr().out
    assert out.splitlines() == [json.dumps(
        {"code": "HAN000", "decl": None, "line": line, "message": message,
         "path": path, "severity": "error"}, sort_keys=True)]


def test_fuzz_lint_dirty_module_shrunk_to_reproducer(tmp_path, capsys):
    """A dirty generated module exits nonzero and leaves a .hanoi
    reproducer that still triggers one of the original codes."""
    import argparse
    import pathlib as _pathlib

    from repro.cli import _fuzz_lint
    from repro.spec.loader import load_module_text

    definition = load_module_text(DIRTY, path="dirty.hanoi")

    class FakeModule:
        name = "/gen/dirty-0"

    FakeModule.definition = definition
    args = argparse.Namespace(shrink=True, out=str(tmp_path))
    assert _fuzz_lint([FakeModule()], args) == 1
    out = capsys.readouterr().out
    assert "HAN003" in out
    assert "reproducer" in out
    reproducers = list(_pathlib.Path(tmp_path, "reproducers").glob("*.hanoi"))
    assert len(reproducers) == 1


def test_fuzz_lint_clean_corpus(tmp_path, capsys):
    assert main(["fuzz", "--lint", "--count", "5", "--seed", "3",
                 "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "5" in out and "clean" in out
