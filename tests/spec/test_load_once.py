"""Loading a module scans and parses it once, and checks the prelude once.

Exact counts, not timings: a ``.hanoi`` text is scanned once by the loader,
whose parse the definition keeps for every later run, and the prelude's
type environment is checked once per process and copied into each program.
The kept parse belongs to one definition: a definition made from it with a
new ``source`` parses that source again.
"""

import dataclasses
import glob
import os

from repro.experiments.runner import PROFILES, run_module
from repro.lang import parser
from repro.lang.program import Program, _prelude_declarations
from repro.lang.typecheck import TypeChecker
from repro.spec import loader
from repro.spec.export import render_module
from repro.suite.registry import all_benchmark_names, get_benchmark

EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "..", "examples", "modules")
NAME = "/other/sized-list"
FRESH = "\nlet fresh_function (n : nat) : nat = S n\n"


def test_load_and_run_scan_the_module_once(monkeypatch):
    text = render_module(get_benchmark(NAME))
    Program.from_source("")  # the prelude is parsed once per process, before this
    scanned = []
    tokenize = parser.tokenize

    def counting(source):
        scanned.append(source)
        return tokenize(source)

    monkeypatch.setattr(parser, "tokenize", counting)
    monkeypatch.setattr(loader, "tokenize", counting)
    definition = loader.load_module_text(text, path=NAME)
    result = run_module(definition, config=PROFILES["quick"](None))
    assert result.status == "success"
    assert scanned == [text]


def test_second_program_checks_no_prelude_declaration(monkeypatch):
    Program.from_source("")
    checked = []
    check = TypeChecker.check_declarations

    def recording(self, decls):
        decls = list(decls)
        checked.extend(decls)
        return check(self, decls)

    monkeypatch.setattr(TypeChecker, "check_declarations", recording)
    program = Program.from_source(FRESH)
    assert checked and not set(map(id, checked)) & set(map(id, _prelude_declarations()))
    assert program.declarations[:len(_prelude_declarations())] == list(_prelude_declarations())
    assert program.has_global("nat_max") and program.has_global("fresh_function")


def test_replaced_source_is_parsed_again():
    loaded = loader.load_module_text(render_module(get_benchmark(NAME)))
    for definition in (loaded, get_benchmark(NAME)):
        assert definition.declarations  # the loader's parse, or the first of the source
        replaced = dataclasses.replace(definition, source=definition.source + FRESH)
        assert not definition.instantiate().program.has_global("fresh_function")
        assert replaced.instantiate().program.has_global("fresh_function")


def test_kept_parse_is_the_parse_of_the_recorded_source():
    """The recorded source (the file with its directives blanked) parses to
    the declarations the loader kept, on the same lines."""
    texts = [render_module(get_benchmark(name)) for name in all_benchmark_names()]
    for path in sorted(glob.glob(os.path.join(EXAMPLES, "*.hanoi"))):
        with open(path, encoding="utf-8") as handle:
            texts.append(handle.read())
    for text in texts:
        definition = loader.load_module_text(text)
        reparsed = parser.parse_program(definition.source)
        assert ([(decl, decl.line) for decl in definition.declarations]
                == [(decl, decl.line) for decl in reparsed])
