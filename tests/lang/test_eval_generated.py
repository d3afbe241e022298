"""What reaches the generated source, and how often it is compiled.

The evaluator turns each function body into Python source.  No text of a
``.hanoi`` file may reach that source: a module whose names collide with
Python's and with the generator's own evaluates exactly as under the
reference evaluator, and no identifier or string of any built-in, example,
the prelude or such a module appears in any source generated while running
them (Python keywords such as ``None`` and ``True`` are not identifiers).
Bodies are generated and compiled once per process: loading and running a
module again compiles nothing.
"""

import io
import keyword
import re
import tokenize as python_tokenize

import pytest

from reference_eval import reference_program
from test_eval_oracle import EXAMPLES, _calls, _definition, agree

from repro.experiments.runner import quick_config, run_module
from repro.gen.diff import outcome_fingerprint
from repro.lang import eval as evaluation
from repro.lang.lexer import tokenize
from repro.lang.prelude import PRELUDE_SOURCE
from repro.lang.program import Program
from repro.enumeration.values import ValueEnumerator
from repro.lang.types import TData
from repro.lang.values import nat_of_int
from repro.spec.export import render_module
from repro.suite.registry import all_benchmark_names, get_benchmark

#: Names that Python, the standard library or a naive generator would use.
UNTRUSTED = """
type exec = None | Exception of nat | K of exec * exec | G

let rec frame (budget : exec) (__import__ : nat) : nat =
  match budget with
  | None -> __import__
  | G -> S __import__
  | Exception exec -> plus exec __import__
  | K (budget, exec) -> frame exec (frame budget __import__)

let compile (exec : exec) : exec =
  match exec with
  | K (G, None) -> Exception O
  | budget -> K (budget, budget)

let globals (exec : exec) : nat = frame (compile exec) (S O)
"""

#: Names of this evaluator's generated code, as the module's own.
VOCABULARY = """
type _t = VCtor | VTuple of _t | VClosure of _t * nat

let rec _run (_r : _t) (_b : nat) : nat =
  match _r with
  | VCtor -> _b
  | VTuple _k0 -> S (_run _k0 _b)
  | VClosure (_v1, _e) -> let _d = plus _e _b in _run _v1 _d

let _make (_a : _t) : nat = _run _a (S O)
"""

CALLS = {UNTRUSTED: ("exec", ["frame", "compile", "globals"]),
         VOCABULARY: ("_t", ["_run", "_make"])}


def _run_all(source):
    """Apply each function of ``source`` to its first values under both
    evaluators, at every budget."""
    type_name, functions = CALLS[source]
    programs = [Program.from_source(source), reference_program(source)]
    values = list(ValueEnumerator(programs[0].types).enumerate(TData(type_name), max_count=12))
    for name in functions:
        for value in values:
            extra = (values[-1],) if name == "frame" else ()
            agree(*[(lambda p: lambda budget: p.evaluator.apply(
                p.global_value(name), value, *extra, budget=budget))(program)
                for program in programs])


@pytest.mark.parametrize("source", [UNTRUSTED, VOCABULARY], ids=["untrusted", "vocabulary"])
def test_colliding_names_evaluate_as_under_the_reference(source):
    _run_all(source)


def _identifiers(text):
    return {token.text for token in tokenize(text)
            if token.kind in ("LIDENT", "UIDENT", "STRING")}


def test_no_module_text_reaches_generated_source(monkeypatch):
    sources = []
    monkeypatch.setattr(evaluation, "_templates", {})
    monkeypatch.setattr(evaluation, "_factories", {})
    monkeypatch.setattr(evaluation, "compile",
                        lambda source, *rest: sources.append(source) or compile(source, *rest),
                        raising=False)
    texts = [PRELUDE_SOURCE, UNTRUSTED]
    _run_all(UNTRUSTED)
    for name in all_benchmark_names() + EXAMPLES:
        definition = _definition(name)
        if name in EXAMPLES:
            with open(name, encoding="utf-8") as handle:
                texts.append(handle.read())
        else:
            texts.append(render_module(definition))
        instance = definition.instantiate()
        for fn, args in _calls(instance):
            try:
                instance.program.apply(fn, *args)
            except evaluation.EvalError:
                pass
    names = set().union(*map(_identifiers, texts))
    assert {"None", "Exception", "K", "G", "budget", "exec", "frame", "__import__"} <= names
    assert len(sources) > 100
    for source in sources:
        tokens = list(python_tokenize.generate_tokens(io.StringIO(source).readline))
        assert not [token for token in tokens if token.type == python_tokenize.STRING]
        generated = {token.string for token in tokens if token.type == python_tokenize.NAME
                     and not keyword.iskeyword(token.string)}
        assert not generated & names, (generated & names, source)


def _renamed(source):
    """``source`` with every name it declares renamed."""
    names = ("exec", "frame", "budget", "__import__", "compile", "globals",
             "None", "Exception", "K", "G")
    return re.sub(r"\b(%s)\b" % "|".join(names), r"\1_renamed", source)


def test_bodies_that_differ_only_in_names_share_their_source(monkeypatch):
    compiled = []
    monkeypatch.setattr(evaluation, "_templates", {})
    monkeypatch.setattr(evaluation, "_factories", {})
    monkeypatch.setattr(evaluation, "compile",
                        lambda source, *rest: compiled.append(source) or compile(source, *rest),
                        raising=False)
    _run_all(UNTRUSTED)
    assert compiled
    del compiled[:]
    generated = len(evaluation._templates)
    renamed = _renamed(UNTRUSTED)
    CALLS[renamed] = ("exec_renamed", ["frame_renamed", "compile_renamed", "globals_renamed"])
    try:
        _run_all(renamed)
    finally:
        del CALLS[renamed]
    assert len(evaluation._templates) > generated
    assert compiled == []


def test_running_a_module_again_compiles_nothing(monkeypatch):
    compiled = []
    monkeypatch.setattr(evaluation, "_templates", {})
    monkeypatch.setattr(evaluation, "_factories", {})
    monkeypatch.setattr(evaluation, "compile",
                        lambda source, *rest: compiled.append(source) or compile(source, *rest),
                        raising=False)
    first = run_module(get_benchmark("/coq/unique-list-::-set"), "hanoi", quick_config())
    assert len(compiled) > 10
    assert len(evaluation._templates) >= len(compiled)
    del compiled[:]
    second = run_module(get_benchmark("/coq/unique-list-::-set"), "hanoi", quick_config())
    assert compiled == []
    assert outcome_fingerprint(second) == outcome_fingerprint(first)


def _nested(depth, tail):
    """A body of ``depth`` nested matches on ``x``'s predecessors: each in
    tail position, or each inside a constructor and a global call."""
    body = "O"
    for level in reversed(range(depth)):
        inner = body if tail else f"S (plus y{level} ({body}))"
        body = f"match {'x' if level == 0 else f'y{level - 1}'} with | O -> O | S y{level} -> {inner}"
    return f"let deep (x : nat) : nat = {body}"


@pytest.mark.parametrize("tail", [True, False], ids=["tail", "inside"])
def test_deeply_nested_bodies_are_split_and_agree(tail):
    source = _nested(60, tail)
    programs = [Program.from_source(source), reference_program(source)]
    for n in (0, 3, 70) if tail else (0, 2, 5):
        agree(*[(lambda p: lambda budget: p.evaluator.apply(
            p.global_value("deep"), nat_of_int(n), budget=budget))(program)
            for program in programs])
