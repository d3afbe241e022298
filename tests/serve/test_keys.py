"""Structural content keys: layout never moves a key, structure always does.

A key hashes the dataclass ``repr`` of parsed declarations, which leaves out
their ``line`` fields, so comments, blank lines and shifted lines are
invisible to it.  A declaration's key also covers its transitive callees.
"""

import dataclasses
import glob
import os
import re

import pytest

from repro.analysis.callgraph import build_call_graph
from repro.analysis.canon import canonical_hash, declaration_dependency_hashes
from repro.core.config import FAST_VERIFIER_BOUNDS, HanoiConfig
from repro.lang.ast import ETuple, FunDecl
from repro.serve.diskcache import DiskCacheStore, PersistentCacheBinding
from repro.spec.loader import load_module_file, load_module_text
from repro.suite.registry import all_benchmark_names, get_benchmark

CONFIG = HanoiConfig(verifier_bounds=FAST_VERIFIER_BOUNDS, timeout_seconds=60)
EXAMPLE = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                       "examples", "modules", "bounded-stack.hanoi")


def _source():
    with open(EXAMPLE, encoding="utf-8") as handle:
        return handle.read()


def _edited(old, new):
    text = _source()
    assert old in text
    return text.replace(old, new, 1)


def _load(text):
    return load_module_text(text, path=EXAMPLE)


def _every_key(text):
    definition = _load(text)
    binding = PersistentCacheBinding(DiskCacheStore("/nonexistent"), definition,
                                     definition.instantiate(), CONFIG)
    return (declaration_dependency_hashes(definition), canonical_hash(definition),
            binding.spec_key(), binding.component_keys())


def _moved(old_text, new_text):
    before = declaration_dependency_hashes(_load(old_text))
    after = declaration_dependency_hashes(_load(new_text))
    assert set(before) == set(after)
    return {name for name in before if before[name] != after[name]}


def _line_of(text, name):
    return next(d.line for d in _load(text).declarations
                if isinstance(d, FunDecl) and d.name == name)


def test_comments_and_blank_lines_above_peek_move_no_key():
    layout = _edited("let peek ", "(* Layout only:\n   no key may move. *)\n\n\n"
                                  "let peek ")
    # The edit shifts peek and everything below it.
    assert _line_of(layout, "peek") == _line_of(_source(), "peek") + 4
    assert _every_key(layout) == _every_key(_source())


def test_editing_peek_moves_exactly_the_keys_of_its_transitive_callers():
    edited = _edited(
        "| Nil -> NoneN",
        "| Nil -> (match s with | Nil -> NoneN | Cons (a, b) -> NoneN)")
    assert _moved(_source(), edited) == {"peek", "spec"}


def test_renaming_a_local_moves_its_declarations_key():
    # Intended: keys hash the structure as written, with no renaming of
    # local binders, so a renamed local is an edit like any other.
    renamed = _edited("| Cons (hd, tl) -> SomeN hd",
                      "| Cons (top, rest) -> SomeN top")
    assert _moved(_source(), renamed) == {"peek", "spec"}


# -- every module ------------------------------------------------------------

EXAMPLE_MODULES = sorted(glob.glob(os.path.join(os.path.dirname(EXAMPLE),
                                                "*.hanoi")))
MODULES = pytest.mark.parametrize(
    "load",
    [lambda name=name: get_benchmark(name) for name in all_benchmark_names()]
    + [lambda path=path: load_module_file(path) for path in EXAMPLE_MODULES],
    ids=all_benchmark_names() + [os.path.basename(p) for p in EXAMPLE_MODULES])


def _relaid(source):
    """``source`` with a comment and blank lines above every top-level
    declaration and a comment line above every match arm."""
    source = re.sub(r"(?m)^(?=let |type )", "(* layout *)\n\n", source)
    return re.sub(r"(?m)^(?=[ \t]+\| )", "  (* arm *)\n", source)


def _lines(definition):
    return [d.line for d in definition.declarations]


@MODULES
def test_layout_moves_no_key_on_every_module(load):
    definition = load()
    relaid = dataclasses.replace(definition, source=_relaid(definition.source))
    assert _lines(relaid) != _lines(definition)
    assert canonical_hash(relaid) == canonical_hash(definition)
    assert declaration_dependency_hashes(relaid) == \
        declaration_dependency_hashes(definition)


@MODULES
def test_each_declaration_edit_moves_exactly_its_callers_keys(load):
    definition = load()
    decls = definition.declarations
    graph = build_call_graph([d for d in decls if isinstance(d, FunDecl)])
    before = declaration_dependency_hashes(definition)
    for index, decl in enumerate(decls):
        if not isinstance(decl, FunDecl):
            continue
        # Same callees, different structure.
        edited = dataclasses.replace(decl, body=ETuple((decl.body, decl.body)))
        after = declaration_dependency_hashes(
            definition, decls[:index] + (edited,) + decls[index + 1:])
        callers = {name for name in graph if _reaches(graph, name, decl.name)}
        assert {name for name in before if before[name] != after[name]} == \
            callers, decl.name


def _reaches(graph, source, target):
    seen, frontier = {source}, [source]
    while frontier:
        current = frontier.pop()
        if current == target:
            return True
        for callee in graph[current] - seen:
            seen.add(callee)
            frontier.append(callee)
    return False
