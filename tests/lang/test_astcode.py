"""Syntax-tree codes (``repro.lang.astcode``): the form in which the
persistent store keeps synthesized candidates.

A candidate's code must decode to the tree that parsing its rendered source
gives, so a warm run that decodes evaluates exactly what a run that parses
would; and anything that is not a code must be a ``ValueError``, which the
store turns into a warned miss.
"""

import glob
import os
import random

import pytest

from repro.experiments.runner import PROFILES, run_module
from repro.lang.ast import (
    Branch,
    EApp,
    ECtor,
    EFun,
    ELet,
    EMatch,
    EProj,
    ETuple,
    EVar,
    FunDecl,
    PCtor,
    PTuple,
    PVar,
    PWild,
)
from repro.lang.astcode import decode_decl, encode_decl
from repro.lang.parser import MAX_NESTING, parse_program
from repro.lang.pretty import pretty_fun_decl
from repro.lang.types import TAbstract, TArrow, TData, TProd
from repro.spec.loader import load_module_file
from repro.suite.registry import all_benchmark_names, get_benchmark
from repro.synth.myth import MythSynthesizer

EXAMPLES = sorted(glob.glob(os.path.join(
    os.path.dirname(__file__), os.pardir, os.pardir, "examples", "modules", "*.hanoi")))

PROFILE_NAMES = ["quick"]
if os.environ.get("DIFFERENTIAL_FULL"):
    PROFILE_NAMES.append("paper")


def _candidates(profile):
    """The declaration of every candidate Myth returns in ``hanoi`` runs of
    the built-ins and the example modules."""
    decls = []
    original = MythSynthesizer.synthesize

    def recording(self, positives, negatives):
        candidates = original(self, positives, negatives)
        decls.extend(candidate.decl for candidate in candidates)
        return candidates

    MythSynthesizer.synthesize = recording
    try:
        modules = [get_benchmark(name) for name in all_benchmark_names()]
        modules += [load_module_file(path) for path in EXAMPLES]
        for definition in modules:
            assert run_module(definition, mode="hanoi",
                              config=PROFILES[profile](120)).succeeded, definition.name
    finally:
        MythSynthesizer.synthesize = original
    return decls


@pytest.mark.parametrize("profile", PROFILE_NAMES)
def test_every_candidate_round_trips(profile):
    decls = _candidates(profile)
    assert len(EXAMPLES) == 6 and len(decls) > 700
    for decl in decls:
        code = encode_decl(decl)
        decoded = decode_decl(code)
        assert decoded == parse_program(pretty_fun_decl(decl))[-1]
        assert decoded == decl
        assert encode_decl(decoded) == code


def test_every_node_kind_round_trips():
    nat, pair = TData("nat"), TProd((TData("nat"), TData("bool")))
    body = ELet("y", EProj(1, ETuple((EVar("x"), ECtor("O")))), EMatch(
        EApp(EFun("z", TArrow(nat, TAbstract()), EVar("z")), ECtor("S", EVar("y"))),
        (Branch(PCtor("S", PTuple((PVar("a"), PWild()))), ECtor("True")),
         Branch(PCtor("O"), ECtor("False")))))
    for decl in (FunDecl("f", (("x", pair), ("w", nat)), TData("bool"), body, True),
                 FunDecl("g", (), None, ECtor("True"))):
        code = encode_decl(decl)
        assert decode_decl(code) == decl
        assert encode_decl(decode_decl(code)) == code
    assert encode_decl(FunDecl("g", (), None, ECtor("True"))) == "D:g - C:True"


PREDICATE = "D:inv a:x T:list T:bool "


@pytest.mark.parametrize("code", [
    PREDICATE + "Q:foo",                    # unknown named tag
    PREDICATE + "?",                        # unknown token
    PREDICATE + "let",                      # source, not a code
    PREDICATE + "K:S v:y",                  # a pattern where an expression is due
    PREDICATE + "M1 V:x V:y C:True",        # an expression where a pattern is due
    "D:inv a:x V:x T:bool C:True",          # an expression where a type is due
    "D:inv a:x T:list C:True C:True",       # an expression where the return type is due
    PREDICATE + "@ V:andb",                 # truncated
    PREDICATE,                              # no body
    PREDICATE + "C:True C:False",           # a trailing token
    PREDICATE + "C:True D:inv - C:True",    # a second declaration
    "C:True",                               # no declaration
    "",                                     # nothing
    PREDICATE + "M-1 V:x _ C:True",         # a negative count
    PREDICATE + "M0 V:x",                   # a match with no branches
    PREDICATE + "M9999 V:x _ C:True",       # more branches than tokens
    PREDICATE + ",7 C:O C:O",               # more items than tokens
    PREDICATE + "M1x V:x _ C:True",         # a count that is no number
    "D:inv a:x *1 T:nat T:bool C:True",     # a product of one type
    PREDICATE + " ".join(["K:S"] * MAX_NESTING) + " C:O",  # too many tokens
    None,                                   # not a string
    ("D:inv",),
], ids=lambda code: repr(code)[:40])
def test_a_malformed_code_is_a_value_error(code):
    with pytest.raises(ValueError):
        decode_decl(code)


#: Tokens of every tag, plus ones that are none.
VOCABULARY = ["D:inv", "R:inv", "a:x", "-", "V:x", "C:True", "K:S", "@", ",2", ",0",
              ".0", ".1", "F:y", "L:y", "M1", "M2", "M0", "_", "v:y", "c:Nil", "k:Cons",
              "p2", "T:nat", "A", "*2", "*1", ">", "?", "M", "V", "::", "x:y", "M-1",
              "1", "p99999999999", "*2a"]


def test_a_token_soup_raises_nothing_but_value_error():
    generator = random.Random(42)
    decoded = 0
    for _ in range(20_000):
        tokens = generator.choices(VOCABULARY, k=generator.randint(0, 14))
        try:
            decl = decode_decl(" ".join(tokens))
        except ValueError:
            continue
        assert isinstance(decl, FunDecl)
        decoded += 1
    assert decoded  # the soup reaches the builders, not only the checks


def test_a_deep_code_is_rejected_without_recursion():
    deep = PREDICATE + "K:S " * 100_000 + "C:O"
    with pytest.raises(ValueError, match="longer than"):
        decode_decl(deep)
    # The deepest code there is decodes and encodes without recursing.
    nested = MAX_NESTING - len(PREDICATE.split()) - 1
    decl = decode_decl(PREDICATE + "K:S " * nested + "C:O")
    assert len(encode_decl(decl).split()) == MAX_NESTING


def test_encoding_refuses_what_would_not_decode():
    body = ECtor("O")
    for _ in range(MAX_NESTING):
        body = ECtor("S", body)
    with pytest.raises(ValueError, match="longer than"):
        encode_decl(FunDecl("inv", (("x", TData("nat")),), TData("bool"), body))
    with pytest.raises(ValueError, match="white space"):
        encode_decl(FunDecl("inv", (("x y", TData("nat")),), None, ECtor("True")))
    with pytest.raises(ValueError, match="projection"):
        encode_decl(FunDecl("inv", (("x", TProd((TData("nat"), TData("nat")))),), None,
                            EProj(-1, EVar("x"))))
