"""Seed-deterministic generation of ADT modules with known invariants.

The generator works *invariant-first*: each scenario family fixes a
representation invariant ``valid : tau_c -> bool`` up front and then derives
the module's operations so that every one of them provably preserves it -
constructors establish it, guarded or clamped mutators maintain it, and
destructors only ever shrink the structure.  The specification's leading
conjunct is ``valid`` itself (any further conjuncts are consequences of it),
so by construction the generated module has a *known* sufficient, inductive
representation invariant: the ``valid`` helper recorded in the file's
``expected invariant`` block.

That guarantee is what makes generated modules usable as a differential
oracle (:mod:`repro.gen.diff`): inference must succeed in Hanoi mode, every
inferred invariant must imply the ground truth, and all of it must be
byte-identical across cache configurations.

Determinism: everything is drawn from a :class:`random.Random` seeded only
with integers, and no code path iterates a set or a hash-ordered dict, so the
same seed produces byte-identical ``.hanoi`` text under any
``PYTHONHASHSEED`` (the property tests in ``tests/gen/`` pin this).
"""

from __future__ import annotations

import hashlib
import os
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.module import ModuleDefinition
from ..spec.common import module_filename
from ..spec.errors import SpecFileError
from ..spec.loader import load_module_text

__all__ = [
    "GeneratedModule",
    "FAMILIES",
    "generate_module",
    "generate_corpus",
    "write_corpus",
    "corpus_digest",
]

#: Group every generated benchmark registers under.
GENERATED_GROUP = "gen"


def _lit(n: int) -> str:
    """The Peano literal for ``n``, parenthesized for argument position."""
    text = "O"
    for _ in range(n):
        text = f"(S {text})"
    return text


@dataclass
class _Parts:
    """The pieces a family builder produces; rendered by :func:`_render`."""

    family: str
    description: str
    alias: str
    concrete: str                      # the representation type, alias-spelled
    operations: List[Tuple[str, str]]  # (name, signature over the alias)
    spec_name: str
    spec_signature: str
    components: List[str] = field(default_factory=list)
    helpers: List[str] = field(default_factory=list)
    decls: List[str] = field(default_factory=list)
    expected: str = ""                 # the oracle block's declarations


# -- scenario families ----------------------------------------------------------
#
# Each family is a function (rng) -> _Parts.  All random choices go through
# the rng; name pools are tuples so choice order is positional, never
# hash-ordered.

_LIST_TYPES = ("list", "seq", "chain")
_LIST_CTORS = (("Nil", "Cons"), ("Empty", "Node"), ("End", "Link"))
_CREATE_NAMES = ("empty", "create", "fresh")
_INSERT_NAMES = ("push", "insert", "add", "put")
_REMOVE_NAMES = ("pop", "drop", "behead")
_MEASURE_NAMES = ("size", "length", "count")


def _list_rep(rng: random.Random) -> Tuple[str, str, str, str]:
    """A fresh list-like recursive type: (type name, nil, cons, decl)."""
    ty = rng.choice(_LIST_TYPES)
    nil, cons = rng.choice(_LIST_CTORS)
    decl = f"type {ty} = {nil} | {cons} of nat * {ty}"
    return ty, nil, cons, decl


def _bounded_container(rng: random.Random) -> _Parts:
    """Invariant: the container never holds more than K elements."""
    ty, nil, cons, type_decl = _list_rep(rng)
    bound = rng.randint(1, 3)
    create = rng.choice(_CREATE_NAMES)
    insert = rng.choice(_INSERT_NAMES)
    remove = rng.choice(_REMOVE_NAMES)
    measure = rng.choice(_MEASURE_NAMES)

    parts = _Parts(
        family="bounded",
        description=f"Container capped at {bound} element(s); "
                    f"overfull {insert}s are dropped.",
        alias="t",
        concrete=ty,
        operations=[(create, "t"), (insert, "t -> nat -> t"), (remove, "t -> t")],
        spec_name="spec",
        spec_signature="t -> bool",
        helpers=["valid"],
        decls=[
            type_decl,
            f"let {create} : {ty} = {nil}",
            f"let rec {measure} (s : {ty}) : nat =\n"
            f"  match s with\n"
            f"  | {nil} -> O\n"
            f"  | {cons} (hd, tl) -> S ({measure} tl)",
            f"let valid (s : {ty}) : bool =\n"
            f"  nat_leq ({measure} s) {_lit(bound)}",
            # The guard keeps the bound: an insert on a full container is a
            # no-op, so `valid` is preserved in both branches.
            f"let {insert} (s : {ty}) (x : nat) : {ty} =\n"
            f"  if nat_lt ({measure} s) {_lit(bound)} then {cons} (x, s) else s",
            f"let {remove} (s : {ty}) : {ty} =\n"
            f"  match s with\n"
            f"  | {nil} -> {nil}\n"
            f"  | {cons} (hd, tl) -> tl",
        ],
    )

    if rng.random() < 0.5:
        parts.operations.append((measure, "t -> nat"))
    if rng.random() < 0.35:
        peek = "peek" if measure != "peek" else "front"
        parts.operations.append((peek, "t -> natoption"))
        parts.decls.append(
            f"let {peek} (s : {ty}) : natoption =\n"
            f"  match s with\n"
            f"  | {nil} -> NoneN\n"
            f"  | {cons} (hd, tl) -> SomeN hd")

    spec_kind = rng.choices(("plain", "base-arg", "two-abstract"),
                            weights=(60, 25, 15))[0]
    if spec_kind == "base-arg":
        # The extra conjunct follows from `valid`: measure s <= K <= x + K.
        parts.spec_signature = "t -> nat -> bool"
        parts.decls.append(
            f"let spec (s : {ty}) (x : nat) : bool =\n"
            f"  andb (valid s) (nat_leq ({measure} s) (plus x {_lit(bound)}))")
    elif spec_kind == "two-abstract":
        parts.spec_signature = "t -> t -> bool"
        parts.decls.append(
            f"let spec (s : {ty}) (r : {ty}) : bool =\n"
            f"  andb (valid s) (valid r)")
    else:
        parts.decls.append(f"let spec (s : {ty}) : bool =\n  valid s")

    parts.expected = (f"let expected (s : {ty}) : bool =\n"
                      f"  nat_leq ({measure} s) {_lit(bound)}")
    return parts


def _capped_elements(rng: random.Random) -> _Parts:
    """Invariant: every stored element is at most K."""
    ty, nil, cons, type_decl = _list_rep(rng)
    cap = rng.randint(1, 3)
    create = rng.choice(_CREATE_NAMES)
    insert = rng.choice(_INSERT_NAMES)
    remove = rng.choice(_REMOVE_NAMES)
    clamped = rng.random() < 0.4  # clamp instead of dropping oversized inserts

    if clamped:
        insert_decl = (
            f"let {insert} (s : {ty}) (x : nat) : {ty} =\n"
            f"  {cons} (nat_min x {_lit(cap)}, s)")
    else:
        insert_decl = (
            f"let {insert} (s : {ty}) (x : nat) : {ty} =\n"
            f"  if nat_leq x {_lit(cap)} then {cons} (x, s) else s")

    parts = _Parts(
        family="capped",
        description=f"Every element is kept at most {cap} "
                    f"({'clamped' if clamped else 'oversized inserts dropped'}).",
        alias="t",
        concrete=ty,
        operations=[(create, "t"), (insert, "t -> nat -> t"), (remove, "t -> t")],
        spec_name="spec",
        spec_signature="t -> bool",
        helpers=["valid"],
        decls=[
            type_decl,
            f"let {create} : {ty} = {nil}",
            f"let rec valid (s : {ty}) : bool =\n"
            f"  match s with\n"
            f"  | {nil} -> True\n"
            f"  | {cons} (hd, tl) -> andb (nat_leq hd {_lit(cap)}) (valid tl)",
            insert_decl,
            f"let {remove} (s : {ty}) : {ty} =\n"
            f"  match s with\n"
            f"  | {nil} -> {nil}\n"
            f"  | {cons} (hd, tl) -> tl",
        ],
    )

    if rng.random() < 0.4:
        head = "head" if create != "head" else "first"
        parts.operations.append((head, "t -> natoption"))
        parts.decls.append(
            f"let {head} (s : {ty}) : natoption =\n"
            f"  match s with\n"
            f"  | {nil} -> NoneN\n"
            f"  | {cons} (hd, tl) -> SomeN hd")

    if rng.random() < 0.35:
        # The second conjunct is a consequence of `valid` plus the guard.
        parts.spec_signature = "t -> nat -> bool"
        parts.decls.append(
            f"let spec (s : {ty}) (x : nat) : bool =\n"
            f"  andb (valid s) (implb (nat_leq x {_lit(cap)}) "
            f"(valid ({insert} s x)))")
    else:
        parts.decls.append(f"let spec (s : {ty}) : bool =\n  valid s")

    parts.expected = f"let expected (s : {ty}) : bool =\n  valid s"
    # `valid` is recursive module code the oracle block cannot redefine, so
    # the expected invariant simply calls it; exporting keeps this intact.
    return parts


def _parity_pair(rng: random.Random) -> _Parts:
    """Invariant: the cached parity bit agrees with the counter's value."""
    even_flavour = rng.random() < 0.5  # bit tracks evenness or oddness
    zero = rng.choice(("zero", "origin", "start"))
    incr = rng.choice(("incr", "tick", "step"))
    value = rng.choice(("value", "current"))
    flag = rng.choice(("flag", "cached_bit"))
    base_bit = "True" if even_flavour else "False"
    tracker = "evenb" if even_flavour else "oddb"

    decls = [
        f"let rec {tracker} (n : nat) : bool =\n"
        f"  match n with\n"
        f"  | O -> {base_bit}\n"
        f"  | S m -> notb ({tracker} m)",
        f"let {zero} : nat * bool = (O, {base_bit})",
        f"let {incr} (c : nat * bool) : nat * bool =\n"
        f"  match c with\n"
        f"  | (n, p) -> (S n, notb p)",
        f"let {value} (c : nat * bool) : nat =\n"
        f"  match c with\n"
        f"  | (n, p) -> n",
        f"let {flag} (c : nat * bool) : bool =\n"
        f"  match c with\n"
        f"  | (n, p) -> p",
        f"let valid (c : nat * bool) : bool =\n"
        f"  match c with\n"
        f"  | (n, p) -> (match {tracker} n with\n"
        f"               | True -> p\n"
        f"               | False -> notb p)",
    ]
    operations = [(zero, "t"), (incr, "t -> t"),
                  (value, "t -> nat"), (flag, "t -> bool")]

    if rng.random() < 0.4:
        # A double step preserves parity agreement trivially.
        twice = "jump" if incr != "jump" else "leap"
        operations.append((twice, "t -> t"))
        decls.append(
            f"let {twice} (c : nat * bool) : nat * bool =\n"
            f"  match c with\n"
            f"  | (n, p) -> (S (S n), p)")

    decls.append(
        f"let spec (c : nat * bool) : bool =\n"
        f"  match {tracker} ({value} c) with\n"
        f"  | True -> {flag} c\n"
        f"  | False -> notb ({flag} c)")

    parts = _Parts(
        family="parity",
        description=f"Counter caching whether its value is "
                    f"{'even' if even_flavour else 'odd'}; "
                    f"the cached bit must track the value.",
        alias="t",
        concrete="nat * bool",
        operations=operations,
        spec_name="spec",
        spec_signature="t -> bool",
        helpers=["valid"],
        decls=decls,
        expected="let expected (c : nat * bool) : bool =\n  valid c",
    )
    return parts


def _ordered_pair(rng: random.Random) -> _Parts:
    """Invariant: the pair's first component never exceeds its second."""
    start_gap = rng.randint(0, 2)
    init = rng.choice(("init", "origin", "base"))
    raise_hi = rng.choice(("raise_hi", "grow", "widen"))
    bump = rng.choice(("bump_both", "advance", "slide"))

    decls = [
        f"let {init} : nat * nat = (O, {_lit(start_gap)})",
        f"let {raise_hi} (c : nat * nat) : nat * nat =\n"
        f"  match c with\n"
        f"  | (a, b) -> (a, S b)",
        f"let {bump} (c : nat * nat) : nat * nat =\n"
        f"  match c with\n"
        f"  | (a, b) -> (S a, S b)",
        "let valid (c : nat * nat) : bool =\n"
        "  match c with\n"
        "  | (a, b) -> nat_leq a b",
    ]
    operations = [(init, "t"), (raise_hi, "t -> t"), (bump, "t -> t")]

    if rng.random() < 0.5:
        reset = "rewind" if init != "rewind" else "restart"
        operations.append((reset, "t -> t"))
        decls.append(
            f"let {reset} (c : nat * nat) : nat * nat =\n"
            f"  match c with\n"
            f"  | (a, b) -> (O, b)")
    if rng.random() < 0.4:
        span = "span" if raise_hi != "span" else "extent"
        operations.append((span, "t -> nat"))
        decls.append(
            f"let {span} (c : nat * nat) : nat =\n"
            f"  match c with\n"
            f"  | (a, b) -> minus b a")

    two_abstract = rng.random() < 0.2
    if two_abstract:
        spec_signature = "t -> t -> bool"
        decls.append(
            "let spec (c : nat * nat) (d : nat * nat) : bool =\n"
            "  andb (valid c) (valid d)")
    else:
        spec_signature = "t -> bool"
        decls.append("let spec (c : nat * nat) : bool =\n  valid c")

    return _Parts(
        family="ordered",
        description="An interval-like pair: the low mark never passes the "
                    "high mark.",
        alias="t",
        concrete="nat * nat",
        operations=operations,
        spec_name="spec",
        spec_signature=spec_signature,
        helpers=["valid"],
        decls=decls,
        expected="let expected (c : nat * nat) : bool =\n"
                 "  match c with\n"
                 "  | (a, b) -> nat_leq a b",
    )


def _conserved_sum(rng: random.Random) -> _Parts:
    """Invariant: the two components always sum to a fixed total."""
    total = rng.randint(1, 3)
    init = rng.choice(("init", "full_left", "setup"))
    swap = rng.choice(("swap", "mirror", "flip"))
    shift = rng.choice(("shift", "pour", "trickle"))

    decls = [
        f"let {init} : nat * nat = ({_lit(total)}, O)",
        f"let {swap} (c : nat * nat) : nat * nat =\n"
        f"  match c with\n"
        f"  | (a, b) -> (b, a)",
        # Moving one unit from left to right keeps the sum; empty left is a
        # no-op, so `valid` is preserved in both branches.
        f"let {shift} (c : nat * nat) : nat * nat =\n"
        f"  match c with\n"
        f"  | (a, b) -> (match a with\n"
        f"               | O -> (a, b)\n"
        f"               | S x -> (x, S b))",
        f"let valid (c : nat * nat) : bool =\n"
        f"  match c with\n"
        f"  | (a, b) -> nat_eq (plus a b) {_lit(total)}",
    ]
    operations = [(init, "t"), (swap, "t -> t"), (shift, "t -> t")]

    if rng.random() < 0.4:
        left = "left_load" if init != "left_load" else "left_amount"
        operations.append((left, "t -> nat"))
        decls.append(
            f"let {left} (c : nat * nat) : nat =\n"
            f"  match c with\n"
            f"  | (a, b) -> a")

    decls.append("let spec (c : nat * nat) : bool =\n  valid c")

    return _Parts(
        family="conserved",
        description=f"Two buckets holding {total} unit(s) between them; "
                    f"operations only move units around.",
        alias="t",
        concrete="nat * nat",
        operations=operations,
        spec_name="spec",
        spec_signature="t -> bool",
        helpers=["valid"],
        decls=decls,
        expected="let expected (c : nat * nat) : bool =\n  valid c",
    )


#: Family name -> builder, in generation-weight order (tuples, not sets, so
#: enumeration order is deterministic).
FAMILIES: Dict[str, Callable[[random.Random], _Parts]] = {
    "bounded": _bounded_container,
    "capped": _capped_elements,
    "parity": _parity_pair,
    "ordered": _ordered_pair,
    "conserved": _conserved_sum,
}

_FAMILY_NAMES: Tuple[str, ...] = tuple(FAMILIES)
_FAMILY_WEIGHTS: Tuple[int, ...] = (30, 25, 15, 18, 12)


# -- assembly --------------------------------------------------------------------


@dataclass(frozen=True)
class GeneratedModule:
    """One generated benchmark: its seed, rendered text, and loaded definition."""

    seed: int
    name: str
    family: str
    text: str
    definition: ModuleDefinition

    @property
    def filename(self) -> str:
        return module_filename(self.name)


def _render(parts: _Parts, seed: int, name: str) -> str:
    lines: List[str] = []
    lines.append(f'benchmark "{name}"')
    lines.append(f"group {GENERATED_GROUP}")
    lines.append(f'description "{parts.description} '
                 f'[generated: family={parts.family} seed={seed}]"')
    lines.append("")
    lines.append(f"abstract type {parts.alias} = {parts.concrete}")
    lines.append("")
    for op_name, signature in parts.operations:
        lines.append(f"operation {op_name} : {signature}")
    lines.append(f"spec {parts.spec_name} : {parts.spec_signature}")
    if parts.components:
        lines.append("components " + ", ".join(parts.components))
    if parts.helpers:
        lines.append("helpers " + ", ".join(parts.helpers))
    lines.append("")
    for decl in parts.decls:
        lines.append(decl)
        lines.append("")
    lines.append("expected invariant")
    lines.append(parts.expected)
    return "\n".join(lines) + "\n"


def generate_module(seed: int) -> GeneratedModule:
    """Generate one module deterministically from an integer seed."""
    rng = random.Random(seed)
    family = rng.choices(_FAMILY_NAMES, weights=_FAMILY_WEIGHTS)[0]
    parts = FAMILIES[family](rng)
    name = f"/gen/{family}-{seed}"
    text = _render(parts, seed, name)
    try:
        definition = load_module_text(text, path=f"<generated seed={seed}>")
    except SpecFileError as exc:  # pragma: no cover - a generator bug, not user error
        raise AssertionError(
            f"generator produced an invalid module for seed {seed} "
            f"(family {family!r}): {exc}\n--- text ---\n{text}") from exc
    return GeneratedModule(seed=seed, name=name, family=family, text=text,
                           definition=definition)


def _subseed(base: int, index: int) -> int:
    """The per-module seed of corpus position ``index`` (hash-free mixing)."""
    return (base * 1_000_003 + index) % (2 ** 31)


def generate_corpus(seed: int, count: int) -> List[GeneratedModule]:
    """Generate ``count`` modules; module *i* depends only on ``(seed, i)``."""
    modules: List[GeneratedModule] = []
    names: Dict[str, int] = {}
    for index in range(count):
        module = generate_module(_subseed(seed, index))
        if module.name in names:
            # Sub-seed collision (only possible for astronomically large
            # corpora); skip the duplicate so pack registration stays valid.
            continue
        names[module.name] = index
        modules.append(module)
    return modules


def write_corpus(modules: Sequence[GeneratedModule], out_dir: str) -> List[str]:
    """Write one ``.hanoi`` file per module; returns the paths written."""
    os.makedirs(out_dir, exist_ok=True)
    paths: List[str] = []
    for module in modules:
        path = os.path.join(out_dir, module.filename)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(module.text)
        paths.append(path)
    return paths


def corpus_digest(modules: Sequence[GeneratedModule],
                  algorithm: Optional[str] = None) -> str:
    """A stable content digest of a corpus (determinism tests compare these)."""
    digest = hashlib.new(algorithm or "sha256")
    for module in modules:
        digest.update(module.name.encode("utf-8"))
        digest.update(b"\x00")
        digest.update(module.text.encode("utf-8"))
        digest.update(b"\x00")
    return digest.hexdigest()
