"""Minimize a failing module to a small ``.hanoi`` reproducer.

When the differential harness (:mod:`repro.gen.diff`) flags a module - a
fingerprint mismatch across cache configurations, or an inferred invariant the
oracle rejects - the raw generated module is rarely the smallest witness.
:func:`shrink_module` greedily removes pieces while a caller-supplied
``still_fails`` predicate keeps holding:

* drop an interface operation (always keeping at least one);
* drop a helper function or an extra synthesis component;
* clear the expected invariant and the description;
* delete object-language function declarations that nothing reachable uses
  (dead code left behind by the earlier removals).

Every candidate is validated by rendering it with
:func:`repro.spec.export.render_module` and re-loading the text through
:func:`repro.spec.loader.load_module_text`, so a shrunk module is by
construction a well-formed ``.hanoi`` file; the reloaded definition (not the
in-memory candidate) is what ``still_fails`` judges and what the next round
shrinks, keeping the search honest about what the reproducer file actually
says.
"""

from __future__ import annotations

import dataclasses
import os
import re
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from ..core.module import ModuleDefinition
from ..lang.ast import FunDecl, free_vars
from ..lang.errors import LangError
from ..lang.parser import parse_program
from ..lang.prelude import DEFAULT_SYNTHESIS_COMPONENTS
from ..spec.common import module_filename
from ..spec.errors import SpecFileError
from ..spec.export import render_module
from ..spec.loader import load_module_text

__all__ = ["shrink_module", "write_reproducer"]


# A top-level declaration opens at column zero with ``type`` or ``let``
# (optionally ``let rec``); everything up to the next such line - including
# any comment lines directly above it - belongs to that declaration's block.
_DECL_RE = re.compile(r"^(?:type|let)\s+(?:rec\s+)?(?P<name>[A-Za-z_][A-Za-z0-9_']*)")


def _source_blocks(source: str) -> List[Tuple[Optional[str], str]]:
    """Split module source into ``(decl_name, text)`` blocks.

    Lines before the first declaration (file comments) come back as a block
    with a ``None`` name and are always kept.
    """
    blocks: List[Tuple[Optional[str], List[str]]] = []
    current_name: Optional[str] = None
    current: List[str] = []
    for line in source.split("\n"):
        match = _DECL_RE.match(line)
        if match:
            if current:
                blocks.append((current_name, current))
            current_name = match.group("name")
            current = [line]
        else:
            current.append(line)
    if current:
        blocks.append((current_name, current))
    return [(name, "\n".join(lines).strip("\n")) for name, lines in blocks]


def _decl_dependencies(source: str) -> Dict[str, frozenset]:
    """Free global names used by each top-level function declaration."""
    deps: Dict[str, frozenset] = {}
    for decl in parse_program(source):
        if isinstance(decl, FunDecl):
            bound = {name for name, _ in decl.params} | {decl.name}
            deps[decl.name] = free_vars(decl.body) - frozenset(bound)
    return deps


def _reachable_functions(definition: ModuleDefinition) -> frozenset:
    """Function names transitively reachable from the module's interface.

    Roots are the operations, the specification, the synthesis components and
    helper functions, and anything the expected invariant mentions.  Type
    declarations are never considered dead - constructor reachability is not
    tracked, and keeping them is always safe.
    """
    deps = _decl_dependencies(definition.source)
    roots = set(op.name for op in definition.operations)
    roots.add(definition.spec_name)
    roots.update(definition.synthesis_components)
    roots.update(definition.helper_functions)
    if definition.expected_invariant:
        try:
            for decl in parse_program(definition.expected_invariant):
                if isinstance(decl, FunDecl):
                    bound = {name for name, _ in decl.params} | {decl.name}
                    roots.update(free_vars(decl.body) - frozenset(bound))
        except LangError:
            # An unparsable oracle cannot pin anything down; the candidate
            # validator decides whether the module still loads without it.
            pass
    seen = set()
    frontier = [name for name in roots if name in deps]
    while frontier:
        name = frontier.pop()
        if name in seen:
            continue
        seen.add(name)
        frontier.extend(dep for dep in deps[name] if dep in deps and dep not in seen)
    return frozenset(seen)


def _without_dead_decls(definition: ModuleDefinition) -> Optional[ModuleDefinition]:
    """Drop unreachable function declarations from the source, if any."""
    try:
        reachable = _reachable_functions(definition)
        deps = _decl_dependencies(definition.source)
    except LangError:
        return None
    dead = {name for name in deps if name not in reachable}
    if not dead:
        return None
    kept = [text for name, text in _source_blocks(definition.source)
            if name is None or name not in dead]
    return dataclasses.replace(definition, source="\n\n".join(kept) + "\n")


def _candidates(definition: ModuleDefinition) -> Iterator[ModuleDefinition]:
    """Candidate reductions, most aggressive first."""
    # Drop one operation (the interface must keep at least one).
    if len(definition.operations) > 1:
        for index in range(len(definition.operations)):
            ops = (definition.operations[:index]
                   + definition.operations[index + 1:])
            yield dataclasses.replace(definition, operations=ops)
    # Dead object-language declarations (usually unlocked by an op drop).
    pruned = _without_dead_decls(definition)
    if pruned is not None:
        yield pruned
    # Drop one helper function.
    for index in range(len(definition.helper_functions)):
        helpers = (definition.helper_functions[:index]
                   + definition.helper_functions[index + 1:])
        yield dataclasses.replace(definition, helper_functions=helpers)
    # Drop one non-default synthesis component.
    defaults = frozenset(DEFAULT_SYNTHESIS_COMPONENTS)
    for index, name in enumerate(definition.synthesis_components):
        if name in defaults:
            continue
        components = (definition.synthesis_components[:index]
                      + definition.synthesis_components[index + 1:])
        yield dataclasses.replace(definition, synthesis_components=components)
    # Drop the oracle and the prose.
    if definition.expected_invariant is not None:
        yield dataclasses.replace(definition, expected_invariant=None)
    if definition.description:
        yield dataclasses.replace(definition, description="")


def _revalidate(candidate: ModuleDefinition) -> Optional[ModuleDefinition]:
    """Round-trip a candidate through export -> loader, or reject it."""
    try:
        return load_module_text(render_module(candidate))
    except SpecFileError:
        return None


def shrink_module(definition: ModuleDefinition,
                  still_fails: Callable[[ModuleDefinition], bool],
                  max_steps: int = 200) -> ModuleDefinition:
    """Greedily minimize ``definition`` while ``still_fails`` holds.

    ``still_fails`` receives a candidate that already round-trips through
    export -> loader and must return True when the candidate still exhibits
    the failure being chased.  The returned definition is a fixpoint: no
    single candidate reduction both round-trips and still fails (or
    ``max_steps`` accepted reductions were reached, a safety valve).
    """
    current = _revalidate(definition)
    if current is None:
        raise ValueError(
            f"module {definition.name!r} does not round-trip through "
            "export -> loader; fix that before shrinking")
    if not still_fails(current):
        raise ValueError(
            f"module {definition.name!r} does not fail to begin with; "
            "nothing to shrink")
    steps = 0
    progress = True
    while progress and steps < max_steps:
        progress = False
        for candidate in _candidates(current):
            reloaded = _revalidate(candidate)
            if reloaded is None:
                continue
            if still_fails(reloaded):
                current = reloaded
                steps += 1
                progress = True
                break
    return current


def write_reproducer(definition: ModuleDefinition, directory: str) -> str:
    """Write a shrunk module as a ``.hanoi`` reproducer; returns the path."""
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, module_filename(definition.name))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(render_module(definition))
    return path
