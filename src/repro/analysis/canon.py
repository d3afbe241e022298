"""Structural content keys for module definitions.

A key is a sha256 over the dataclass ``repr`` of parsed declarations.  The
``repr`` covers structure only: the ``line`` fields of
:class:`~repro.lang.ast.FunDecl`, :class:`~repro.lang.ast.TypeDecl` and
:class:`~repro.lang.ast.EMatch` are ``repr=False``, so comments, blank lines
and shifted lines never move a key, while any change to a declaration's
syntax tree - a renamed local included - does.

:func:`declaration_dependency_hashes` keys each function declaration by its
transitive callees, the module's type declarations and the prelude; it is
the invalidation unit of the persistent store (:mod:`repro.serve.diskcache`).
:func:`canonical_hash` keys the whole module, interface included; it is the
store's fallback key and what ``repro lint --hash`` prints.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, Optional, Sequence

from ..core.module import ModuleDefinition
from ..lang.ast import FunDecl, TypeDecl
from ..lang.prelude import PRELUDE_SOURCE
from ..lang.pretty import pretty_type
from .callgraph import build_call_graph

__all__ = ["canonical_hash", "declaration_dependency_hashes", "PRELUDE_HASH"]

#: Content hash of the prelude every module extends.  Folded into every key:
#: a prelude change invalidates every persisted cache entry, as it should.
PRELUDE_HASH = hashlib.sha256(PRELUDE_SOURCE.encode("utf-8")).hexdigest()


def _digest(parts: Iterable[str]) -> str:
    return hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()


def canonical_hash(definition: ModuleDefinition,
                   decls: Optional[Sequence[object]] = None) -> str:
    """The module's content key: sha256 over the prelude hash, every
    declaration's structure in source order, and the interface (concrete
    type, operation and specification signatures, components, helpers).
    ``decls`` defaults to the definition's own parse."""
    if decls is None:
        decls = definition.declarations
    parts = [PRELUDE_HASH, *(repr(decl) for decl in decls)]
    parts.append(f"abstract = {pretty_type(definition.concrete_type)}")
    for operation in definition.operations:
        parts.append(f"operation {operation.name} : "
                     f"{pretty_type(operation.signature)}")
    parts.append(f"spec {definition.spec_name} : "
                 f"{pretty_type(definition.spec_signature)}")
    parts.append("components " + " ".join(definition.synthesis_components))
    parts.append("helpers " + " ".join(definition.helper_functions))
    return _digest(parts)


def declaration_dependency_hashes(definition: ModuleDefinition,
                                  decls: Optional[Sequence[object]] = None
                                  ) -> Dict[str, str]:
    """``name -> sha256`` for every module function declaration, over the
    prelude hash, every type declaration, and the declaration with its
    transitive callees among the module declarations, sorted by name.

    Editing one declaration changes only the keys of the declarations that
    (transitively) call it, so everything else warm-starts across
    processes.  ``decls`` defaults to the definition's own parse.
    """
    if decls is None:
        decls = definition.declarations
    fun_decls = {d.name: d for d in decls if isinstance(d, FunDecl)}
    type_parts = [repr(d) for d in decls if isinstance(d, TypeDecl)]
    structure = {name: repr(d) for name, d in fun_decls.items()}
    graph = build_call_graph(list(fun_decls.values()))

    hashes: Dict[str, str] = {}
    for name in fun_decls:
        closure = {name}
        frontier = [name]
        while frontier:
            current = frontier.pop()
            for callee in graph[current]:
                if callee not in closure:
                    closure.add(callee)
                    frontier.append(callee)
        hashes[name] = _digest([PRELUDE_HASH, *type_parts,
                                *(structure[n] for n in sorted(closure))])
    return hashes
