"""Canonicalizing rewrites and content hashing for module definitions.

Three behaviour-preserving rewrites bring a module's declarations to a
canonical form:

* **constant folding** — projections out of tuple literals, matches whose
  scrutinee is a constructor literal (which covers the desugared
  ``if True/if False``), and ``let`` bindings whose variable is unused; all
  folds are purity-guarded so a discarded sub-expression can never have
  been the one that crashed or diverged;
* **dead-branch elimination** — match branches proven unreachable by the
  usefulness analysis (:mod:`repro.analysis.matches`) are removed;
* **alpha-normalization** — local binders (parameters, ``fun``/``let``
  bindings, pattern variables) are renamed to a fixed sequence, so
  definitions differing only in local naming become identical.  Top-level
  names are *not* renamed: they are the module interface.

:func:`canonical_hash` hashes the alpha-normalized canonical declarations
together with the module interface (concrete type, operation and
specification signatures, component list) into a **content key**:
trivially-different modules — renamed locals, dead branches, folded
constants — collide, behaviourally different modules do not.  The key is
stamped on the evaluation and synthesis caches
(:mod:`repro.verify.evalcache`, :mod:`repro.synth.poolcache`) so a future
persistent cache tier can index entries by module content.

:func:`canonicalize_definition` additionally renders the canonical
declarations back to loadable surface syntax (with legal fresh names), so
a canonicalized module can be re-run end to end; the differential fuzzer
checks it produces byte-identical inference outcomes to the original.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import replace
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..core.module import ModuleDefinition
from ..lang.ast import (
    Branch,
    ECtor,
    EFun,
    ELet,
    EMatch,
    EProj,
    ETuple,
    EVar,
    EApp,
    Expr,
    FunDecl,
    PCtor,
    PTuple,
    PVar,
    PWild,
    Pattern,
    TypeDecl,
    free_vars,
)
from ..lang.prelude import PRELUDE_SOURCE
from ..lang.pretty import pretty_type, pretty_type_decl
from ..lang.program import Program
from ..lang.typecheck import TypeChecker
from ..lang.types import Type, arrow
from .callgraph import build_call_graph
from .matches import unreachable_branches

__all__ = [
    "canonicalize_expr",
    "canonicalize_fun_decl",
    "canonical_declarations",
    "canonical_hash",
    "canonicalize_definition",
    "declaration_dependency_hashes",
    "render_fun_decl",
    "PRELUDE_HASH",
]

#: Content hash of the prelude every module extends.  Folded into every
#: per-declaration dependency hash: a prelude change invalidates every
#: persisted cache entry, exactly as it should.
PRELUDE_HASH = hashlib.sha256(PRELUDE_SOURCE.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Purity
# ---------------------------------------------------------------------------


def _pure(expr: Expr) -> bool:
    """Conservatively: evaluating ``expr`` cannot crash, diverge, or burn
    observable fuel — so dropping it preserves behaviour exactly."""
    if isinstance(expr, (EVar, EFun)):
        return True
    if isinstance(expr, ECtor):
        return expr.payload is None or _pure(expr.payload)
    if isinstance(expr, ETuple):
        return all(_pure(item) for item in expr.items)
    if isinstance(expr, EProj):
        # Well-typed projection out of a pure tuple value cannot fail.
        return _pure(expr.expr)
    return False


# ---------------------------------------------------------------------------
# Folding + dead-branch elimination (typed, bottom-up)
# ---------------------------------------------------------------------------


class _Canonicalizer:
    def __init__(self, checker: TypeChecker):
        self.checker = checker

    def fun_decl(self, decl: FunDecl) -> FunDecl:
        locals_: Dict[str, Type] = dict(decl.params)
        if decl.recursive and decl.return_type is not None:
            locals_[decl.name] = arrow(*[t for _, t in decl.params],
                                       decl.return_type)
        body = self.expr(decl.body, locals_)
        return FunDecl(decl.name, decl.params, decl.return_type, body,
                       decl.recursive, line=decl.line)

    def expr(self, expr: Expr, locals_: Dict[str, Type]) -> Expr:
        if isinstance(expr, EVar):
            return expr
        if isinstance(expr, ECtor):
            if expr.payload is None:
                return expr
            return ECtor(expr.ctor, self.expr(expr.payload, locals_))
        if isinstance(expr, ETuple):
            return ETuple(tuple(self.expr(item, locals_)
                                for item in expr.items))
        if isinstance(expr, EProj):
            inner = self.expr(expr.expr, locals_)
            if isinstance(inner, ETuple) and 0 <= expr.index < len(inner.items):
                discarded = [item for i, item in enumerate(inner.items)
                             if i != expr.index]
                if all(_pure(item) for item in discarded):
                    return inner.items[expr.index]
            return EProj(expr.index, inner)
        if isinstance(expr, EApp):
            return EApp(self.expr(expr.fn, locals_),
                        self.expr(expr.arg, locals_))
        if isinstance(expr, EFun):
            inner = dict(locals_)
            inner[expr.param] = expr.param_type
            return EFun(expr.param, expr.param_type,
                        self.expr(expr.body, inner))
        if isinstance(expr, ELet):
            value = self.expr(expr.value, locals_)
            inner = dict(locals_)
            inner[expr.name] = self.checker.infer(value, locals_)
            body = self.expr(expr.body, inner)
            if expr.name not in free_vars(body) and _pure(value):
                return body
            return ELet(expr.name, value, body)
        if isinstance(expr, EMatch):
            return self._match(expr, locals_)
        raise TypeError(f"unknown expression node: {expr!r}")

    def _match(self, expr: EMatch, locals_: Dict[str, Type]) -> Expr:
        scrutinee = self.expr(expr.scrutinee, locals_)
        scrutinee_type = self.checker.infer(scrutinee, locals_)
        env = self.checker.env

        branches = list(expr.branches)
        dead = set(unreachable_branches(branches, scrutinee_type, env))
        if dead:
            branches = [b for i, b in enumerate(branches) if i not in dead]

        folded = self._fold_known_scrutinee(scrutinee, branches, locals_)
        if folded is not None:
            return folded

        new_branches: List[Branch] = []
        for branch in branches:
            bindings = self.checker._check_pattern(branch.pattern,
                                                   scrutinee_type)
            inner = dict(locals_)
            inner.update(bindings)
            new_branches.append(Branch(branch.pattern,
                                       self.expr(branch.body, inner)))
        return EMatch(scrutinee, tuple(new_branches), line=expr.line)

    def _fold_known_scrutinee(self, scrutinee: Expr,
                              branches: Sequence[Branch],
                              locals_: Dict[str, Type]) -> Optional[Expr]:
        """Reduce a match over a literal constructor or tuple, when the
        first matching branch lets us do so without duplicating or
        discarding impure work.  Returns ``None`` when no fold applies."""
        if isinstance(scrutinee, ECtor):
            for branch in branches:
                pattern = branch.pattern
                if isinstance(pattern, PWild):
                    if _pure(scrutinee):
                        return self.expr(branch.body, locals_)
                    return None
                if isinstance(pattern, PVar):
                    return self.expr(
                        ELet(pattern.name, scrutinee, branch.body), locals_)
                if isinstance(pattern, PCtor):
                    if pattern.ctor != scrutinee.ctor:
                        continue  # provably different constructor: skip
                    if pattern.payload is None:
                        return self.expr(branch.body, locals_)
                    if isinstance(pattern.payload, PVar):
                        assert scrutinee.payload is not None
                        return self.expr(
                            ELet(pattern.payload.name, scrutinee.payload,
                                 branch.body), locals_)
                    if isinstance(pattern.payload, PWild):
                        if scrutinee.payload is None or _pure(scrutinee.payload):
                            return self.expr(branch.body, locals_)
                    return None  # nested payload pattern: leave the match
                return None
            return None  # no branch matches: preserve the runtime failure
        if isinstance(scrutinee, ETuple) and branches:
            pattern = branches[0].pattern
            if isinstance(pattern, PTuple) and \
                    len(pattern.items) == len(scrutinee.items):
                body: Expr = branches[0].body
                rewritten = body
                bindings: List[Tuple[str, Expr]] = []
                for sub, item in zip(pattern.items, scrutinee.items):
                    if isinstance(sub, PVar):
                        bindings.append((sub.name, item))
                    elif isinstance(sub, PWild):
                        if not _pure(item):
                            return None
                    else:
                        return None  # nested pattern: leave the match
                for name, item in reversed(bindings):
                    rewritten = ELet(name, item, rewritten)
                return self.expr(rewritten, locals_)
        return None


def canonicalize_expr(expr: Expr, checker: TypeChecker,
                      locals_: Dict[str, Type]) -> Expr:
    """Fold constants and eliminate dead branches in one expression."""
    return _Canonicalizer(checker).expr(expr, dict(locals_))


def canonicalize_fun_decl(decl: FunDecl, checker: TypeChecker) -> FunDecl:
    return _Canonicalizer(checker).fun_decl(decl)


# ---------------------------------------------------------------------------
# Alpha-normalization
# ---------------------------------------------------------------------------


def _rename_pattern(pattern: Pattern, mapping: Dict[str, str],
                    names: Iterator[str]) -> Pattern:
    if isinstance(pattern, PVar):
        fresh = next(names)
        mapping[pattern.name] = fresh
        return PVar(fresh)
    if isinstance(pattern, PCtor):
        if pattern.payload is None:
            return pattern
        return PCtor(pattern.ctor,
                     _rename_pattern(pattern.payload, mapping, names))
    if isinstance(pattern, PTuple):
        return PTuple(tuple(_rename_pattern(item, mapping, names)
                            for item in pattern.items))
    return pattern


def _rename(expr: Expr, mapping: Dict[str, str],
            names: Iterator[str]) -> Expr:
    if isinstance(expr, EVar):
        return EVar(mapping.get(expr.name, expr.name))
    if isinstance(expr, ECtor):
        if expr.payload is None:
            return expr
        return ECtor(expr.ctor, _rename(expr.payload, mapping, names))
    if isinstance(expr, ETuple):
        return ETuple(tuple(_rename(item, mapping, names)
                            for item in expr.items))
    if isinstance(expr, EProj):
        return EProj(expr.index, _rename(expr.expr, mapping, names))
    if isinstance(expr, EApp):
        return EApp(_rename(expr.fn, mapping, names),
                    _rename(expr.arg, mapping, names))
    if isinstance(expr, EFun):
        fresh = next(names)
        inner = dict(mapping)
        inner[expr.param] = fresh
        return EFun(fresh, expr.param_type,
                    _rename(expr.body, inner, names))
    if isinstance(expr, ELet):
        value = _rename(expr.value, mapping, names)
        fresh = next(names)
        inner = dict(mapping)
        inner[expr.name] = fresh
        return ELet(fresh, value, _rename(expr.body, inner, names))
    if isinstance(expr, EMatch):
        scrutinee = _rename(expr.scrutinee, mapping, names)
        branches = []
        for branch in expr.branches:
            inner = dict(mapping)
            pattern = _rename_pattern(branch.pattern, inner, names)
            branches.append(Branch(pattern, _rename(branch.body, inner, names)))
        return EMatch(scrutinee, tuple(branches), line=expr.line)
    raise TypeError(f"unknown expression node: {expr!r}")


def alpha_rename_decl(decl: FunDecl, names: Iterator[str]) -> FunDecl:
    """Rename every local binder of ``decl`` from the ``names`` stream.

    The declaration's own name is left alone (it is a global, and recursive
    references must keep resolving to it)."""
    mapping: Dict[str, str] = {}
    params = []
    for param, param_type in decl.params:
        fresh = next(names)
        mapping[param] = fresh
        params.append((fresh, param_type))
    mapping.pop(decl.name, None)  # a param shadowing the decl name keeps it
    body = _rename(decl.body, mapping, names)
    return FunDecl(decl.name, tuple(params), decl.return_type, body,
                   decl.recursive, line=decl.line)


def _hash_names() -> Iterator[str]:
    """Binder names for the hash-only canonical form.  ``%N`` is not a
    legal identifier, so these can never collide with source names."""
    return (f"%{i}" for i in itertools.count())


def _fresh_legal_names(forbidden: frozenset) -> Iterator[str]:
    for i in itertools.count():
        name = f"x{i}"
        if name not in forbidden:
            yield name


# ---------------------------------------------------------------------------
# Rendering back to surface syntax
# ---------------------------------------------------------------------------


def _render_pattern_atom(pattern: Pattern) -> str:
    text = _render_pattern(pattern)
    if isinstance(pattern, PCtor) and pattern.payload is not None:
        return f"({text})"
    return text


def _render_pattern(pattern: Pattern) -> str:
    if isinstance(pattern, PWild):
        return "_"
    if isinstance(pattern, PVar):
        return pattern.name
    if isinstance(pattern, PCtor):
        if pattern.payload is None:
            return pattern.ctor
        return f"{pattern.ctor} {_render_pattern_atom(pattern.payload)}"
    if isinstance(pattern, PTuple):
        return "(" + ", ".join(_render_pattern(item)
                               for item in pattern.items) + ")"
    raise TypeError(f"unknown pattern node: {pattern!r}")


def _render_expr(expr: Expr) -> str:
    """Fully parenthesized single-line surface syntax that re-parses to a
    structurally identical expression."""
    if isinstance(expr, EVar):
        return expr.name
    if isinstance(expr, ECtor):
        if expr.payload is None:
            return expr.ctor
        return f"({expr.ctor} {_render_expr(expr.payload)})"
    if isinstance(expr, ETuple):
        return "(" + ", ".join(_render_expr(item) for item in expr.items) + ")"
    if isinstance(expr, EApp):
        return f"({_render_expr(expr.fn)} {_render_expr(expr.arg)})"
    if isinstance(expr, EFun):
        return (f"(fun ({expr.param} : {pretty_type(expr.param_type)}) -> "
                f"{_render_expr(expr.body)})")
    if isinstance(expr, ELet):
        return (f"(let {expr.name} = {_render_expr(expr.value)} in "
                f"{_render_expr(expr.body)})")
    if isinstance(expr, EMatch):
        arms = " ".join(f"| {_render_pattern(b.pattern)} -> "
                        f"{_render_expr(b.body)}" for b in expr.branches)
        return f"(match {_render_expr(expr.scrutinee)} with {arms})"
    if isinstance(expr, EProj):
        raise ValueError("projection has no surface syntax; "
                         "fold it away before rendering")
    raise TypeError(f"unknown expression node: {expr!r}")


def render_fun_decl(decl: FunDecl) -> str:
    """One-line loadable source for a function declaration."""
    header = "let rec" if decl.recursive else "let"
    params = "".join(f" ({name} : {pretty_type(ty)})"
                     for name, ty in decl.params)
    annotation = (f" : {pretty_type(decl.return_type)}"
                  if decl.return_type is not None else "")
    return f"{header} {decl.name}{params}{annotation} = {_render_expr(decl.body)}"


def _render_decl(decl: object) -> str:
    if isinstance(decl, TypeDecl):
        return pretty_type_decl(decl)
    if isinstance(decl, FunDecl):
        return render_fun_decl(decl)
    raise TypeError(f"unknown declaration: {decl!r}")


# ---------------------------------------------------------------------------
# Module-level entry points
# ---------------------------------------------------------------------------


def _checked_module(definition: ModuleDefinition) -> Tuple[Sequence[object], Program]:
    return definition.declarations, Program.from_declarations(definition.declarations)


def canonical_declarations(definition: ModuleDefinition,
                           program: Optional[Program] = None,
                           decls: Optional[List[object]] = None) -> List[object]:
    """The module's declarations, folded and dead-branch-eliminated."""
    if program is None or decls is None:
        decls, program = _checked_module(definition)
    canonicalizer = _Canonicalizer(TypeChecker(program.types))
    out: List[object] = []
    for decl in decls:
        if isinstance(decl, FunDecl):
            out.append(canonicalizer.fun_decl(decl))
        else:
            out.append(decl)
    return out


def canonical_hash(definition: ModuleDefinition,
                   program: Optional[Program] = None,
                   decls: Optional[List[object]] = None) -> str:
    """A content key for the module: sha256 over the alpha-normalized
    canonical declarations plus the module interface.  Behaviourally
    identical modules (modulo local names, dead branches, and foldable
    constants) collide; interface or behaviour changes do not."""
    canonical = canonical_declarations(definition, program, decls)
    parts: List[str] = []
    for decl in canonical:
        if isinstance(decl, FunDecl):
            parts.append(render_fun_decl(alpha_rename_decl(decl, _hash_names())))
        else:
            parts.append(_render_decl(decl))
    parts.append(f"abstract = {pretty_type(definition.concrete_type)}")
    for operation in definition.operations:
        parts.append(f"operation {operation.name} : "
                     f"{pretty_type(operation.signature)}")
    parts.append(f"spec {definition.spec_name} : "
                 f"{pretty_type(definition.spec_signature)}")
    parts.append("components " + " ".join(definition.synthesis_components))
    parts.append("helpers " + " ".join(definition.helper_functions))
    payload = "\n".join(parts)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def declaration_dependency_hashes(definition: ModuleDefinition,
                                  program: Optional[Program] = None,
                                  decls: Optional[List[object]] = None
                                  ) -> Dict[str, str]:
    """Per-declaration content keys: ``name -> sha256`` for every module
    function declaration, hashing the declaration's alpha-normalized
    canonical form together with everything its behaviour depends on - its
    transitive callees among the module declarations, the module's type
    declarations, and the prelude (:data:`PRELUDE_HASH`).

    This is the invalidation unit of the persistent cache tier
    (:mod:`repro.serve.diskcache`): editing one operation changes only the
    keys of the declarations that (transitively) call it, so everything
    else warm-starts across processes.  Renamed locals, dead branches, and
    foldable constants do not change any key (same canonical form as
    :func:`canonical_hash`).
    """
    canonical = canonical_declarations(definition, program, decls)
    fun_decls = {d.name: d for d in canonical if isinstance(d, FunDecl)}
    type_parts = [_render_decl(d) for d in canonical if isinstance(d, TypeDecl)]
    rendered = {name: render_fun_decl(alpha_rename_decl(d, _hash_names()))
                for name, d in fun_decls.items()}
    graph = build_call_graph(list(fun_decls.values()))

    hashes: Dict[str, str] = {}
    for name in fun_decls:
        closure = {name}
        frontier = [name]
        while frontier:
            current = frontier.pop()
            for callee in graph.get(current, frozenset()):
                if callee not in closure:
                    closure.add(callee)
                    frontier.append(callee)
        parts = [PRELUDE_HASH, *type_parts,
                 *(rendered[n] for n in sorted(closure))]
        hashes[name] = hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()
    return hashes


def canonicalize_definition(definition: ModuleDefinition) -> ModuleDefinition:
    """The same module with canonicalized, alpha-renamed (legal names)
    source — loadable and behaviourally identical to the original."""
    decls, program = _checked_module(definition)
    canonical = canonical_declarations(definition, program, decls)
    forbidden = frozenset(program.types.globals) \
        | frozenset(program.types.ctors) \
        | frozenset(program.types.datatypes)
    rendered: List[str] = []
    for decl in canonical:
        if isinstance(decl, FunDecl):
            decl = alpha_rename_decl(decl, _fresh_legal_names(forbidden))
        rendered.append(_render_decl(decl))
    return replace(definition, source="\n\n".join(rendered) + "\n")
