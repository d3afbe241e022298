"""Human-readable pretty printing of declarations, expressions, and values.

The dataclass ``__str__`` methods already render compact single-line forms;
this module adds the multi-line OCaml-like rendering used by the examples
and the experiment reports (for example when printing an inferred invariant
the way the paper presents them).
"""

from __future__ import annotations

from .ast import (
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
    TypeDecl,
)
from .types import TArrow, TProd, Type

__all__ = ["pretty_expr", "pretty_fun_decl", "pretty_type_decl", "pretty_type"]

_INDENT = "  "


def pretty_type(ty: Type) -> str:
    """Render a type with minimal parentheses."""
    if isinstance(ty, TArrow):
        left = pretty_type(ty.arg)
        if isinstance(ty.arg, TArrow):
            left = f"({left})"
        return f"{left} -> {pretty_type(ty.result)}"
    if isinstance(ty, TProd):
        parts = []
        for item in ty.items:
            rendered = pretty_type(item)
            if isinstance(item, (TArrow, TProd)):
                rendered = f"({rendered})"
            parts.append(rendered)
        return " * ".join(parts)
    return str(ty)


def pretty_expr(expr: Expr, indent: int = 0) -> str:
    """Render an expression over multiple lines with indentation."""
    pad = _INDENT * indent

    if isinstance(expr, EMatch):
        lines = [f"match {_inline(expr.scrutinee)} with"]
        for branch in expr.branches:
            body = pretty_expr(branch.body, indent + 1)
            if "\n" in body:
                lines.append(f"{pad}| {branch.pattern} ->\n{_INDENT * (indent + 1)}{body.lstrip()}")
            else:
                lines.append(f"{pad}| {branch.pattern} -> {body.strip()}")
        return "\n".join(lines)

    if isinstance(expr, EFun):
        body = pretty_expr(expr.body, indent + 1)
        if "\n" in body:
            return f"fun ({expr.param} : {pretty_type(expr.param_type)}) ->\n{_INDENT * (indent + 1)}{body.lstrip()}"
        return f"fun ({expr.param} : {pretty_type(expr.param_type)}) -> {body.strip()}"

    if isinstance(expr, ELet):
        return (
            f"let {expr.name} = {_inline(expr.value)} in\n"
            f"{pad}{pretty_expr(expr.body, indent).lstrip()}"
        )

    return _inline(expr)


def _inline(expr: Expr) -> str:
    """Render an expression on one line, with lighter parenthesisation than __str__."""
    if isinstance(expr, EVar):
        return expr.name
    if isinstance(expr, ECtor):
        if expr.payload is None:
            return expr.ctor
        return f"{expr.ctor} {_atom(expr.payload)}"
    if isinstance(expr, ETuple):
        return "(" + ", ".join(_inline(e) for e in expr.items) + ")"
    if isinstance(expr, EProj):
        return f"proj {expr.index} {_atom(expr.expr)}"
    if isinstance(expr, EApp):
        head, args = _uncurry(expr)
        return " ".join([_atom(head)] + [_atom(a) for a in args])
    if isinstance(expr, (EFun, ELet, EMatch)):
        return "(" + " ".join(pretty_expr(expr).split()) + ")"
    return str(expr)


def _atom(expr: Expr) -> str:
    rendered = _inline(expr)
    if isinstance(expr, (EVar,)) or (isinstance(expr, ECtor) and expr.payload is None):
        return rendered
    if rendered.startswith("("):
        return rendered
    return f"({rendered})"


def _uncurry(expr: EApp):
    args = []
    head: Expr = expr
    while isinstance(head, EApp):
        args.append(head.arg)
        head = head.fn
    return head, list(reversed(args))


def pretty_fun_decl(decl: FunDecl) -> str:
    """Render a top-level definition the way the paper prints invariants."""
    keyword = "let rec" if decl.recursive else "let"
    params = " ".join(f"({n} : {pretty_type(t)})" for n, t in decl.params)
    annot = f" : {pretty_type(decl.return_type)}" if decl.return_type is not None else ""
    header = f"{keyword} {decl.name}" + (f" {params}" if params else "") + f"{annot} ="
    body = pretty_expr(decl.body, 1)
    if "\n" in body:
        return f"{header}\n{_INDENT}{body.lstrip()}"
    return f"{header} {body.strip()}"


def pretty_type_decl(decl: TypeDecl) -> str:
    """Render a data type declaration."""
    ctors = []
    for ctor in decl.ctors:
        if ctor.payload is None:
            ctors.append(ctor.name)
        else:
            ctors.append(f"{ctor.name} of {pretty_type(ctor.payload)}")
    return f"type {decl.name} = " + " | ".join(ctors)
