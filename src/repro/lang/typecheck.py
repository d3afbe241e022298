"""Type checker for the object language.

The checker validates declarations in order and produces a
:class:`TypeEnvironment` that records:

* data type declarations and their constructors,
* the (curried) type of every top-level definition.

Expressions are checked bidirectionally enough for our needs: the object
language is explicitly annotated at binders (function parameters, top-level
parameters), so checking is mostly synthesis with equality checks at
application and match sites.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

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
    PCtor,
    PTuple,
    PVar,
    PWild,
    Pattern,
    TypeDecl,
)
from .errors import TypeError_
from .types import TAbstract, TArrow, TData, TProd, Type, arrow

__all__ = ["TypeEnvironment", "TypeChecker", "CtorInfo"]


@dataclass(frozen=True)
class CtorInfo:
    """Information about a declared constructor."""

    name: str
    datatype: str
    payload: Optional[Type]


@dataclass
class TypeEnvironment:
    """The global typing context produced by checking a program's declarations."""

    datatypes: Dict[str, TypeDecl] = field(default_factory=dict)
    ctors: Dict[str, CtorInfo] = field(default_factory=dict)
    globals: Dict[str, Type] = field(default_factory=dict)

    def declare_datatype(self, decl: TypeDecl) -> None:
        if decl.name in self.datatypes:
            raise TypeError_(f"duplicate type declaration: {decl.name}")
        self.datatypes[decl.name] = decl
        for ctor in decl.ctors:
            if ctor.name in self.ctors:
                raise TypeError_(f"duplicate constructor: {ctor.name}")
            self.ctors[ctor.name] = CtorInfo(ctor.name, decl.name, ctor.payload)

    def ctor_info(self, name: str) -> CtorInfo:
        try:
            return self.ctors[name]
        except KeyError:
            raise TypeError_(f"unknown constructor: {name}") from None

    def datatype_ctors(self, name: str) -> Tuple[CtorInfo, ...]:
        try:
            decl = self.datatypes[name]
        except KeyError:
            raise TypeError_(f"unknown data type: {name}") from None
        return tuple(self.ctors[c.name] for c in decl.ctors)

    def copy(self) -> "TypeEnvironment":
        return TypeEnvironment(dict(self.datatypes), dict(self.ctors), dict(self.globals))


class TypeChecker:
    """Checks declarations and expressions against a :class:`TypeEnvironment`."""

    def __init__(self, env: Optional[TypeEnvironment] = None):
        self.env = env if env is not None else TypeEnvironment()

    # -- declarations --------------------------------------------------------

    def check_declarations(self, decls) -> TypeEnvironment:
        """Check a batch of declarations.

        A function may not reuse a name the program already binds.  Data
        type declarations are processed first (in order), then the
        signatures of fully annotated function declarations are registered
        so that mutually recursive definitions within the same batch can
        refer to each other, and finally every function body is checked in
        order.
        """
        decls = list(decls)
        bound = set(self.env.globals)
        for decl in decls:
            if isinstance(decl, TypeDecl):
                with self._positioned(decl):
                    self._check_type_decl(decl)
            elif not isinstance(decl, FunDecl):
                raise TypeError_(f"unknown declaration: {decl!r}")
            elif decl.name in bound:
                raise TypeError_(f"duplicate definition: {decl.name}", decl.line)
            else:
                bound.add(decl.name)
        for decl in decls:
            if isinstance(decl, FunDecl) and decl.params and decl.return_type is not None:
                with self._positioned(decl):
                    for _, param_type in decl.params:
                        self._check_wellformed(param_type)
                    self._check_wellformed(decl.return_type)
                self.env.globals.setdefault(
                    decl.name, arrow(*[t for _, t in decl.params], decl.return_type)
                )
        for decl in decls:
            if isinstance(decl, FunDecl):
                with self._positioned(decl):
                    self._check_fun_decl(decl)
        return self.env

    @contextmanager
    def _positioned(self, decl):
        """Anchor any :class:`TypeError_` escaping the block to ``decl``'s line."""
        try:
            yield
        except TypeError_ as exc:
            anchored = exc.with_line(getattr(decl, "line", None))
            if anchored is exc:
                raise
            raise anchored from None

    def _check_type_decl(self, decl: TypeDecl) -> None:
        self.env.declare_datatype(decl)
        for ctor in decl.ctors:
            if ctor.payload is not None:
                self._check_wellformed(ctor.payload)

    def _check_wellformed(self, ty: Type) -> None:
        if isinstance(ty, TData):
            if ty.name not in self.env.datatypes:
                raise TypeError_(f"unknown type name: {ty.name}")
            return
        if isinstance(ty, TAbstract):
            return
        if isinstance(ty, TProd):
            for item in ty.items:
                self._check_wellformed(item)
            return
        if isinstance(ty, TArrow):
            self._check_wellformed(ty.arg)
            self._check_wellformed(ty.result)
            return
        raise TypeError_(f"unknown type node: {ty!r}")

    def _check_fun_decl(self, decl: FunDecl) -> None:
        for _, param_type in decl.params:
            self._check_wellformed(param_type)
        if decl.return_type is not None:
            self._check_wellformed(decl.return_type)

        locals_: Dict[str, Type] = dict(decl.params)
        if decl.recursive:
            if decl.return_type is None:
                raise TypeError_(
                    f"recursive definition {decl.name!r} needs a return type annotation"
                )
            self_type = arrow(*[t for _, t in decl.params], decl.return_type)
            locals_with_self = dict(locals_)
            locals_with_self[decl.name] = self_type
            body_type = self.infer(decl.body, locals_with_self)
        else:
            body_type = self.infer(decl.body, locals_)

        if decl.return_type is not None and body_type != decl.return_type:
            raise TypeError_(
                f"definition {decl.name!r}: body has type {body_type} "
                f"but was annotated {decl.return_type}"
            )
        final_return = decl.return_type if decl.return_type is not None else body_type
        self.env.globals[decl.name] = arrow(*[t for _, t in decl.params], final_return)

    # -- expressions -----------------------------------------------------------

    def infer(self, expr: Expr, locals_: Dict[str, Type]) -> Type:
        """Infer the type of an expression in the given local context."""
        if isinstance(expr, EVar):
            if expr.name in locals_:
                return locals_[expr.name]
            if expr.name in self.env.globals:
                return self.env.globals[expr.name]
            raise TypeError_(f"unbound variable: {expr.name}")

        if isinstance(expr, ECtor):
            info = self.env.ctor_info(expr.ctor)
            if info.payload is None:
                if expr.payload is not None:
                    raise TypeError_(f"constructor {expr.ctor} takes no payload")
            else:
                if expr.payload is None:
                    raise TypeError_(f"constructor {expr.ctor} requires a payload")
                payload_type = self.infer(expr.payload, locals_)
                if payload_type != info.payload:
                    raise TypeError_(
                        f"constructor {expr.ctor}: payload has type {payload_type} "
                        f"but expected {info.payload}"
                    )
            return TData(info.datatype)

        if isinstance(expr, ETuple):
            return TProd(tuple(self.infer(e, locals_) for e in expr.items))

        if isinstance(expr, EProj):
            inner = self.infer(expr.expr, locals_)
            if not isinstance(inner, TProd):
                raise TypeError_(f"projection from non-tuple type {inner}")
            if not (0 <= expr.index < len(inner.items)):
                raise TypeError_(f"projection index {expr.index} out of range for {inner}")
            return inner.items[expr.index]

        if isinstance(expr, EApp):
            fn_type = self.infer(expr.fn, locals_)
            if not isinstance(fn_type, TArrow):
                raise TypeError_(f"application of non-function type {fn_type}")
            arg_type = self.infer(expr.arg, locals_)
            if arg_type != fn_type.arg:
                raise TypeError_(
                    f"application argument has type {arg_type} but expected {fn_type.arg}"
                )
            return fn_type.result

        if isinstance(expr, EFun):
            self._check_wellformed(expr.param_type)
            inner_locals = dict(locals_)
            inner_locals[expr.param] = expr.param_type
            return TArrow(expr.param_type, self.infer(expr.body, inner_locals))

        if isinstance(expr, ELet):
            value_type = self.infer(expr.value, locals_)
            inner_locals = dict(locals_)
            inner_locals[expr.name] = value_type
            return self.infer(expr.body, inner_locals)

        if isinstance(expr, EMatch):
            return self._infer_match(expr, locals_)

        raise TypeError_(f"unknown expression node: {expr!r}")

    def _infer_match(self, expr: EMatch, locals_: Dict[str, Type]) -> Type:
        scrutinee_type = self.infer(expr.scrutinee, locals_)
        result_type: Optional[Type] = None
        for branch in expr.branches:
            bindings = self._check_pattern(branch.pattern, scrutinee_type)
            inner_locals = dict(locals_)
            inner_locals.update(bindings)
            branch_type = self.infer(branch.body, inner_locals)
            if result_type is None:
                result_type = branch_type
            elif branch_type != result_type:
                raise TypeError_(
                    f"match branches disagree: {result_type} versus {branch_type}"
                )
        if result_type is None:
            raise TypeError_("match expression with no branches")
        return result_type

    def _check_pattern(self, pattern: Pattern, ty: Type) -> Dict[str, Type]:
        if isinstance(pattern, PWild):
            return {}
        if isinstance(pattern, PVar):
            return {pattern.name: ty}
        if isinstance(pattern, PCtor):
            info = self.env.ctor_info(pattern.ctor)
            if not isinstance(ty, TData) or ty.name != info.datatype:
                raise TypeError_(
                    f"pattern constructor {pattern.ctor} of type {info.datatype} "
                    f"does not match scrutinee type {ty}"
                )
            if info.payload is None:
                if pattern.payload is not None:
                    raise TypeError_(f"constructor pattern {pattern.ctor} takes no payload")
                return {}
            if pattern.payload is None:
                raise TypeError_(f"constructor pattern {pattern.ctor} requires a payload")
            return self._check_pattern(pattern.payload, info.payload)
        if isinstance(pattern, PTuple):
            if not isinstance(ty, TProd) or len(ty.items) != len(pattern.items):
                raise TypeError_(f"tuple pattern does not match type {ty}")
            bindings: Dict[str, Type] = {}
            for sub, sub_type in zip(pattern.items, ty.items):
                sub_bindings = self._check_pattern(sub, sub_type)
                overlap = set(bindings) & set(sub_bindings)
                if overlap:
                    raise TypeError_(f"duplicate pattern variables: {sorted(overlap)}")
                bindings.update(sub_bindings)
            return bindings
        raise TypeError_(f"unknown pattern node: {pattern!r}")
