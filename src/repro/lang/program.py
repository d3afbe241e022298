"""Programs: parsed, type-checked, and evaluated collections of declarations.

A :class:`Program` bundles together

* the :class:`~repro.lang.typecheck.TypeEnvironment` produced by checking the
  declarations,
* the global runtime environment mapping every top-level name to its value,
* an :class:`~repro.lang.eval.Evaluator` for running code against that
  environment.

Benchmark modules are built by parsing the shared prelude followed by the
benchmark's own source; the synthesizer and the Hanoi loop then interact with
the resulting :class:`Program` (looking up operation closures, evaluating
candidate invariants, enumerating values of declared types).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from .ast import EFun, Expr, FunDecl, TypeDecl
from .errors import TypeError_
from .eval import Evaluator
from .parser import parse_program
from .prelude import PRELUDE_SOURCE
from .typecheck import TypeChecker, TypeEnvironment
from .types import TData, TProd, Type
from .values import Value

__all__ = ["Program"]


@lru_cache(maxsize=None)
def _prelude_declarations() -> Tuple[object, ...]:
    """The parsed prelude; declarations are immutable, so every program
    loading the prelude shares one parse."""
    return tuple(parse_program(PRELUDE_SOURCE))


@lru_cache(maxsize=None)
def _prelude_types() -> TypeEnvironment:
    """The type environment of the checked prelude, built once per process.
    Shared: every program takes a copy (:meth:`Program.extend_prelude`)."""
    return TypeChecker().check_declarations(_prelude_declarations())


@lru_cache(maxsize=None)
def _prelude_memo_flags() -> Tuple[bool, ...]:
    """:func:`_memoizes` of each prelude declaration, in order, decided once
    per process: every program compiles the same prelude functions."""
    types = _prelude_types()
    return tuple(isinstance(decl, FunDecl) and _memoizes(decl, types)
                 for decl in _prelude_declarations())


def _memoizes(decl: FunDecl, types: TypeEnvironment) -> bool:
    """Whether the innermost body of a checked top-level function is marked
    for memoization: it has parameters, and every parameter and the result
    have first-order types."""
    if not decl.params:
        return False
    result = types.globals[decl.name]
    for _ in decl.params:
        result = result.result
    return _first_order(result, types.datatypes) and all(
        _first_order(ty, types.datatypes) for _, ty in decl.params)


def _first_order(ty: Type, datatypes: Dict[str, TypeDecl],
                 seen: frozenset = frozenset()) -> bool:
    """Whether no value of ``ty`` can hold a function: ``ty`` is a data type
    whose constructors carry only such types, or a product of them."""
    if isinstance(ty, TProd):
        return all(_first_order(item, datatypes, seen) for item in ty.items)
    if not isinstance(ty, TData):
        return False  # an arrow, or the abstract type
    if ty.name in seen:
        return True
    seen = seen | {ty.name}
    return all(ctor.payload is None or _first_order(ctor.payload, datatypes, seen)
               for ctor in datatypes[ty.name].ctors)


class Program:
    """A type-checked, evaluated program (prelude plus module source)."""

    def __init__(self):
        self.types = TypeEnvironment()
        self.evaluator = Evaluator({})
        self.declarations: List[object] = []
        self._checker = TypeChecker(self.types)

    # -- construction -----------------------------------------------------------

    @classmethod
    def from_source(cls, source: str, include_prelude: bool = True) -> "Program":
        """Parse ``source``, then load it as :meth:`from_declarations` does."""
        return cls.from_declarations(parse_program(source), include_prelude)

    @classmethod
    def from_declarations(cls, decls: Sequence[object],
                          include_prelude: bool = True) -> "Program":
        """Check and load already-parsed declarations.

        When ``include_prelude`` is true (the default) the shared prelude is
        loaded first, exactly as every benchmark program in the paper includes
        the standard prelude.
        """
        program = cls()
        if include_prelude:
            program.extend_prelude()
        program.extend_declarations(decls)
        return program

    def extend(self, source: str) -> None:
        """Parse and load additional declarations on top of this program."""
        self.extend_declarations(parse_program(source))

    def extend_prelude(self) -> None:
        """Load the shared prelude into an empty program.

        The prelude is parsed and type checked once per process; each program
        copies the checked environment and compiles its own closures.
        ``declarations`` stays prelude-first.
        """
        if self.declarations:
            raise ValueError("the prelude loads into an empty program only")
        self.types = _prelude_types().copy()
        self._checker = TypeChecker(self.types)
        self._install_checked(_prelude_declarations(), _prelude_memo_flags())

    def extend_declarations(self, decls: Sequence[object]) -> None:
        """Type check and install already-parsed declarations.

        This is the parse-free half of :meth:`extend`; the ``.hanoi`` spec-file
        loader uses it to check declarations one at a time so type errors can
        be anchored to the declaration's source line.
        """
        self._checker.check_declarations(decls)
        self._install_checked(decls)

    def _install_checked(self, decls: Sequence[object],
                         memo_flags: Optional[Sequence[bool]] = None) -> None:
        """Record type-checked declarations and install their functions;
        ``memo_flags``, when given, is :func:`_memoizes` of each."""
        for index, decl in enumerate(decls):
            self.declarations.append(decl)
            if isinstance(decl, FunDecl):
                memo = (_memoizes(decl, self.types) if memo_flags is None
                        else memo_flags[index])
                self.evaluator.globals[decl.name] = self._compile_fun(decl, memo)

    def _compile_fun(self, decl: FunDecl, memo: bool) -> Value:
        """Turn a top-level definition into a runtime value.

        Definitions with parameters become curried closures, their bodies
        compiled once, on first application; recursion is resolved through
        the global environment (names not bound locally are looked up in the
        globals when they run), so mutually recursive top-level functions
        work without extra machinery.  When ``memo`` is set (see
        :func:`_memoizes`), the code of the innermost body is marked for
        memoization (see :func:`repro.lang.eval.memo_table`).
        """
        if not decl.params:
            return self.evaluator.eval(decl.body)
        body: Expr = decl.body
        for name, ty in reversed(decl.params[1:]):
            body = EFun(name, ty, body)
        first_name, first_type = decl.params[0]
        return self.evaluator.closure(first_name, first_type, body,
                                      memo_body=decl.body if memo else None)

    # -- queries ------------------------------------------------------------------

    def global_value(self, name: str) -> Value:
        try:
            return self.evaluator.globals[name]
        except KeyError:
            raise TypeError_(f"unknown global: {name}") from None

    def global_type(self, name: str) -> Type:
        try:
            return self.types.globals[name]
        except KeyError:
            raise TypeError_(f"unknown global: {name}") from None

    def has_global(self, name: str) -> bool:
        return name in self.evaluator.globals

    def datatype(self, name: str) -> TypeDecl:
        try:
            return self.types.datatypes[name]
        except KeyError:
            raise TypeError_(f"unknown data type: {name}") from None

    # -- execution -------------------------------------------------------------------

    def call(self, name: str, *args: Value) -> Value:
        """Apply a top-level function to argument values."""
        return self.evaluator.apply(self.global_value(name), *args)

    def apply(self, fn: Value, *args: Value) -> Value:
        """Apply an arbitrary function value to argument values."""
        return self.evaluator.apply(fn, *args)

    def eval_expr(self, expr: Expr, env: Optional[Dict[str, Value]] = None) -> Value:
        """Evaluate an expression against the program's globals."""
        return self.evaluator.eval(expr, env)
