"""The object language in which benchmark modules, specifications, and
inferred invariants are written.

This package implements the "pure, simply-typed, call-by-value functional
language with recursive data types" of Section 4.1 of the paper: abstract
syntax, an ML-like surface syntax with lexer and parser, a type checker, a
fuel-bounded evaluator, a pretty printer, and the standard prelude (booleans,
Peano naturals, options, comparisons).
"""

from .ast import (
    Branch,
    CtorDecl,
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
    app,
    expr_size,
    free_vars,
)
from .errors import (
    EvalDepthExceeded,
    EvalError,
    FuelExhausted,
    LangError,
    LexError,
    MatchFailure,
    ParseError,
    TypeError_,
)
from .eval import EvalBudget, Evaluator, match_pattern
from .lexer import Token, tokenize
from .parser import parse_expression, parse_program, parse_type
from .pretty import pretty_expr, pretty_fun_decl, pretty_type, pretty_type_decl
from .prelude import DEFAULT_SYNTHESIS_COMPONENTS, PRELUDE_SOURCE
from .program import Program
from .typecheck import CtorInfo, TypeChecker, TypeEnvironment
from .types import (
    TAbstract,
    TArrow,
    TData,
    TProd,
    Type,
    arrow,
    arrow_args,
    arrow_result,
    mentions_abstract,
    prod,
    substitute_abstract,
)
from .values import (
    Value,
    VClosure,
    VCtor,
    VNative,
    VTuple,
    bool_of_value,
    int_of_nat,
    is_first_order,
    list_of_value,
    nat_of_int,
    v_bool,
    v_list,
    value_size,
)

__all__ = [name for name in dir() if not name.startswith("_")]
