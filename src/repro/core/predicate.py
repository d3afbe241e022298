"""Candidate invariants as first-class predicate objects.

A :class:`Predicate` wraps a unary object-language function over the concrete
type ``tau_c`` returning ``bool`` - exactly the shape of a representation
invariant ``I : tau_c -> bool``.  Predicates know how to

* evaluate themselves on concrete values (with memoization, since the Hanoi
  loop evaluates the same candidate on the same values many times),
* report their AST size (the ``Size`` column of Figure 7),
* render themselves the way the paper prints invariants.

Predicates are built either from a synthesized :class:`~repro.lang.ast.FunDecl`
or parsed from object-language source (used for the hand-written oracle
invariants in the benchmark suite and the tests).
"""

from __future__ import annotations

from typing import Dict, Optional

from ..lang.ast import ECtor, Expr, FunDecl, expr_size
from ..lang.errors import LangError
from ..lang.parser import parse_program
from ..lang.pretty import pretty_fun_decl
from ..lang.program import Program
from ..lang.types import TData, Type
from ..lang.values import Value, bool_of_value

__all__ = ["Predicate", "always_true"]

#: Name used for the invariant's self-reference inside synthesized candidates.
INVARIANT_NAME = "inv"


class Predicate:
    """A candidate representation invariant ``I : tau_c -> bool``."""

    def __init__(self, decl: FunDecl, program: Program):
        if len(decl.params) != 1:
            raise ValueError("a representation invariant takes exactly one argument")
        self.decl = decl
        self.program = program
        self._cache: Dict[Value, bool] = {}
        param_name, param_type = decl.params[0]
        self._closure = program.evaluator.closure(
            param_name,
            param_type,
            decl.body,
            rec_name=decl.name if decl.recursive else None,
        )

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_source(cls, source: str, program: Program, name: Optional[str] = None) -> "Predicate":
        """Parse a single ``let [rec] ... = ...`` definition into a predicate.

        The definition is *not* installed into the program's globals; it only
        needs the program for evaluation of the functions it calls.
        """
        decls = parse_program(source)
        fun_decls = [d for d in decls if isinstance(d, FunDecl)]
        if not fun_decls:
            raise ValueError("no function definition found in predicate source")
        if name is not None:
            matches = [d for d in fun_decls if d.name == name]
            if not matches:
                raise ValueError(f"no definition named {name!r} in predicate source")
            decl = matches[0]
        else:
            decl = fun_decls[-1]
        return cls(decl, program)

    @classmethod
    def from_body(cls, body: Expr, param: str, concrete_type: Type, program: Program,
                  recursive: bool = True, name: str = INVARIANT_NAME) -> "Predicate":
        """Build a predicate from a synthesized body expression."""
        decl = FunDecl(
            name=name,
            params=((param, concrete_type),),
            return_type=TData("bool"),
            body=body,
            recursive=recursive,
        )
        return cls(decl, program)

    # -- evaluation --------------------------------------------------------------

    def __call__(self, value: Value) -> bool:
        """Evaluate the invariant on a concrete value.

        Evaluation failures (fuel exhaustion, match failure) are treated as
        the candidate rejecting the value; synthesized candidates are total by
        construction, so this only matters for adversarial hand-written
        predicates.
        """
        cached = self._cache.get(value)
        if cached is None:
            cached = self._cache[value] = self._evaluate(value)
        return cached

    def _evaluate(self, value: Value) -> bool:
        try:
            return bool_of_value(self.program.evaluator.apply(self._closure, value))
        except (LangError, ValueError):
            return False

    def consistent_with(self, positives, negatives) -> bool:
        """True when the predicate accepts every positive and rejects every
        negative; values are tried in the order given, positives first, up
        to the first that decides."""
        return all(self(v) for v in positives) and not any(self(v) for v in negatives)

    # -- reporting -------------------------------------------------------------------

    @property
    def size(self) -> int:
        """AST size of the invariant (parameters count one node each)."""
        return expr_size(self.decl.body) + len(self.decl.params) + 1

    @property
    def name(self) -> str:
        return self.decl.name

    def render(self) -> str:
        """Render the invariant the way the paper presents inferred invariants."""
        return pretty_fun_decl(self.decl)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Predicate({self.decl.name}, size={self.size})"


def always_true(concrete_type: Type, program: Program) -> Predicate:
    """The trivial invariant ``fun _ -> true`` (the loop's first candidate)."""
    decl = FunDecl(
        name=INVARIANT_NAME,
        params=(("x", concrete_type),),
        return_type=TData("bool"),
        body=ECtor("True"),
        recursive=False,
    )
    return Predicate(decl, program)
