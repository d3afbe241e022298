"""Enumeration of *function values* for higher-order argument positions.

The paper's verifier is enumerative; to test an operation such as
``map : (nat -> nat) -> t -> t`` or ``fold : (nat -> t -> t) -> t -> t -> t``
it must supply concrete functional arguments.  "There are many ways to build a
function, so enumeratively verifying a higher-order function requires
searching through many possible functions" (Section 5.4) - we keep the search
small: a handful of syntactically small functions built from the prelude, the
module's own operations, and the function's parameters.

Functions whose types mention the abstract type are the interesting case for
counterexample extraction (Section 4.2); the inductiveness checker wraps them
in higher-order contracts.  Functions whose types do not mention the abstract
type are enumerated here too but never mined for counterexamples.
"""

from __future__ import annotations

from typing import List, Sequence

from ..lang.ast import EFun, Expr
from ..lang.types import TArrow, arrow_args, arrow_result, mentions_abstract, substitute_abstract
from ..lang.values import Value
from .terms import Component, TermEnumerator

__all__ = ["FunctionEnumerator"]

#: Maximum AST size of an enumerated function body.
MAX_BODY_SIZE = 5


class FunctionEnumerator:
    """Builds small closures inhabiting a functional interface type."""

    def __init__(self, instance):
        self.instance = instance
        self._cache = {}

    def functions(self, interface_type: TArrow, limit: int) -> List[Value]:
        """At most ``limit`` function values of the given interface arrow type.

        ``interface_type`` is written over the abstract type; the returned
        closures operate on the concrete representation.
        """
        key = (interface_type, limit)
        if key in self._cache:
            return self._cache[key]

        concrete_type = self.instance.concrete_type
        concrete_arrow = substitute_abstract(interface_type, concrete_type)
        arg_types = tuple(arrow_args(concrete_arrow))
        result_type = arrow_result(concrete_arrow)

        components = self._components(uses_abstract=mentions_abstract(interface_type))
        enumerator = TermEnumerator(self.instance.program.types, components)

        params = tuple((f"hof_arg{i}", ty) for i, ty in enumerate(arg_types))
        bodies: List[Expr] = []
        seen = set()
        for body in enumerator.terms(result_type, params, MAX_BODY_SIZE):
            if body in seen:
                continue
            seen.add(body)
            bodies.append(body)
            if len(bodies) >= limit:
                break

        values: List[Value] = []
        for body in bodies:
            expr: Expr = body
            for name, ty in reversed(params):
                expr = EFun(name, ty, expr)
            values.append(self.instance.program.eval_expr(expr))
        self._cache[key] = values
        return values

    def _components(self, uses_abstract: bool) -> Sequence[Component]:
        """Components available to enumerated function bodies.

        When the functional type mentions the abstract type, the module's own
        operations are the natural building blocks (for example
        ``fun i s -> insert s i`` as a fold argument); otherwise a few prelude
        helpers suffice.
        """
        program = self.instance.program
        names = ["succ", "pred", "plus", "nat_max", "nat_min", "is_zero", "nat_leq", "notb"]
        if uses_abstract:
            names.extend(op.name for op in self.instance.operations)
            names.extend(self.instance.definition.helper_functions)
        components = []
        for name in dict.fromkeys(names):
            if program.has_global(name):
                components.append(Component(name, program.global_type(name)))
        return components
