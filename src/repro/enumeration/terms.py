"""Type-directed enumeration of object-language expressions.

This is a small, generic, purely syntactic enumerator: given a typing context
and a set of typed components (functions that candidate terms may call), it
yields well-typed expressions of a goal type in size order.

It is used where example-directed pruning is unavailable: enumerating
candidate *functional arguments* for higher-order operations during
inductiveness checking (``enumeration.functions``), its only user.

The main synthesizer (``repro.synth.myth``) uses its own bottom-up enumeration
with observational-equivalence pruning, which needs evaluation and therefore
lives with the synthesizer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..lang.ast import ECtor, ETuple, EVar, Expr, app
from ..lang.typecheck import TypeEnvironment
from ..lang.types import TArrow, TData, TProd, Type, arrow_args, arrow_result

__all__ = ["Component", "TermEnumerator", "ordered_partitions"]


@dataclass(frozen=True)
class Component:
    """A named, typed function (or constant) available to enumerated terms.

    ``argument_restrictions`` optionally constrains argument positions to a
    set of variable names; this is how structural-recursion restrictions are
    expressed (a recursive call may only be applied to strict sub-values).
    """

    name: str
    signature: Type
    argument_restrictions: Tuple[Optional[frozenset], ...] = ()

    @property
    def argument_types(self) -> Tuple[Type, ...]:
        return tuple(arrow_args(self.signature))

    @property
    def result_type(self) -> Type:
        return arrow_result(self.signature)


class TermEnumerator:
    """Enumerates expressions of a goal type over a fixed component set."""

    def __init__(self, types: TypeEnvironment, components: Sequence[Component]):
        self.types = types
        self.components = tuple(components)
        self._cache: Dict[Tuple[Type, Tuple[Tuple[str, Type], ...], int], Tuple[Expr, ...]] = {}

    # -- public API -----------------------------------------------------------

    def terms(self, goal: Type, context: Sequence[Tuple[str, Type]],
              max_size: int) -> Iterator[Expr]:
        """Yield terms of type ``goal`` in size order, smallest first."""
        ctx = tuple(context)
        for size in range(1, max_size + 1):
            yield from self.terms_of_size(goal, ctx, size)

    def terms_of_size(self, goal: Type, context: Tuple[Tuple[str, Type], ...],
                      size: int) -> Tuple[Expr, ...]:
        """All terms of ``goal`` type with exactly ``size`` AST nodes."""
        if size <= 0:
            return ()
        key = (goal, context, size)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        result = tuple(self._build(goal, context, size))
        self._cache[key] = result
        return result

    # -- construction ------------------------------------------------------------

    def _build(self, goal: Type, context: Tuple[Tuple[str, Type], ...],
               size: int) -> Iterator[Expr]:
        if size == 1:
            for name, ty in context:
                if ty == goal:
                    yield EVar(name)
            for component in self.components:
                if not component.argument_types and component.result_type == goal:
                    yield EVar(component.name)
            if isinstance(goal, TData) and goal.name in self.types.datatypes:
                for ctor in self.types.datatype_ctors(goal.name):
                    if ctor.payload is None:
                        yield ECtor(ctor.name)
            return

        # Constructor applications.
        if isinstance(goal, TData) and goal.name in self.types.datatypes:
            for ctor in self.types.datatype_ctors(goal.name):
                if ctor.payload is not None:
                    for payload in self.terms_of_size(ctor.payload, context, size - 1):
                        yield ECtor(ctor.name, payload)

        # Tuples.
        if isinstance(goal, TProd):
            for items in self._tuples(goal.items, context, size - 1):
                yield ETuple(items)

        # Full applications of components and of functional context variables.
        for head_name, arg_types, restrictions in self._heads(context):
            if not arg_types:
                continue
            head_result = self._result_after(head_name, context, arg_types)
            if head_result != goal:
                continue
            arity = len(arg_types)
            budget = size - arity - 1
            if budget < arity:
                continue
            for arg_sizes in ordered_partitions(budget, arity):
                yield from self._applications(head_name, arg_types, restrictions,
                                              arg_sizes, context)

    def _heads(self, context: Tuple[Tuple[str, Type], ...]):
        for component in self.components:
            if component.argument_types:
                yield component.name, component.argument_types, component.argument_restrictions
        for name, ty in context:
            if isinstance(ty, TArrow):
                yield name, tuple(arrow_args(ty)), ()

    def _result_after(self, head_name: str, context: Tuple[Tuple[str, Type], ...],
                      arg_types: Tuple[Type, ...]) -> Type:
        for component in self.components:
            if component.name == head_name and component.argument_types == arg_types:
                return component.result_type
        for name, ty in context:
            if name == head_name and isinstance(ty, TArrow):
                return arrow_result(ty)
        raise KeyError(head_name)

    def _applications(self, head: str, arg_types: Tuple[Type, ...],
                      restrictions: Tuple[Optional[frozenset], ...],
                      arg_sizes: Tuple[int, ...],
                      context: Tuple[Tuple[str, Type], ...]) -> Iterator[Expr]:
        pools: List[Tuple[Expr, ...]] = []
        for index, (arg_type, arg_size) in enumerate(zip(arg_types, arg_sizes)):
            restriction = restrictions[index] if index < len(restrictions) else None
            if restriction is not None:
                if arg_size != 1:
                    return
                pool = tuple(
                    EVar(name) for name, ty in context
                    if name in restriction and ty == arg_type
                )
            else:
                pool = self.terms_of_size(arg_type, context, arg_size)
            if not pool:
                return
            pools.append(pool)
        yield from (app(EVar(head), *combo) for combo in _product(pools))

    def _tuples(self, item_types: Tuple[Type, ...],
                context: Tuple[Tuple[str, Type], ...], budget: int) -> Iterator[Tuple[Expr, ...]]:
        if not item_types:
            if budget == 0:
                yield ()
            return
        head, rest = item_types[0], item_types[1:]
        for head_size in range(1, budget - len(rest) + 1):
            head_terms = self.terms_of_size(head, context, head_size)
            if not head_terms:
                continue
            for tail in self._tuples(rest, context, budget - head_size):
                for head_term in head_terms:
                    yield (head_term,) + tail


def ordered_partitions(total: int, parts: int) -> Iterator[Tuple[int, ...]]:
    """All ways to write ``total`` as an ordered sum of ``parts`` positive ints."""
    if parts == 1:
        if total >= 1:
            yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in ordered_partitions(total - first, parts - 1):
            yield (first,) + rest


def _product(pools: Sequence[Tuple[Expr, ...]]) -> Iterator[Tuple[Expr, ...]]:
    if not pools:
        yield ()
        return
    head, rest = pools[0], pools[1:]
    for tail in _product(rest):
        for item in head:
            yield (item,) + tail
