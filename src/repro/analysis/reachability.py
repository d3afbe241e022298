"""Type-inhabitation reachability: which components can ever matter?

The bottom-up enumerator (:mod:`repro.synth.bottomup`) builds terms from
leaves (context variables, nullary constructors, nullary components) and
grows them exclusively by applying components — plus constructor chains for
the designated constant datatypes (``nat``).  A component whose result type
can never flow into a term of the goal type, or whose argument types can
never be produced, therefore contributes nothing to a goal term.

This pass computes two fixpoints over the *declared signatures* only:

* ``constructible``: the forward closure of the seed types (the synthesis
  context, every datatype with a nullary constructor) under component
  application — an **over**-approximation of the types the pool can build,
  so it never calls a component unusable that the pool could have used;
* ``useful``: the backward closure from the goal type — a component is
  useful when its result feeds the goal (directly or through other useful
  components' arguments) *and* all of its arguments are constructible.

``split_components`` separates the useful components from the rest, order
preserved (:func:`repro.synth.myth.interface_components`); lint's advisory
HAN005 names the rest.  Because both closures over-approximate, the useful
set is a superset of the components that can actually appear in any
well-typed pool term, so deleting an unusable component from a module
leaves the enumerated goal-type term stream unchanged.  The synthesizer
does not act on the split: it builds its pools over every first-order
component the module declares.  The equivalence is checked per built-in
in ``tests/analysis/test_pruning.py``.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Set, Tuple

from ..lang.typecheck import TypeEnvironment
from ..lang.types import TData, TProd, Type

__all__ = ["constructible_types", "split_components"]


def _destructured(seeds: Iterable[Type], env: TypeEnvironment) -> Set[Type]:
    """The downward closure of ``seeds``: everything pattern matching can
    extract (constructor payloads, tuple components), transitively."""
    closure: Set[Type] = set()
    frontier: List[Type] = list(seeds)
    while frontier:
        ty = frontier.pop()
        if ty in closure:
            continue
        closure.add(ty)
        if isinstance(ty, TProd):
            frontier.extend(ty.items)
        elif isinstance(ty, TData) and ty.name in env.datatypes:
            for info in env.datatype_ctors(ty.name):
                if info.payload is not None:
                    frontier.append(info.payload)
    return closure


def constructible_types(seeds: Iterable[Type], env: TypeEnvironment,
                        components: Sequence[object],
                        destructure: bool = False) -> Set[Type]:
    """Types a term pool over ``seeds`` and ``components`` could inhabit.

    ``components`` are objects with ``argument_types`` / ``result_type``
    (:class:`repro.synth.bottomup.TypedComponent` satisfies this).  With
    ``destructure`` the seeds are first closed downward, modelling the
    match-skeleton stage that destructures the concrete type before any
    pool is built.
    """
    constructible: Set[Type] = (
        _destructured(seeds, env) if destructure else set(seeds))
    # Every datatype with a nullary constructor has pool leaves.
    for name, decl in env.datatypes.items():
        if any(ctor.payload is None for ctor in decl.ctors):
            constructible.add(TData(name))
    changed = True
    while changed:
        changed = False
        for component in components:
            result = component.result_type
            if result in constructible:
                continue
            if all(arg in constructible for arg in component.argument_types):
                constructible.add(result)
                changed = True
    return constructible


def split_components(components: Sequence[object], seeds: Iterable[Type],
                     env: TypeEnvironment, goal: Type,
                     destructure: bool = False) -> Tuple[List[object], List[object]]:
    """Partition ``components`` into (useful, useless) for terms of ``goal``."""
    constructible = constructible_types(seeds, env, components,
                                        destructure=destructure)
    needed: Set[Type] = {goal}
    useful: Set[int] = set()
    changed = True
    while changed:
        changed = False
        for index, component in enumerate(components):
            if index in useful:
                continue
            if component.result_type not in needed:
                continue
            if all(arg in constructible for arg in component.argument_types):
                useful.add(index)
                needed.update(component.argument_types)
                changed = True
    kept = [c for i, c in enumerate(components) if i in useful]
    dropped = [c for i, c in enumerate(components) if i not in useful]
    return kept, dropped

