"""The fold-capable prototype synthesizer (Section 5.4).

The paper reports a prototype synthesizer that, unlike Myth, "can synthesize
folds, letting our synthesizer generate functions that require accumulators",
which allows it to find the binary-heap invariant for ``/vfa/tree-::-priqueue``
without the ``true_maximum`` helper the starred benchmarks otherwise need.

Our reproduction follows the same idea with an explicit construction: for
every recursive data type reachable from the concrete type, the synthesizer
derives catamorphism-style aggregate functions (the maximum, minimum, and
count of the natural-number labels stored in a value) and exposes them to the
term search as additional components.  The derived functions are installed
into the module program under reserved ``fold_*`` names so that synthesized
invariants that mention them remain executable and printable.  This is a
substitution that keeps the prototype's behaviour (docs/modes.md, the
``hanoi-fold`` mode): both the original prototype and this one extend the
hypothesis space with accumulator-computed aggregates of the data structure.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..core.config import Deadline
from ..core.module import ModuleInstance
from ..core.stats import InferenceStats
from ..lang.types import TData, TProd, Type, arrow
from ..lang.values import Value, VCtor, VNative, VTuple, int_of_nat, nat_of_int
from ..obs.events import NULL_EMITTER
from .myth import MythSynthesizer

__all__ = ["FoldSynthesizer"]


def _nat_leaves(value: Value, ty: Type, types) -> Tuple[int, ...]:
    """All natural-number leaves of ``value`` (walked along its type)."""
    if isinstance(ty, TData) and ty.name == "nat":
        return (int_of_nat(value),)
    leaves: Tuple[int, ...] = ()
    if isinstance(ty, TData) and isinstance(value, VCtor) and ty.name in types.datatypes:
        info = types.ctors.get(value.ctor)
        if info is not None and info.payload is not None and value.payload is not None:
            leaves += _nat_leaves(value.payload, info.payload, types)
    elif isinstance(ty, TProd) and isinstance(value, VTuple):
        for item, item_type in zip(value.items, ty.items):
            leaves += _nat_leaves(item, item_type, types)
    return leaves


class FoldSynthesizer(MythSynthesizer):
    """A :class:`MythSynthesizer` extended with derived fold components."""

    def __init__(self, instance: ModuleInstance,
                 stats: Optional[InferenceStats] = None,
                 deadline: Optional[Deadline] = None,
                 extra_components: Optional[Dict[str, Tuple[Type, Value]]] = None,
                 pool_cache=None, emitter: object = NULL_EMITTER):
        extras = dict(extra_components or {})
        extras.update(self._derived_folds(instance))
        super().__init__(instance, stats=stats, deadline=deadline,
                         extra_components=extras, pool_cache=pool_cache,
                         emitter=emitter)

    @staticmethod
    def _derived_folds(instance: ModuleInstance) -> Dict[str, Tuple[Type, Value]]:
        """Build ``fold_max`` / ``fold_min`` / ``fold_count`` over the concrete type."""
        concrete = instance.concrete_type
        types = instance.program.types
        nat = TData("nat")

        def aggregate(reducer, default: int):
            def run(value: Value) -> Value:
                leaves = _nat_leaves(value, concrete, types)
                return nat_of_int(reducer(leaves) if leaves else default)
            return run

        derived = {
            "fold_max": (arrow(concrete, nat), VNative(aggregate(max, 0), name="fold_max")),
            "fold_min": (arrow(concrete, nat), VNative(aggregate(min, 0), name="fold_min")),
            "fold_count": (arrow(concrete, nat), VNative(aggregate(len, 0), name="fold_count")),
        }
        # Install into the program so synthesized invariants mentioning the
        # derived functions can be evaluated and rendered later.
        for name, (_, fn) in derived.items():
            instance.program.evaluator.globals.setdefault(name, fn)
        return derived
