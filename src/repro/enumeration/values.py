"""Size-ordered enumeration of first-order values of the object language.

The enumerative verifier of Section 4.3 tests predicates "on data structures,
from smallest to largest"; this module provides that stream.  Values are
enumerated in order of *size* (number of constructor / tuple nodes, the same
metric as :func:`repro.lang.values.value_size`), and within one size in a
deterministic constructor-declaration order, so runs are reproducible.

The enumerator memoizes the list of values of each (type, size) pair, so
repeated verification calls over the same program share the work.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

from ..lang.typecheck import TypeEnvironment
from ..lang.types import TArrow, TData, TProd, Type
from ..lang.values import Value, VCtor, VTuple

__all__ = ["ValueEnumerator"]

#: Sentinel distinguishing "not computed yet" from a computed ``None`` bound.
_UNCOMPUTED = object()


class ValueEnumerator:
    """Enumerates values of data types and products in size order."""

    def __init__(self, types: TypeEnvironment):
        self.types = types
        self._cache: Dict[Tuple[Type, int], Tuple[Value, ...]] = {}
        self._size_bounds: Dict[Type, Optional[int]] = {}

    # -- public API -----------------------------------------------------------

    def values_of_size(self, ty: Type, size: int) -> Tuple[Value, ...]:
        """All values of ``ty`` with exactly ``size`` nodes."""
        if size <= 0:
            return ()
        key = (ty, size)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        result = tuple(self._build(ty, size))
        self._cache[key] = result
        return result

    def enumerate(self, ty: Type, max_size: Optional[int] = None,
                  max_count: Optional[int] = None) -> Iterator[Value]:
        """Yield values of ``ty`` from smallest to largest.

        Stops when ``max_size`` is exceeded, ``max_count`` values have been
        produced, or the type is proven exhausted (a non-recursive type such
        as ``bool`` has a largest value size; without this check a
        ``max_count``-only enumeration of a finite type would spin on ever
        larger empty size classes forever).  With neither bound the iterator
        is infinite for recursive types.
        """
        bound = self.size_bound(ty)
        if bound is not None and (max_size is None or bound < max_size):
            max_size = bound
        produced = 0
        size = 1
        while True:
            if max_size is not None and size > max_size:
                return
            for value in self.values_of_size(ty, size):
                yield value
                produced += 1
                if max_count is not None and produced >= max_count:
                    return
            size += 1

    def smallest(self, ty: Type, count: int, max_size: int = 64) -> List[Value]:
        """The ``count`` smallest values of ``ty`` (bounded by ``max_size``)."""
        return list(self.enumerate(ty, max_size=max_size, max_count=count))

    def size_bound(self, ty: Type) -> Optional[int]:
        """The largest node count any value of ``ty`` can have.

        ``None`` means sizes are unbounded (the type is recursive); ``0``
        means no value is enumerable at all (arrow types, or products over
        them).  Used by :meth:`enumerate` as a proven-exhausted cutoff.
        """
        cached = self._size_bounds.get(ty, _UNCOMPUTED)
        if cached is not _UNCOMPUTED:
            return cached
        bound = self._compute_size_bound(ty, frozenset())
        self._size_bounds[ty] = bound
        return bound

    def _compute_size_bound(self, ty: Type, visiting: FrozenSet[str]) -> Optional[int]:
        if isinstance(ty, TData):
            if ty.name in visiting:
                # A datatype reachable from itself nests without bound.
                return None
            visiting = visiting | {ty.name}
            best = 0
            for ctor in self.types.datatype_ctors(ty.name):
                if ctor.payload is None:
                    candidate: Optional[int] = 1
                else:
                    payload = self._compute_size_bound(ctor.payload, visiting)
                    if payload == 0:
                        continue  # uninhabited payload: the ctor yields no values
                    candidate = None if payload is None else 1 + payload
                if candidate is None:
                    return None
                best = max(best, candidate)
            return best
        if isinstance(ty, TProd):
            total = 1
            for item in ty.items:
                item_bound = self._compute_size_bound(item, visiting)
                if item_bound == 0:
                    return 0  # one empty component empties the product
                if item_bound is None:
                    total = None
                elif total is not None:
                    total += item_bound
            return total
        # Function values are not enumerated here (see enumeration.functions),
        # so an arrow position has no enumerable values at any size.
        return 0

    # -- construction of one size class -----------------------------------------

    def _build(self, ty: Type, size: int) -> Iterator[Value]:
        if isinstance(ty, TData):
            yield from self._build_data(ty, size)
        elif isinstance(ty, TProd):
            for items in self._build_product(ty.items, size - 1):
                yield VTuple(items)
        elif isinstance(ty, TArrow):
            # Function values are not enumerated here; see enumeration.functions.
            return
        else:
            raise TypeError(f"cannot enumerate values of type {ty!r}")

    def _build_data(self, ty: TData, size: int) -> Iterator[Value]:
        for ctor in self.types.datatype_ctors(ty.name):
            if ctor.payload is None:
                if size == 1:
                    yield VCtor(ctor.name)
            else:
                for payload in self.values_of_size(ctor.payload, size - 1):
                    yield VCtor(ctor.name, payload)

    def _build_product(self, items: Sequence[Type], budget: int) -> Iterator[Tuple[Value, ...]]:
        """All tuples of values of the item types whose sizes sum to ``budget``."""
        if not items:
            if budget == 0:
                yield ()
            return
        head, rest = items[0], items[1:]
        # Each component needs at least one node.
        for head_size in range(1, budget - len(rest) + 1):
            head_values = self.values_of_size(head, head_size)
            if not head_values:
                continue
            for tail in self._build_product(rest, budget - head_size):
                for head_value in head_values:
                    yield (head_value,) + tail
