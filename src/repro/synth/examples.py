"""Example sets and trace completeness.

The synthesizer receives input/output examples pairing concrete values with
booleans: every value of V+ maps to ``true`` and every value of V- to
``false``.  Myth additionally requires *trace completeness* (Section 4.3):
whenever an example is provided for a recursive data type value, examples
must also be provided for each of its sub-values of the same type.  Following
the paper, missing sub-values are mapped to ``false``; they stay internal to
the synthesizer (if such a value is actually constructible, a later visible
inductiveness check will surface it and move it into V+).

The example oracle doubles as the interpretation of the invariant's recursive
self-call while candidates are being evaluated against the examples, exactly
the way Myth evaluates recursive candidate programs against their
input/output examples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from ..lang.typecheck import TypeEnvironment
from ..lang.types import TData, TProd, Type
from ..lang.values import Value, VCtor, VTuple, value_order, value_size
from .base import SynthesisFailure

__all__ = ["ExampleOracle", "subvalues_at_type"]


def subvalues_at_type(value: Value, value_type: Type, target: Type,
                      types: TypeEnvironment) -> List[Value]:
    """All sub-values of ``value`` (including itself) that have type ``target``.

    The walk is type-directed: constructor payloads are traversed at their
    declared payload types, tuple components at their component types.  This
    is how trace completeness discovers the recursive sub-structures (tails
    of lists, subtrees of trees) that need example entries.
    """
    found: List[Value] = []

    def walk(v: Value, ty: Type) -> None:
        if ty == target:
            found.append(v)
        if isinstance(ty, TData) and isinstance(v, VCtor) and ty.name in types.datatypes:
            info = types.ctors.get(v.ctor)
            if info is not None and info.payload is not None and v.payload is not None:
                walk(v.payload, info.payload)
        elif isinstance(ty, TProd) and isinstance(v, VTuple):
            for item, item_type in zip(v.items, ty.items):
                walk(item, item_type)

    walk(value, value_type)
    return found


@dataclass
class ExampleOracle:
    """A trace-complete map from concrete values to expected booleans."""

    concrete_type: Type
    types: TypeEnvironment
    mapping: Dict[Value, bool]
    positives: Tuple[Value, ...]
    negatives: Tuple[Value, ...]

    @classmethod
    def build(cls, positives: Iterable[Value], negatives: Iterable[Value],
              concrete_type: Type, types: TypeEnvironment) -> "ExampleOracle":
        """Build a trace-complete oracle from the loop's V+ and V- sets."""
        # value_order, not value_size: equal-size values would otherwise fall
        # back to the sets' iteration order, which follows memory addresses,
        # and that order reaches the example environments and the candidate
        # stream.
        positives = tuple(sorted(set(positives), key=value_order))
        negatives = tuple(sorted(set(negatives), key=value_order))
        overlap = set(positives) & set(negatives)
        if overlap:
            raise SynthesisFailure(
                f"positive and negative examples overlap: {sorted(map(str, overlap))}"
            )

        mapping: Dict[Value, bool] = {}
        for value in positives:
            mapping[value] = True
        for value in negatives:
            mapping[value] = False

        # Trace completeness: close under sub-values of the concrete type,
        # defaulting missing entries to false (Section 4.3).
        for value in list(positives) + list(negatives):
            for sub in subvalues_at_type(value, concrete_type, concrete_type, types):
                if sub not in mapping:
                    mapping[sub] = False

        return cls(concrete_type, types, mapping, positives, negatives)

    # -- queries -------------------------------------------------------------

    def __contains__(self, value: Value) -> bool:
        return value in self.mapping

    def expected(self, value: Value) -> bool:
        return self.mapping[value]

    def lookup(self, value: Value) -> Optional[bool]:
        return self.mapping.get(value)

    @property
    def all_values(self) -> List[Value]:
        return sorted(self.mapping, key=value_size)

    def consistent(self, predicate) -> bool:
        """Is a predicate consistent with the original (non-padded) examples?"""
        return all(predicate(v) for v in self.positives) and all(
            not predicate(v) for v in self.negatives
        )
