"""Types of the object language.

The paper's type grammar (Section 3.1)::

    (0-types) sigma ::= beta | alpha | (sigma * sigma)
    (1-types) tau   ::= sigma | sigma -> tau | (tau * tau)

In the implementation (Section 4.1) the base types are user-declared recursive
algebraic data types (booleans, Peano naturals, lists, trees, ...), so our
representation is:

* :class:`TData` - a named algebraic data type declared with ``type``;
* :class:`TAbstract` - the single designated abstract type ``alpha`` used in
  module interfaces and specifications;
* :class:`TProd` - n-ary products;
* :class:`TArrow` - function types.

Interface signatures (``tau_m``) mention :class:`TAbstract`; module code and
values never do - they use the concrete type.  :func:`substitute_abstract`
performs the substitution ``tau[alpha -> tau_c]`` from the paper.

Types are hash-consed the way constructor and tuple values are (see
:mod:`repro.lang.values`): building a type looks its class and fields up in a
process-wide intern table and returns the one object equal to it.  Equality
is therefore the identity test and the hash is ``object``'s, both C slots, so
the pool buckets, seen-vectors, memo keys and checker tables that key on
types never run Python code to probe.  The table is a plain dict: types come
from program text and are few.  The look-up and the store are not one atomic
step, so types must be built on one thread (the parallel runner uses
processes).  Pickling and ``copy.deepcopy`` go through the constructor and
return the interned object.  The dataclass ``repr`` is kept, because the
disk-store keys and ``repro lint --hash`` read it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Tuple

__all__ = [
    "Type",
    "TData",
    "TAbstract",
    "TProd",
    "TArrow",
    "substitute_abstract",
    "mentions_abstract",
    "arrow_args",
    "arrow_result",
    "prod",
    "arrow",
]


#: ``(class, fields...)`` -> the one type with those fields.
_types: Dict[tuple, "Type"] = {}
_set_field = object.__setattr__
_new_object = object.__new__


class Type:
    """Base class of all object-language types.  Instances are immutable and
    hash-consed: a subclass is a frozen dataclass whose fields its
    constructor takes positionally, and equal types are one object, so
    equality and hash are ``object``'s."""

    def __new__(cls, *fields) -> "Type":
        key = (cls, *fields)
        ty = _types.get(key)
        if ty is None:
            names = cls.__dataclass_fields__
            if len(fields) != len(names):
                raise TypeError(f"{cls.__name__} takes {len(names)} field(s), "
                                f"got {len(fields)}")
            ty = _new_object(cls)
            for name, value in zip(names, fields):
                _set_field(ty, name, value)
            _types[key] = ty
        return ty

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__dataclass_fields__)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return str(self)


@dataclass(frozen=True, init=False, eq=False)
class TData(Type):
    """A named, user-declared algebraic data type (``nat``, ``bool``, ``list``...)."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, init=False, eq=False)
class TAbstract(Type):
    """The designated abstract type ``alpha`` of a module interface."""

    def __str__(self) -> str:
        return "'t"


@dataclass(frozen=True, init=False, eq=False)
class TProd(Type):
    """An n-ary product type ``t1 * t2 * ... * tn`` (n >= 2)."""

    items: Tuple[Type, ...]

    def __new__(cls, items: Tuple[Type, ...]) -> "TProd":
        if len(items) < 2:
            raise ValueError("TProd requires at least two components")
        return super().__new__(cls, items)

    def __str__(self) -> str:
        return "(" + " * ".join(str(t) for t in self.items) + ")"


@dataclass(frozen=True, init=False, eq=False)
class TArrow(Type):
    """A function type ``arg -> result``."""

    arg: Type
    result: Type

    def __str__(self) -> str:
        return f"({self.arg} -> {self.result})"


def prod(*items: Type) -> Type:
    """Build a product type; with a single component, return it unchanged."""
    if len(items) == 1:
        return items[0]
    return TProd(tuple(items))


def arrow(*types: Type) -> Type:
    """Build a right-nested curried arrow ``t1 -> t2 -> ... -> tn``."""
    if not types:
        raise ValueError("arrow requires at least one type")
    result = types[-1]
    for t in reversed(types[:-1]):
        result = TArrow(t, result)
    return result


def substitute_abstract(ty: Type, concrete: Type) -> Type:
    """Return ``ty`` with every occurrence of the abstract type replaced.

    This is the paper's ``tau[alpha -> tau_c]`` substitution.
    """
    if isinstance(ty, TAbstract):
        return concrete
    if isinstance(ty, TData):
        return ty
    if isinstance(ty, TProd):
        return TProd(tuple(substitute_abstract(t, concrete) for t in ty.items))
    if isinstance(ty, TArrow):
        return TArrow(
            substitute_abstract(ty.arg, concrete),
            substitute_abstract(ty.result, concrete),
        )
    raise TypeError(f"unknown type node: {ty!r}")


def mentions_abstract(ty: Type) -> bool:
    """True when ``ty`` contains an occurrence of the abstract type."""
    if isinstance(ty, TAbstract):
        return True
    if isinstance(ty, TData):
        return False
    if isinstance(ty, TProd):
        return any(mentions_abstract(t) for t in ty.items)
    if isinstance(ty, TArrow):
        return mentions_abstract(ty.arg) or mentions_abstract(ty.result)
    raise TypeError(f"unknown type node: {ty!r}")


def arrow_args(ty: Type) -> Iterator[Type]:
    """Yield the argument types of a curried arrow type, in order."""
    while isinstance(ty, TArrow):
        yield ty.arg
        ty = ty.result


def arrow_result(ty: Type) -> Type:
    """Return the final result type of a curried arrow type."""
    while isinstance(ty, TArrow):
        ty = ty.result
    return ty
