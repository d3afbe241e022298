"""Runtime values of the object language.

Values are the closed normal forms of the call-by-value semantics:

* :class:`VCtor` - a constructor applied to an optional payload value
  (booleans, Peano naturals, lists, trees, options, ...);
* :class:`VTuple` - a tuple of values;
* :class:`VClosure` - a (possibly recursive) function closure;
* :class:`VNative` - a function implemented in Python.  Native values never
  appear in user programs; they are used by the synthesizer (to interpret a
  recursive call against an example oracle), by the higher-order contract
  machinery (Section 4.2), and by the enumerator of functional arguments.

Constructor and tuple values are hash-consed: equal ones are one object, so
they compare and hash by identity.  The Hanoi loop relies on this to maintain
the example sets V+ and V- as Python sets, and the evaluator's memo table to
key on values of any depth.  Closures compare by identity too.  An identity
hash differs from run to run, and so does the order in which a set of values
iterates; code whose outcome, log, messages or evaluation work could follow
that order sorts the values by :func:`value_order` first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Tuple
from weakref import WeakValueDictionary

from .ast import Expr
from .errors import EvalError
from .types import Type

__all__ = [
    "Value",
    "VCtor",
    "VTuple",
    "VClosure",
    "Code",
    "VNative",
    "value_size",
    "value_order",
    "is_first_order",
    "nat_of_int",
    "int_of_nat",
    "v_bool",
    "bool_of_value",
    "v_list",
    "list_of_value",
]


class Value:
    """Base class for runtime values."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return str(self)


# Constructor and tuple values are the bulk of what the evaluator allocates
# and of what the caches key on.  They are hash-consed (Filliatre & Conchon,
# "Type-Safe Modular Hash-Consing", 2006): construction looks the value up in
# a weak intern table and returns the one live object equal to it, so
# equality is the identity test, never recursive, and the hash is the
# C-level identity hash, which agrees with it.  The table holds its values
# weakly, so it never keeps a value alive.  The look-up and the store are not
# one atomic step, so values must be built on one thread (the parallel runner
# uses processes).  Pickling goes through the constructor, so an unpickled
# value is the interned object.  Neither class can be subclassed: the intern
# key ignores the class.
_set_field = object.__setattr__
_new_object = object.__new__
_ctors: "WeakValueDictionary[tuple, VCtor]" = WeakValueDictionary()
_tuples: "WeakValueDictionary[tuple, VTuple]" = WeakValueDictionary()


@dataclass(frozen=True, init=False, eq=False)
class VCtor(Value):
    """A data constructor value with an optional payload."""

    __slots__ = ("ctor", "payload", "__weakref__")

    ctor: str
    payload: Optional[Value]

    def __new__(cls, ctor: str, payload: Optional[Value] = None) -> "VCtor":
        key = (ctor, payload)
        value = _ctors.get(key)
        if value is None:
            value = _new_object(cls)
            _set_field(value, "ctor", ctor)
            _set_field(value, "payload", payload)
            _ctors[key] = value
        return value

    def __init_subclass__(cls, **kwargs):
        raise TypeError("VCtor cannot be subclassed: its intern table ignores the class")

    __hash__ = object.__hash__

    def __reduce__(self):
        return VCtor, (self.ctor, self.payload)

    def __str__(self) -> str:
        rendered = _render_sugar(self)
        if rendered is not None:
            return rendered
        if self.payload is None:
            return self.ctor
        return f"{self.ctor} ({self.payload})"


@dataclass(frozen=True, init=False, eq=False)
class VTuple(Value):
    """A tuple value."""

    __slots__ = ("items", "__weakref__")

    items: Tuple[Value, ...]

    def __new__(cls, items: Tuple[Value, ...]) -> "VTuple":
        value = _tuples.get(items)
        if value is None:
            value = _new_object(cls)
            _set_field(value, "items", items)
            _tuples[items] = value
        return value

    def __init_subclass__(cls, **kwargs):
        raise TypeError("VTuple cannot be subclassed: its intern table ignores the class")

    __hash__ = object.__hash__

    def __reduce__(self):
        return VTuple, (self.items,)

    def __str__(self) -> str:
        return "(" + ", ".join(str(v) for v in self.items) + ")"


class Code:
    """The compiled form of one function body, shared by every closure over it.

    ``run(env, arg, budget, depth)`` evaluates the body on ``arg``, with
    ``env`` holding the closure's captured values (then the closure itself
    when ``rec`` is set), at nesting ``depth``.  ``memo`` marks the innermost
    body of a first-order top-level function, whose applications an open
    memo table answers.  When the body is itself a ``fun`` (the next
    parameter of a curried chain), ``inner`` is that ``fun``'s code and
    ``gather`` picks the values it captures out of the body's leading values
    (the captured values, the argument, then the closure itself when ``rec``
    is set; ``None`` when it captures all of them, in order), so a saturated
    call can step into ``inner`` without building the closure.  The
    evaluator builds it; see :mod:`repro.lang.eval`.
    """

    __slots__ = ("run", "rec", "memo", "inner", "gather")

    def __init__(self, run: Optional[Callable[[tuple, "Value", object, int], "Value"]],
                 rec: bool, memo: bool = False, inner: Optional["Code"] = None,
                 gather: Optional[Callable[[Sequence["Value"]], tuple]] = None):
        self.run = run
        self.rec = rec
        self.memo = memo
        self.inner = inner
        self.gather = gather


def _uncompiled(env: tuple, arg: "Value", budget: object, depth: int) -> "Value":
    raise EvalError("application of a closure that was never compiled")


#: The code of a closure built by hand rather than by the evaluator.
UNCOMPILED = Code(_uncompiled, False)


@dataclass(frozen=True, eq=False)
class VClosure(Value):
    """A function closure.

    ``env`` holds the values the body captured from its defining scope, in
    the slot order ``code`` expects; ``code`` is compiled once per function
    body (see :meth:`repro.lang.eval.Evaluator.closure`).  ``rec_name`` is the
    name under which the closure refers to itself for recursive definitions;
    it is bound to the closure on every application.
    """

    param: str
    param_type: Optional[Type]
    body: Expr
    env: Tuple[Value, ...] = field(repr=False)
    rec_name: Optional[str] = None
    code: Code = field(default=UNCOMPILED, repr=False)

    def __str__(self) -> str:
        return f"<fun {self.param}>"


@dataclass(frozen=True, eq=False)
class VNative(Value):
    """A function value implemented by a Python callable of one argument."""

    fn: Callable[[Value], Value]
    name: str = "<native>"

    def __str__(self) -> str:
        return f"<native {self.name}>"


# ---------------------------------------------------------------------------
# Measurement and classification
# ---------------------------------------------------------------------------


def value_size(value: Value) -> int:
    """The number of constructor/tuple nodes of a first-order value.

    This is the "AST nodes" size used by the verifier bounds in Section 4.3
    (for example, the Peano natural ``3`` has size 4: ``S (S (S O))``).
    Function values count as a single node.
    """
    if isinstance(value, VCtor):
        return 1 + (value_size(value.payload) if value.payload is not None else 0)
    if isinstance(value, VTuple):
        return 1 + sum(value_size(v) for v in value.items)
    return 1


def value_order(value: Value):
    """A total order on first-order values that is the same in every run.

    Sorting by :func:`value_size` alone leaves equal-size values in whatever
    order the source container iterates - for Python sets of values, an
    order that follows memory addresses, since values hash by identity.
    Everything that orders example values (the synthesizer's oracle, the
    result cache's example logs, the V+ pool of the inductiveness checker,
    the loop log and the counterexample trace) uses this key, so runs are
    reproducible.
    """
    return (value_size(value), str(value))


def is_first_order(value: Value) -> bool:
    """True when the value contains no function values."""
    if isinstance(value, VCtor):
        return value.payload is None or is_first_order(value.payload)
    if isinstance(value, VTuple):
        return all(is_first_order(v) for v in value.items)
    return False


# ---------------------------------------------------------------------------
# Conversions between Python data and prelude values
# ---------------------------------------------------------------------------

TRUE = VCtor("True")
FALSE = VCtor("False")


def v_bool(flag: bool) -> VCtor:
    """The prelude boolean value for a Python bool."""
    return TRUE if flag else FALSE


def bool_of_value(value: Value) -> bool:
    """Interpret a prelude ``bool`` value as a Python bool."""
    if isinstance(value, VCtor):
        if value.ctor == "True":
            return True
        if value.ctor == "False":
            return False
    raise ValueError(f"not a boolean value: {value}")


def nat_of_int(n: int) -> VCtor:
    """The Peano natural ``S (S (... O))`` for a non-negative Python int."""
    if n < 0:
        raise ValueError("naturals cannot be negative")
    value = VCtor("O")
    for _ in range(n):
        value = VCtor("S", value)
    return value


def int_of_nat(value: Value) -> int:
    """The Python int denoted by a Peano natural value."""
    count = 0
    while isinstance(value, VCtor) and value.ctor == "S":
        count += 1
        value = value.payload
    if not (isinstance(value, VCtor) and value.ctor == "O"):
        raise ValueError("not a natural number value")
    return count


def v_list(items, nil: str = "Nil", cons: str = "Cons") -> VCtor:
    """Build a prelude-style list value from an iterable of values."""
    result = VCtor(nil)
    for item in reversed(list(items)):
        result = VCtor(cons, VTuple((item, result)))
    return result


def list_of_value(value: Value, nil: str = "Nil", cons: str = "Cons"):
    """Flatten a prelude-style list value into a Python list of values."""
    items = []
    while isinstance(value, VCtor) and value.ctor == cons:
        payload = value.payload
        if not (isinstance(payload, VTuple) and len(payload.items) == 2):
            raise ValueError("malformed list value")
        items.append(payload.items[0])
        value = payload.items[1]
    if not (isinstance(value, VCtor) and value.ctor == nil):
        raise ValueError("not a list value")
    return items


# ---------------------------------------------------------------------------
# Pretty-printing sugar for common prelude shapes
# ---------------------------------------------------------------------------


def _render_sugar(value: VCtor) -> Optional[str]:
    """Render naturals as digits and lists with bracket notation when possible."""
    if value.ctor in ("O", "S"):
        try:
            return str(int_of_nat(value))
        except ValueError:
            return None
    if value.ctor in ("Nil", "Cons"):
        try:
            items = list_of_value(value)
        except ValueError:
            return None
        return "[" + "; ".join(str(v) for v in items) + "]"
    return None
