"""The module / interface / specification model.

Following Section 3.1 of the paper:

* an *interface* ``F = exists alpha. tau_m`` declares an abstract type and the
  signatures of the operations over it (:class:`Operation` carries each
  operation's name and its interface type, written with
  :class:`~repro.lang.types.TAbstract`);
* a *module implementation* ``M = <tau_c, v_m>`` packages a concrete type and
  operation values; here a :class:`ModuleDefinition` carries the module's
  object-language source plus the metadata the inference pipeline needs, and a
  :class:`ModuleInstance` is the definition loaded into a runnable
  :class:`~repro.lang.Program`;
* a *specification* ``phi : forall alpha. tau_m -> alpha -> ... -> bool`` is a
  function in the module's source whose arguments are values of the abstract
  type and of base types; the verifier enumerates all of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Optional, Sequence, Tuple

from ..lang.parser import parse_program
from ..lang.prelude import DEFAULT_SYNTHESIS_COMPONENTS
from ..lang.program import Program
from ..lang.types import (
    TArrow,
    Type,
    arrow_args,
    arrow_result,
    mentions_abstract,
    substitute_abstract,
)
from ..lang.values import Value

__all__ = ["Operation", "ModuleDefinition", "ModuleInstance"]


@dataclass(frozen=True)
class Operation:
    """One operation of a module interface.

    ``signature`` is the interface type written over the abstract type, for
    example ``t -> nat -> t`` for ``insert`` (with ``t`` = :class:`TAbstract`).
    """

    name: str
    signature: Type

    @property
    def argument_types(self) -> Tuple[Type, ...]:
        return tuple(arrow_args(self.signature))

    @property
    def result_type(self) -> Type:
        return arrow_result(self.signature)

    @property
    def produces_abstract(self) -> bool:
        """True when the operation can return values of the abstract type."""
        return mentions_abstract(self.result_type)

    @property
    def consumes_abstract(self) -> bool:
        """True when some argument position mentions the abstract type."""
        return any(mentions_abstract(t) for t in self.argument_types)


@dataclass(frozen=True)
class ModuleDefinition:
    """A benchmark problem: module source, interface, specification, and
    synthesis metadata.

    Attributes
    ----------
    name:
        Benchmark identifier; the suite uses the paper's names, e.g.
        ``/coq/unique-list-::-set``.
    group:
        Benchmark group (``vfa``, ``vfa-extended``, ``coq``, ``other``).
    source:
        Object-language source of the module (loaded on top of the prelude).
    concrete_type:
        The concrete representation type ``tau_c``.
    operations:
        The interface operations (order matters: inductiveness checks walk
        them in order, as the paper's Figure 3 walks the module value).
    spec_name:
        Name of the specification function defined in ``source``.
    spec_signature:
        Argument types of the specification over the abstract type; the
        result type is always ``bool``.
    synthesis_components:
        Names of functions the synthesizer may call inside candidate
        invariants (module operations, prelude helpers, and any starred
        helper functions the paper added to enable Myth).
    helper_functions:
        Names of helper functions added specifically to make synthesis
        feasible (the ``*`` benchmarks of Figure 7).
    expected_invariant:
        Optional object-language source of a known sufficient representation
        invariant, used by the test suite as an oracle and for documentation.
    description:
        Human-readable summary, carried into exported ``.hanoi`` files.
    """

    name: str
    group: str
    source: str
    concrete_type: Type
    operations: Tuple[Operation, ...]
    spec_name: str
    spec_signature: Tuple[Type, ...]
    synthesis_components: Tuple[str, ...] = DEFAULT_SYNTHESIS_COMPONENTS
    helper_functions: Tuple[str, ...] = ()
    expected_invariant: Optional[str] = None
    description: str = ""

    @classmethod
    def parsed(cls, declarations: Sequence[object], **fields) -> "ModuleDefinition":
        """A definition whose ``source`` the caller has already parsed into
        ``declarations``; it keeps that parse instead of making its own."""
        definition = cls(**fields)
        definition.__dict__["declarations"] = tuple(declarations)
        return definition

    @cached_property
    def declarations(self) -> Tuple[object, ...]:
        """The declarations of ``source``, parsed on first use.

        Cached on this instance and not a field, so ``dataclasses.replace``
        gives the new definition no declarations to carry over: it parses
        its own ``source``.
        """
        return tuple(parse_program(self.source))

    @property
    def has_higher_order_operations(self) -> bool:
        """True when some operation takes a functional argument."""
        return any(
            isinstance(t, TArrow) for op in self.operations for t in op.argument_types
        )

    @property
    def has_binary_operations(self) -> bool:
        """True when some operation takes two or more abstract arguments."""
        return any(
            sum(1 for t in op.argument_types if mentions_abstract(t)) >= 2
            for op in self.operations
        )

    @property
    def spec_abstract_arity(self) -> int:
        """How many abstract-type values the specification quantifies over."""
        return sum(1 for t in self.spec_signature if mentions_abstract(t))

    def instantiate(self, fuel: int = 500_000) -> "ModuleInstance":
        """Load the module's declarations into a fresh runnable program."""
        return ModuleInstance(self, Program.from_declarations(self.declarations, fuel=fuel))


class ModuleInstance:
    """A :class:`ModuleDefinition` loaded into a :class:`Program`."""

    def __init__(self, definition: ModuleDefinition, program: Program):
        self.definition = definition
        self.program = program
        self._validate()

    def _validate(self) -> None:
        for op in self.definition.operations:
            if not self.program.has_global(op.name):
                raise ValueError(
                    f"module {self.definition.name!r} does not define operation {op.name!r}"
                )
        if not self.program.has_global(self.definition.spec_name):
            raise ValueError(
                f"module {self.definition.name!r} does not define specification "
                f"{self.definition.spec_name!r}"
            )
        for name in self.definition.synthesis_components:
            if not self.program.has_global(name):
                raise ValueError(
                    f"module {self.definition.name!r}: unknown synthesis component {name!r}"
                )

    # -- convenience accessors ---------------------------------------------------

    @property
    def name(self) -> str:
        return self.definition.name

    @property
    def concrete_type(self) -> Type:
        return self.definition.concrete_type

    @property
    def operations(self) -> Tuple[Operation, ...]:
        return self.definition.operations

    def operation_value(self, op: Operation) -> Value:
        return self.program.global_value(op.name)

    def operation_concrete_signature(self, op: Operation) -> Type:
        """The operation's type with the abstract type replaced by ``tau_c``."""
        return substitute_abstract(op.signature, self.concrete_type)

    def spec_value(self) -> Value:
        return self.program.global_value(self.definition.spec_name)

    def spec_concrete_signature(self) -> Tuple[Type, ...]:
        return tuple(
            substitute_abstract(t, self.concrete_type) for t in self.definition.spec_signature
        )

    def component_types(self) -> Dict[str, Type]:
        """Concrete types of every synthesis component (for the synthesizer)."""
        return {
            name: self.program.global_type(name)
            for name in self.definition.synthesis_components
        }

    def call_spec(self, *args: Value) -> Value:
        return self.program.call(self.definition.spec_name, *args)
