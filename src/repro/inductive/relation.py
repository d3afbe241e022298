"""Conditional inductiveness: the logical relation of Figure 3, operationally.

The paper defines ``v : tau |>_P^Q`` as a type-indexed relation; checking a
module value ``v_m : tau_m`` against it amounts to checking, for every
operation of the module, that whenever argument values of abstract type
satisfy ``P`` (and functional arguments respect the swapped relation), every
abstract value the operation produces satisfies ``Q``.  A failed check yields
a counterexample witness ``<S, V>`` where

* ``S`` collects the abstract values that were supplied to the module
  (operation arguments at abstract positions plus values returned by
  client-supplied functions across higher-order boundaries), and
* ``V`` collects the abstract values produced by the module that falsify
  ``Q`` (operation results at abstract positions plus values passed *into*
  client-supplied functions).

Both of the algorithm's checks are instances:

* *visible inductiveness* (``ClosedPositives``): ``P`` = membership in the
  known-constructible set V+, ``Q`` = the candidate invariant;
* *full inductiveness* (``NoNegatives``): ``P`` = ``Q`` = the candidate
  invariant.

Because the implementation verifies by bounded enumerative testing
(Section 4.3), the check enumerates argument tuples rather than deciding the
relation exactly; this mirrors the original tool's unsound verifier.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Tuple

from ..contracts.firstorder import collect_abstract
from ..contracts.higherorder import ContractLog, wrap_function
from ..core.config import Deadline, VerifierBounds
from ..core.module import ModuleInstance, Operation
from ..core.stats import InferenceStats
from ..enumeration.functions import FunctionEnumerator
from ..enumeration.ordering import diagonal_product
from ..enumeration.values import ValueEnumerator
from ..lang.errors import LangError
from ..lang.types import TAbstract, TArrow, Type, mentions_abstract
from ..lang.values import Value, value_order
from ..obs.events import NULL_EMITTER
from ..verify.result import VALID, CheckResult, InductivenessCounterexample

__all__ = ["ConditionalInductivenessChecker"]

PredicateFn = Callable[[Value], bool]
#: What one operation application supplied, produced and received back
#: across higher-order boundaries (see :meth:`_apply_operation`).
Application = Tuple[Tuple[Value, ...], Tuple[Value, ...], Tuple[Value, ...]]


class ConditionalInductivenessChecker:
    """Checks ``v_m : tau_m |>_P^Q`` by bounded enumeration and produces
    counterexample witnesses on failure."""

    def __init__(self, instance: ModuleInstance,
                 enumerator: Optional[ValueEnumerator] = None,
                 function_enumerator: Optional[FunctionEnumerator] = None,
                 bounds: VerifierBounds = VerifierBounds(),
                 stats: Optional[InferenceStats] = None,
                 deadline: Optional[Deadline] = None,
                 emitter: object = NULL_EMITTER):
        self.instance = instance
        self.enumerator = enumerator or ValueEnumerator(instance.program.types)
        self.function_enumerator = function_enumerator or FunctionEnumerator(instance)
        self.bounds = bounds
        self.stats = stats or InferenceStats()
        self.deadline = deadline or Deadline(None)
        self.emitter = emitter

    # -- public API -------------------------------------------------------------

    def check(self, p: PredicateFn, q: PredicateFn,
              p_pool: Optional[Iterable[Value]] = None,
              operations: Optional[Tuple[Operation, ...]] = None) -> CheckResult:
        """Check conditional inductiveness of the module with respect to
        properties ``P`` and ``Q``.

        ``p_pool`` optionally supplies the exact collection of abstract values
        assumed to satisfy ``P`` (the visible-inductiveness case passes V+);
        when omitted, the checker enumerates concrete values and filters them
        through ``p`` (the full-inductiveness case).

        ``operations`` optionally restricts the check to a subsequence of the
        module's operations, in their interface order.  Nothing in the
        package passes it; ``perfbench/layers.py`` forwards it positionally.
        """
        emitter = self.emitter
        if not emitter.enabled:
            with self.stats.verification():
                return self._check(p, q, p_pool, operations)
        with emitter.span("inductiveness-check",
                          {"mode": "visible" if p_pool is not None else "full"}):
            with self.stats.verification():
                return self._check(p, q, p_pool, operations)

    def _check(self, p: PredicateFn, q: PredicateFn,
               p_pool: Optional[Iterable[Value]],
               operations: Optional[Tuple[Operation, ...]] = None) -> CheckResult:
        pool = self._abstract_pool(p, p_pool)
        if operations is None:
            operations = self.instance.operations
        for operation in operations:
            result = self._check_operation(operation, pool, p, q)
            if not isinstance(result, type(VALID)):
                return result
        return VALID

    # -- pools ---------------------------------------------------------------------

    def _abstract_pool(self, p: PredicateFn, p_pool: Optional[Iterable[Value]]) -> List[Value]:
        if p_pool is not None:
            pool = sorted(p_pool, key=value_order)
            return pool[: self.bounds.max_abstract_values]
        pool = []
        # Inductiveness checks instantiate several argument positions at
        # once, so the pool uses the multi-quantifier bounds pair (the seed
        # mixed max_nodes_multi with max_structures_single).
        for value in self.enumerator.enumerate(
            self.instance.concrete_type,
            max_size=self.bounds.max_nodes_multi,
            max_count=self.bounds.max_structures_multi,
        ):
            if p(value):
                pool.append(value)
                if len(pool) >= self.bounds.max_abstract_values:
                    break
        return pool

    def _argument_pool(self, interface_type: Type, abstract_pool: List[Value]) -> Tuple[List[object], bool]:
        """The candidate values for one argument position.

        Returns the pool and a flag indicating whether the position is a
        higher-order position that mentions the abstract type (and therefore
        needs contract instrumentation).
        """
        if isinstance(interface_type, TAbstract):
            return list(abstract_pool), False
        if isinstance(interface_type, TArrow):
            functions = self.function_enumerator.functions(
                interface_type, self.bounds.max_function_values
            )
            return list(functions), mentions_abstract(interface_type)
        if mentions_abstract(interface_type):
            raise NotImplementedError(
                "argument positions mixing abstract and concrete components "
                f"are not supported: {interface_type}"
            )
        concrete = interface_type
        return list(
            self.enumerator.enumerate(
                concrete,
                max_size=self.bounds.max_nodes_multi,
                max_count=self.bounds.max_base_values,
            )
        ), False

    # -- per-operation check ----------------------------------------------------------

    def _check_operation(self, operation: Operation, abstract_pool: List[Value],
                         p: PredicateFn, q: PredicateFn) -> CheckResult:
        argument_types = operation.argument_types
        result_type = operation.result_type

        # Operations that cannot produce abstract values can never violate Q
        # (rule I-B / I-Fun with a base-type result); they are checked only
        # through the specification, not through inductiveness.
        if not operation.produces_abstract and not any(
            isinstance(t, TArrow) and mentions_abstract(t) for t in argument_types
        ):
            return VALID

        pools: List[List[object]] = []
        wrapped_positions: List[bool] = []
        for interface_type in argument_types:
            pool, needs_contract = self._argument_pool(interface_type, abstract_pool)
            if not pool:
                return VALID  # nothing to test (e.g. V+ is still empty)
            pools.append(pool)
            wrapped_positions.append(needs_contract)

        operation_value = self.instance.operation_value(operation)
        applications = 0

        if not argument_types:
            # A constant of abstract type, e.g. ``empty``.
            produced = collect_abstract(operation_value, result_type)
            violations = tuple(v for v in produced if not q(v))
            if violations:
                return InductivenessCounterexample(operation.name, (), violations)
            return VALID

        # Section 4.3 counts data structures processed; function positions
        # supply enumerated closures, not structures.
        structures_per_assignment = sum(
            1 for t in argument_types if not isinstance(t, TArrow))

        for assignment in diagonal_product(pools, self.bounds.max_applications_per_operation):
            applications += 1
            if applications % 128 == 0:
                self.deadline.check()

            outcome = self._apply_operation(
                operation_value, assignment, argument_types, wrapped_positions, result_type)
            self.stats.structures_tested += structures_per_assignment
            if outcome is None:
                # A crashing application of an enumerated (possibly nonsensical)
                # functional argument is not evidence about the invariant.
                continue
            supplied, produced, client_to_module = outcome

            # Client-to-module crossings are assumed to satisfy P; runs where
            # the assumption fails are not counterexamples (the functional
            # argument fell outside the relation).
            if any(not p(v) for v in client_to_module):
                continue

            violations = tuple(v for v in produced if not q(v))
            if violations:
                witness_inputs = supplied + client_to_module
                return InductivenessCounterexample(operation.name, witness_inputs, violations)

        return VALID

    def _apply_operation(self, operation_value: Value, assignment: Tuple[object, ...],
                         argument_types: Tuple[Type, ...],
                         wrapped_positions: List[bool],
                         result_type: Type) -> Optional[Application]:
        """Run one operation application.

        Returns the abstract values it was ``supplied`` (argument positions),
        the abstract values it ``produced`` (its result plus module-to-client
        contract crossings) and the abstract values client-supplied functions
        returned into the module, or ``None`` if the application crashed."""
        log = ContractLog()
        call_args: List[Value] = []
        supplied: List[Value] = []
        for value, interface_type, needs_contract in zip(
            assignment, argument_types, wrapped_positions
        ):
            supplied.extend(collect_abstract(value, interface_type))
            if needs_contract:
                value = wrap_function(value, interface_type, self.instance.program, log)
            call_args.append(value)

        try:
            result = self.instance.program.apply(operation_value, *call_args)
        except LangError:
            return None

        produced = tuple(collect_abstract(result, result_type)) + tuple(log.module_to_client)
        return tuple(supplied), produced, tuple(log.client_to_module)
