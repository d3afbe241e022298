"""The direct application path agrees with the contract path, application
for application.

An operation with no contract position (no functional argument whose type
mentions the abstract type) is applied directly by
``ConditionalInductivenessChecker._check_first_order``.  ``reference_check``
below keeps the per-application loop every operation used to take: each
assignment goes through ``_apply_operation``, which builds a contract log and
collects the supplied values before the call.  Both must return the same
result (operation, witness inputs and outputs, in order) and charge the same
structures, on every operation of every built-in and example, and of
``SPLIT``: no shipped module has an operation whose result is a product
holding the abstract type.
"""

import glob
import os
from itertools import islice

import pytest

from repro.core.config import FAST_VERIFIER_BOUNDS
from repro.core.predicate import Predicate
from repro.enumeration.ordering import checked_product
from repro.inductive.relation import ConditionalInductivenessChecker
from repro.lang.types import TArrow, mentions_abstract
from repro.lang.values import value_size
from repro.spec.loader import load_module_file, load_module_text
from repro.suite.registry import all_benchmark_names, get_benchmark
from repro.verify.result import VALID, InductivenessCounterexample

EXAMPLES = sorted(glob.glob(os.path.join(os.path.dirname(__file__), "..", "..", "examples",
                                         "modules", "*.hanoi")))

#: Abstract values the visible case supplies as V+.
VISIBLE = 20

#: A unique-list set whose ``split`` returns two sets, the first of which
#: may hold a duplicate.
SPLIT = '''
benchmark "/tests/split-unique-list"

abstract type t = list

operation empty : t
operation insert : t -> nat -> t
operation split : t -> nat -> t * t

spec spec : t -> nat -> bool

components lookup

type list = Nil | Cons of nat * list

let empty : list = Nil

let rec lookup (l : list) (x : nat) : bool =
  match l with
  | Nil -> False
  | Cons (hd, tl) -> orb (nat_eq hd x) (lookup tl x)

let insert (l : list) (x : nat) : list =
  if lookup l x then l else Cons (x, l)

let split (l : list) (x : nat) : list * list =
  (Cons (x, l), l)

let spec (s : list) (i : nat) : bool =
  andb (notb (lookup empty i)) (lookup (insert s i) i)

expected invariant
let rec expected (l : list) : bool =
  match l with
  | Nil -> True
  | Cons (hd, tl) -> andb (notb (lookup tl hd)) (expected tl)
'''


def reference_check(checker, operation, abstract_pool, p, q):
    """The per-application loop of the contract path, for every operation."""
    argument_types = operation.argument_types
    result_type = operation.result_type
    if not operation.produces_abstract and not any(
        isinstance(t, TArrow) and mentions_abstract(t) for t in argument_types
    ):
        return VALID
    pools, wrapped_positions = [], []
    for interface_type in argument_types:
        pool, needs_contract = checker._argument_pool(interface_type, abstract_pool)
        if not pool:
            return VALID
        pools.append(pool)
        wrapped_positions.append(needs_contract)
    operation_value = checker.instance.operation_value(operation)
    assert argument_types, "constants take no per-application loop"
    structures = sum(1 for t in argument_types if not isinstance(t, TArrow))
    for assignment in checked_product(pools, checker.bounds.max_applications_per_operation,
                                      checker.deadline, checker.stats, structures):
        outcome = checker._apply_operation(
            operation_value, assignment, argument_types, wrapped_positions, result_type)
        if outcome is None:
            continue
        supplied, produced, client_to_module = outcome
        if any(not p(v) for v in client_to_module):
            continue
        violations = tuple(v for v in produced if not q(v))
        if violations:
            return InductivenessCounterexample(operation.name, supplied + client_to_module,
                                               violations)
    return VALID


def _definition(name):
    if name == "split":
        return load_module_text(SPLIT)
    return load_module_file(name) if name.endswith(".hanoi") else get_benchmark(name)


def _small(value):
    """A ``Q`` that large results fail, so counterexamples come mid-stream."""
    return value_size(value) <= 6


def _cases(instance, expected):
    """(label, p, q, p_pool) for the three compared checks."""
    probe = ConditionalInductivenessChecker(instance, bounds=FAST_VERIFIER_BOUNDS)
    accepted = list(islice(probe._abstract_pool(expected, None), VISIBLE))
    return [
        ("full", expected, expected, None),
        ("small-q", expected, _small, None),
        ("visible", accepted.__contains__, expected, accepted),
    ]


@pytest.mark.parametrize("name", all_benchmark_names() + EXAMPLES + ["split"],
                         ids=all_benchmark_names() + [os.path.basename(p) for p in EXAMPLES]
                         + ["split"])
def test_direct_path_matches_the_reference_loop(name):
    definition = _definition(name)
    instance = definition.instantiate()
    expected = Predicate.from_source(definition.expected_invariant, instance.program)
    counterexamples = 0
    for label, p, q, p_pool in _cases(instance, expected):
        for operation in instance.operations:
            if not operation.argument_types:
                continue
            outcomes = []
            for check in (lambda c, pool: c._check_operation(operation, pool, p, q),
                          lambda c, pool: reference_check(c, operation, pool, p, q)):
                checker = ConditionalInductivenessChecker(instance, bounds=FAST_VERIFIER_BOUNDS)
                pool = checker._abstract_pool(p, p_pool)
                outcomes.append((check(checker, pool), checker.stats.structures_tested))
            assert outcomes[0] == outcomes[1], (label, operation.name)
            counterexamples += isinstance(outcomes[0][0], InductivenessCounterexample)
    # The size-bounded Q makes the comparison see witnesses.
    assert counterexamples
