"""The contract path of the inductiveness checker (Section 4.2).

No shipped built-in or example has an operation with a functional argument
over the abstract type, so none of them reaches the contract path.  The
module below adds one to a unique-list set: ``padded f s`` hands
``f`` the list ``0 :: 0 :: s``, a value of the abstract type that crosses
from the module to the client and breaks the no-duplicates invariant.
"""

from repro.core.config import FAST_VERIFIER_BOUNDS
from repro.core.predicate import Predicate
from repro.inductive.relation import ConditionalInductivenessChecker
from repro.lang.values import nat_of_int, v_list
from repro.spec.loader import load_module_text
from repro.verify.result import InductivenessCounterexample

TEXT = '''
benchmark "/tests/padded-unique-list"

abstract type t = list

operation empty : t
operation insert : t -> nat -> t
operation padded : (t -> t) -> t -> t

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

let padded (f : list -> list) (s : list) : list =
  f (Cons (O, Cons (O, s)))

let spec (s : list) (i : nat) : bool =
  andb (notb (lookup empty i)) (lookup (insert s i) i)

expected invariant
let rec expected (l : list) : bool =
  match l with
  | Nil -> True
  | Cons (hd, tl) -> andb (notb (lookup tl hd)) (expected tl)
'''


def test_a_module_to_client_crossing_is_a_counterexample():
    definition = load_module_text(TEXT)
    instance = definition.instantiate()
    nodup = Predicate.from_source(definition.expected_invariant, instance.program)
    checker = ConditionalInductivenessChecker(instance, bounds=FAST_VERIFIER_BOUNDS)
    result = checker.check(nodup, nodup)
    assert isinstance(result, InductivenessCounterexample)
    assert result.operation == "padded"
    # The output is the value handed to the client function; the inputs are
    # the supplied set and the empty set the client function returned.
    assert result.outputs == (v_list([nat_of_int(0), nat_of_int(0)]),)
    assert result.inputs == (v_list([]), v_list([]))
