"""Memoized applications of first-order top-level functions.

While a memo table is open (``runner.run_module`` opens one per run), the
evaluator answers a repeated application of a marked function from the table
and replays the fuel the call spent.  The table must be invisible: every
result, every fuel count and every point where fuel runs out is the one an
evaluation without it gives.
"""

import sys

import pytest

from test_eval_depth import _TooDeepToHash
from test_fuel_parity import CASES, SOURCE

from repro.core.config import FAST_VERIFIER_BOUNDS
from repro.core.predicate import Predicate, always_true
from repro.experiments import runner
from repro.gen.diff import outcome_fingerprint
from repro.inductive.relation import ConditionalInductivenessChecker
from repro.lang import eval as evaluation
from repro.lang.errors import EvalDepthExceeded, FuelExhausted
from repro.lang.eval import EvalBudget, memo_table
from repro.lang.program import Program
from repro.lang.values import VClosure, VCtor, int_of_nat, nat_of_int, v_list
from repro.suite.registry import all_benchmark_names, get_benchmark
from repro.verify.tester import Verifier

MARKING_SOURCE = """
type fbox = Box of (nat -> nat)
type fpair = FPair of nat * fbox
type plist = PNil | PCons of (nat * nat) * plist

let apply_box (b : fbox) (x : nat) : nat =
  match b with
  | Box f -> f x

let boxed (x : nat) : fbox = Box (fun (y : nat) -> plus x y)

let pair_first (p : fpair) : nat =
  match p with
  | FPair (n, b) -> n

let rec psum (l : plist) : nat =
  match l with
  | PNil -> O
  | PCons (p, tl) -> (match p with | (a, b) -> plus a (plus b (psum tl)))

let swap (p : nat * bool) : bool * nat =
  match p with
  | (n, b) -> (b, n)
"""


@pytest.fixture(scope="module")
def program():
    return Program.from_source(SOURCE)


def _spend(program, name, args, fuel):
    """Run a call; the outcome (a value or ``FuelExhausted``) and the
    budget's ``remaining`` afterwards."""
    budget = EvalBudget(fuel)
    try:
        outcome = program.evaluator.apply(program.global_value(name), *args, budget=budget)
    except FuelExhausted:
        outcome = FuelExhausted
    return outcome, budget.remaining


def _code(program, name, args):
    """The code the last of ``args`` is applied to."""
    closure = program.evaluator.apply(program.global_value(name), *args[:-1])
    assert isinstance(closure, VClosure)
    return closure.code


@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
def test_golden_step_counts_hold_in_a_memo_table(program, case):
    _, name, build, expected, steps = case
    with memo_table():
        for _ in range(2):  # the second call is answered from the table
            result, remaining = _spend(program, name, build(program), 10_000)
            if expected is not None:
                assert int_of_nat(result) == expected
            assert 10_000 - remaining == steps


@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
def test_hit_that_does_not_fit_runs_out_where_the_call_would(program, case):
    # Every budget up to the call's cost: a hit whose recorded fuel exceeds
    # what is left must leave ``remaining`` exactly where the call does.
    _, name, build, _, steps = case
    plain = [_spend(program, name, build(program), fuel) for fuel in range(steps + 1)]
    with memo_table():
        _spend(program, name, build(program), 10_000)
        memoized = [_spend(program, name, build(program), fuel) for fuel in range(steps + 1)]
    assert memoized == plain
    assert memoized[-2][0] is FuelExhausted


def test_nested_hit_replays_exact_fuel(program):
    # ``nat_max`` calls ``nat_leq``: an inner hit spends its recorded fuel
    # inside an outer call that is itself run.
    args = (nat_of_int(2), nat_of_int(5))
    with memo_table() as table:
        program.call("nat_leq", *args)
        assert len(table) == 3  # nat_leq 2 5, 1 4, 0 3
        assert _spend(program, "nat_max", args, 10_000) == (nat_of_int(5), 10_000 - 40)


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="deep Python recursion overflows the C stack before 3.11")
def test_depth_limits_are_unchanged_with_a_table_open(program):
    with memo_table():
        assert int_of_nat(program.call("plus", nat_of_int(4000), nat_of_int(2))) == 4002
        with pytest.raises(EvalDepthExceeded):
            program.call("plus", nat_of_int(8000), nat_of_int(1))


def test_first_order_functions_are_marked(program):
    marked = Program.from_source(MARKING_SOURCE)
    assert _code(program, "plus", (nat_of_int(1), nat_of_int(1))).memo
    assert _code(program, "append", (v_list([]), v_list([]))).memo
    assert _code(program, "length", (v_list([]),)).memo
    assert _code(marked, "psum", (VCtor("PNil"),)).memo
    assert _code(marked, "swap", (None,)).memo


def test_functions_that_can_see_function_values_are_never_marked(program):
    marked = Program.from_source(MARKING_SOURCE)
    succ = program.global_value("succ")
    # an arrow-typed parameter
    assert not _code(program, "twice", (succ, nat_of_int(1))).memo
    assert not _code(program, "twice", (succ,)).memo
    # an arrow-typed result
    assert not _code(program, "adder", (v_list([]),)).memo
    # data types that carry functions, directly or inside a product
    box = marked.call("boxed", nat_of_int(1))
    assert not _code(marked, "apply_box", (box, nat_of_int(1))).memo
    assert not _code(marked, "boxed", (nat_of_int(1),)).memo
    assert not _code(marked, "pair_first", (None,)).memo


def test_value_too_deep_to_hash_is_a_miss_and_not_stored(program):
    with memo_table() as table:
        assert program.call("is_zero", VCtor("S", _TooDeepToHash("O"))) == VCtor("False")
        assert program.call("is_zero", VCtor("S", _TooDeepToHash("O"))) == VCtor("False")
        assert not table


def test_rebinding_a_global_empties_the_table():
    program = Program.from_source(
        "let g (x : nat) : nat = S x\nlet f (x : nat) : nat = g x")
    one = nat_of_int(1)
    with memo_table() as table:
        assert program.call("f", one) == nat_of_int(2)
        assert table
        program.extend("let g (x : nat) : nat = O")
        assert not table
        assert program.call("f", one) == nat_of_int(0)


def test_full_table_answers_but_stores_nothing_more(program, monkeypatch):
    monkeypatch.setattr(evaluation, "MEMO_MAX_ENTRIES", 1)
    with memo_table() as table:
        assert _spend(program, "plus", (nat_of_int(3), nat_of_int(4)), 10_000) \
            == (nat_of_int(7), 10_000 - 39)
        assert len(table) == 1
        assert _spend(program, "plus", (nat_of_int(3), nat_of_int(4)), 10_000) \
            == (nat_of_int(7), 10_000 - 39)


def test_table_lives_for_one_run_module_call(monkeypatch):
    seen = []
    hanoi = runner.MODES["hanoi"]

    def spy(definition, config):
        seen.append(evaluation._memo)
        return hanoi(definition, config)

    monkeypatch.setitem(runner.MODES, "hanoi", spy)
    runner.run_module(get_benchmark("/other/sized-list"), config=runner.quick_config(None))
    assert isinstance(seen[0], dict) and seen[0]
    assert evaluation._memo is None

    def crash(definition, config):
        raise RuntimeError("mode failed")

    monkeypatch.setitem(runner.MODES, "hanoi", crash)
    with pytest.raises(RuntimeError):
        runner.run_module(get_benchmark("/other/sized-list"))
    assert evaluation._memo is None


@pytest.mark.parametrize("mode", ["conj-str", "linear-arbitrary", "oneshot"])
def test_baseline_modes_run_over_the_table(mode):
    definition = get_benchmark("/coq/unique-list-::-set")
    config = runner.quick_config(None)
    plain = runner.MODES[mode](definition, config)
    memoized = runner.run_module(definition, mode=mode, config=config)
    assert outcome_fingerprint(memoized) == outcome_fingerprint(plain)


def _verdicts(name):
    """Sufficiency and inductiveness outcomes of two candidates on a fresh
    instance of one built-in, without any verification cache."""
    benchmark = get_benchmark(name)
    instance = benchmark.instantiate()
    candidates = [Predicate.from_source(benchmark.expected_invariant, instance.program),
                  always_true(instance.concrete_type, instance.program)]
    verifier = Verifier(instance, bounds=FAST_VERIFIER_BOUNDS)
    checker = ConditionalInductivenessChecker(instance, bounds=FAST_VERIFIER_BOUNDS)
    return [(verifier.check_sufficiency(p), checker.check(p, p)) for p in candidates]


@pytest.mark.parametrize("name", all_benchmark_names())
def test_builtin_verdicts_are_identical_with_a_table(name):
    plain = _verdicts(name)
    with memo_table() as table:
        memoized = _verdicts(name)
    assert memoized == plain
    assert table
