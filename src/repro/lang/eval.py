"""Call-by-value evaluator for the object language, compiled to closures.

Every function body is compiled once, when its closure is built, into nested
Python closures ``run(frame, budget) -> Value`` (closure compilation, Feeley &
Lapalme, "Using closures for code generation", 1987).  Compilation settles
everything that depends only on the syntax:

* which code runs for each node: a node becomes its own closure, so
  evaluation never inspects an expression's class;
* where each variable lives: a parameter, ``let`` or ``match`` binder becomes
  an index into the *frame*, the list of slots one application of the body
  runs in.  Any other name is a global, looked up at run time in
  :attr:`Evaluator.globals`, because some callers (the fold synthesizer) add
  globals after the code that uses them was compiled;
* how each ``match`` decides: its branches are indexed by constructor tag,
  and each pattern becomes tag and tuple-arity tests that write the pattern's
  binders into frame slots.

A ``fun`` expression compiles to one :class:`~repro.lang.values.Code`, shared
by every closure it creates; each closure captures only the values of the
variables its body uses from the enclosing frame.

Fuel bounds the number of evaluation steps so that the Hanoi loop can run
synthesized candidates and enumerated functional arguments without risking
non-termination.  Running out is an observable outcome (a candidate invariant
that runs out of fuel rejects the value), so the compiled code spends fuel
exactly as a direct interpreter does: one unit per expression node evaluated
and one per function application, in the same order relative to every error
and native call.  The nested application nodes of ``f a1 ... an`` fall due
with nothing observable in between, so their units are spent at once, and
running out leaves the budget where spending them one at a time would have.
``tests/lang/test_fuel_parity.py`` pins the step counts.

Native function values (:class:`~repro.lang.values.VNative`) are applied by
calling their Python callable; this is how the synthesizer's example oracle
and the higher-order contract wrappers take part in evaluation.

Applications of first-order top-level functions are memoized while a memo
table is open (:func:`memo_table`; ``runner.run_module`` opens one per run),
after Michie's memo functions (*Nature*, 1968).  The program marks the code of
the innermost body of such a function's curried chain; its parameter and
result types admit no function values, so the key ``(code, captured values,
argument)`` holds only hash-consed values, and equal keys hold the same
objects.  An entry stores the call's value and the fuel its body spent.  A
hit replays that fuel when it fits the remaining budget, and otherwise the
call runs, so fuel runs out exactly where it would without the table; only
calls that return are stored.  The body is pure and deterministic given its
globals: a global added later was unbound when an entry was stored (the
call raised, so nothing was), and rebinding a global empties the table
(:func:`forget_memo`).

A saturated call of a curried closure builds none of its partial
applications (the eval/apply treatment of known-arity calls, Marlow & Peyton
Jones, "Making a fast curry", 2004).  When a body is itself a ``fun``, its
:class:`~repro.lang.values.Code` records that ``fun``'s code as ``inner``; a
call that has another argument for the closure the body would build steps
into ``inner`` directly (:func:`_call`).  Fuel is spent in the curried
order: the application's unit, then the ``fun`` node's unit, then the next
argument is evaluated; running out leaves ``remaining`` where the curried
path would.  The step that finally runs a body goes through the memo table
with the key the curried path would use, ``(code, captured values,
argument)``, where the captured values are gathered from the same slots the
``fun`` node gathers them from, so both paths store and hit the same
entries.  When the ``fun`` captures all of the body's leading slots, in
order, nothing needs gathering: its :class:`~repro.lang.values.Code` has no
``gather`` and the captured values are kept as they are.

Most calls the Hanoi loop runs are ``g a b`` with ``g`` a top-level
function, so such a node compiles to one closure of its own
(:meth:`_Compiler._call_2`).  It spends the units of the two application
nodes and the head at once, looks ``g`` up, and reads a local-variable
argument straight from its frame slot instead of calling the variable's
closure; otherwise it takes the steps of :func:`_call`, in the same order,
with the same fuel, errors and memo keys.  A local read and the units due
right after it are spent at once, as nothing observable lies between them.

Evaluation recurses on the Python stack, so a deep enough input overflows it;
:meth:`Evaluator.eval` and :meth:`Evaluator.apply` report that as
:class:`~repro.lang.errors.EvalDepthExceeded`.  A memo hit skips the
recursion of the call it answers, so a call too deep to run can succeed
from the table.  Hashing or comparing a key never recurses: first-order
values are hash-consed (:mod:`repro.lang.values`), so a key of any depth is
stored and hit.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from .ast import (
    EApp,
    ECtor,
    EFun,
    ELet,
    EMatch,
    EProj,
    ETuple,
    EVar,
    Expr,
    PCtor,
    PTuple,
    PVar,
    PWild,
    Pattern,
    free_vars,
)
from .errors import EvalDepthExceeded, EvalError, FuelExhausted, MatchFailure
from .types import Type
from .values import Code, Value, VClosure, VCtor, VNative, VTuple

__all__ = ["Evaluator", "EvalBudget", "DEFAULT_FUEL", "MEMO_MAX_ENTRIES", "memo_table",
           "forget_memo"]

DEFAULT_FUEL = 500_000

#: The most entries one memo table stores; a full table still answers
#: lookups but stores nothing more, which costs speed, never correctness.
MEMO_MAX_ENTRIES = 200_000

#: ``(code, captured values, argument) -> (value, fuel spent)`` while a
#: :func:`memo_table` block is open, else ``None``.
_memo: Optional[Dict[tuple, Tuple[Value, int]]] = None

# Evaluation recurses on expression and data depth; benchmark values are
# small, but deep Peano naturals in stress tests need head-room.
if sys.getrecursionlimit() < 20_000:
    sys.setrecursionlimit(20_000)

_OUT_OF_FUEL = "evaluation step budget exhausted"
_TOO_DEEP = "evaluation nested too deeply"

#: A compiled expression: evaluates in a frame, spending from a budget.
Run = Callable[[list, "EvalBudget"], Value]
#: A compiled pattern: tests a value and, on success, writes the pattern's
#: binders into the frame.  ``None`` stands for a test that always succeeds
#: and binds nothing.
Test = Optional[Callable[[Value, list], bool]]


@dataclass
class EvalBudget:
    """A mutable step counter shared across nested evaluations."""

    remaining: int = DEFAULT_FUEL

    def spend(self, amount: int = 1) -> None:
        self.remaining -= amount
        if self.remaining < 0:
            raise FuelExhausted(_OUT_OF_FUEL)


@contextmanager
def memo_table() -> Iterator[Dict[tuple, Tuple[Value, int]]]:
    """Memoize applications of marked code until the block ends.

    Yields the table; a block opened inside another shares the outer one.
    The table is dropped when the outermost block ends, so it holds nothing
    alive beyond it.
    """
    global _memo
    outer = _memo
    if outer is None:
        _memo = {}
    try:
        yield _memo
    finally:
        _memo = outer


def forget_memo() -> None:
    """Empty the open memo table: a rebound global may change what stored
    calls would return."""
    if _memo is not None:
        _memo.clear()


def _exhaust(budget: EvalBudget) -> None:
    """Fail a merged spend of several units that does not fit the budget.

    Spending one unit at a time stops at the first unit that takes
    ``remaining`` below zero, so that is where ``remaining`` is left.
    """
    budget.remaining = min(budget.remaining, 0) - 1
    raise FuelExhausted(_OUT_OF_FUEL)


class Evaluator:
    """Evaluates expressions in a global environment of top-level values."""

    def __init__(self, globals_: Optional[Dict[str, Value]] = None, fuel: int = DEFAULT_FUEL):
        self.globals: Dict[str, Value] = globals_ if globals_ is not None else {}
        self.default_fuel = fuel

    # -- public API -----------------------------------------------------------

    def eval(self, expr: Expr, env: Optional[Dict[str, Value]] = None,
             budget: Optional[EvalBudget] = None) -> Value:
        """Evaluate ``expr`` to a value in local environment ``env``.

        The expression is compiled for this one call; a ``fun`` in it
        captures the values ``env`` holds now.
        """
        if budget is None:
            budget = EvalBudget(self.default_fuel)
        env = env or {}
        scope = _Scope.fresh(list(env))
        run = _Compiler(self.globals).expr(expr, scope)
        try:
            return run([*env.values(), *scope.pad()], budget)
        except RecursionError:
            raise EvalDepthExceeded(_TOO_DEEP) from None

    def apply(self, fn: Value, *args: Value, budget: Optional[EvalBudget] = None) -> Value:
        """Apply a function value to arguments, left to right.

        Two or more arguments go through the fused stepping of a call node
        (see :func:`_call`), so a curried closure given all its arguments
        builds none of its partial applications.
        """
        if budget is None:
            budget = EvalBudget(self.default_fuel)
        try:
            if len(args) > 1:
                return _applier(len(args))([fn, *args], budget)
            if args:
                return _apply(fn, args[0], budget)
        except RecursionError:
            raise EvalDepthExceeded(_TOO_DEEP) from None
        return fn

    def closure(self, param: str, param_type: Optional[Type], body: Expr,
                rec_name: Optional[str] = None,
                memo_body: Optional[Expr] = None) -> VClosure:
        """A closure over this evaluator's globals whose body is compiled
        once, when it is first applied.

        ``rec_name``, when given, is bound to the closure itself inside the
        body (it shadows ``param`` if the two coincide).  ``memo_body``, when
        given, is ``body`` or the body of a ``fun`` nested in it: the code
        compiled from it is marked for memoization (see :func:`memo_table`).
        Compiling on first use keeps loading a program (and linting one)
        free of compilation.
        """
        names = [param] if rec_name is None else [param, rec_name]
        code = Code(None, (), rec_name is not None, body is memo_body)
        compiler = _Compiler(self.globals, memo_body)

        def compile_and_run(frame: list, budget: EvalBudget) -> Value:
            scope = _Scope.fresh(names)
            run, code.inner, code.gather = compiler.body(body, scope)
            code.run = run
            code.pad = scope.pad()
            frame.extend(code.pad)
            return run(frame, budget)

        code.run = compile_and_run
        return VClosure(param, param_type, body, (), rec_name, code)


def _apply(fn: Value, arg: Value, budget: EvalBudget) -> Value:
    """One application step: spend its unit, then run the function."""
    remaining = budget.remaining - 1
    budget.remaining = remaining
    if remaining < 0:
        raise FuelExhausted(_OUT_OF_FUEL)
    if fn.__class__ is VClosure:
        code = fn.code
        if code.rec:
            return code.run([*fn.env, arg, fn, *code.pad], budget)
        if code.memo and _memo is not None:
            return _memo_call(code, fn.env, arg, budget, remaining)
        return code.run([*fn.env, arg, *code.pad], budget)
    if fn.__class__ is VNative:
        return fn.fn(arg)
    raise EvalError(f"application of non-function value {fn}")


def _memo_call(code: Code, env: Tuple[Value, ...], arg: Value, budget: EvalBudget,
               remaining: int) -> Value:
    """Apply memo-marked ``code`` over captured ``env`` to ``arg`` while a
    memo table is open; the application's unit is spent, leaving
    ``remaining``."""
    table = _memo
    key = (code, env, arg)
    hit = table.get(key)
    if hit is not None and hit[1] <= remaining:
        budget.remaining = remaining - hit[1]
        return hit[0]
    value = code.run([*env, arg, *code.pad], budget)
    if hit is None and len(table) < MEMO_MAX_ENTRIES:
        table[key] = (value, remaining - budget.remaining)
    return value


def _call(head: Run, arg_runs: Sequence[Run], nodes: int) -> Run:
    """``head`` applied to two or more arguments, after ``nodes`` units.

    The steps are those of applying the head to each argument in turn, but
    a closure whose code has an ``inner`` fun, applied with another argument
    still to come, is stepped into without being built: its application's
    unit and the ``fun`` node's unit are spent, the inner closure's captured
    values are gathered from ``(*env, arg)`` (with the closure itself after
    ``arg`` when its code is recursive; all of it when the code has no
    ``gather``), and the next argument is evaluated,
    in the order applying the closure and then its result would go.  The
    step that runs a body goes through the memo table with the key
    ``(code, captured values, argument)`` that :func:`_apply` would use.
    """
    last = len(arg_runs) - 1
    steps = tuple((arg_run, index < last) for index, arg_run in enumerate(arg_runs))

    def call(frame, budget):
        remaining = budget.remaining - nodes
        if remaining < 0:
            _exhaust(budget)
        budget.remaining = remaining
        fn = head(frame, budget)
        code = env = None  # the closure stepped into but not built
        for arg_run, more in steps:
            arg = arg_run(frame, budget)
            if code is None:
                if not more or fn.__class__ is not VClosure or fn.code.inner is None:
                    fn = _apply(fn, arg, budget)
                    continue
                code = fn.code
                env = (*fn.env, arg, fn) if code.rec else (*fn.env, arg)
            elif more and code.inner is not None:
                env = (*env, arg)
            else:
                remaining = budget.remaining - 1
                budget.remaining = remaining
                if remaining < 0:
                    raise FuelExhausted(_OUT_OF_FUEL)
                if code.memo and _memo is not None:
                    fn = _memo_call(code, env, arg, budget, remaining)
                else:
                    fn = code.run([*env, arg, *code.pad], budget)
                code = None
                continue
            remaining = budget.remaining - 2  # the application, then the fun node
            if remaining < 0:
                _exhaust(budget)
            budget.remaining = remaining
            if code.gather is not None:
                env = code.gather(env)
            code = code.inner
        return fn
    return call


def _slot(index: int) -> Run:
    def read(frame, budget):
        return frame[index]
    return read


@lru_cache(maxsize=None)
def _applier(count: int) -> Run:
    """Applies ``frame[0]`` to ``frame[1:count + 1]``, spending nothing
    beyond the applications themselves (:meth:`Evaluator.apply`)."""
    return _call(_slot(0), [_slot(index) for index in range(1, count + 1)], 0)


# ---------------------------------------------------------------------------
# Scopes: compile-time slot assignment
# ---------------------------------------------------------------------------


class _Frame:
    """The slot count of the frame of one body being compiled."""

    __slots__ = ("base", "size")

    def __init__(self, base: int):
        self.base = base
        self.size = base


class _Scope:
    """The frame slot of every local name visible at one point of a body."""

    __slots__ = ("slots", "next", "frame")

    def __init__(self, slots: Dict[str, int], next_: int, frame: _Frame):
        self.slots = slots
        self.next = next_
        self.frame = frame

    @classmethod
    def fresh(cls, names: Sequence[str]) -> "_Scope":
        """The scope of a body whose frame starts with ``names``' slots.

        A name listed twice lives in its last slot, as a later binding
        shadows an earlier one.
        """
        return cls({name: slot for slot, name in enumerate(names)}, len(names),
                   _Frame(len(names)))

    def bind(self, name: str) -> Tuple["_Scope", int]:
        """A scope extended with ``name`` in a new slot, and that slot."""
        slot = self.next
        slots = dict(self.slots)
        slots[name] = slot
        if slot >= self.frame.size:
            self.frame.size = slot + 1
        return _Scope(slots, slot + 1, self.frame), slot

    def pad(self) -> Tuple[None, ...]:
        """Initial contents of the binder slots after the frame's base."""
        return (None,) * (self.frame.size - self.frame.base)


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class _Compiler:
    """Compiles expressions whose globals live in one evaluator's table."""

    def __init__(self, globals_: Dict[str, Value], memo_body: Optional[Expr] = None):
        self.globals = globals_
        self.memo_body = memo_body

    def expr(self, expr: Expr, scope: _Scope) -> Run:
        compile_node = _NODE_COMPILERS.get(expr.__class__)
        if compile_node is None:
            raise EvalError(f"unknown expression node: {expr!r}")
        return compile_node(self, expr, scope)

    def var(self, expr: EVar, scope: _Scope) -> Run:
        slot = scope.slots.get(expr.name)
        if slot is not None:
            def local(frame, budget):
                remaining = budget.remaining - 1
                budget.remaining = remaining
                if remaining < 0:
                    raise FuelExhausted(_OUT_OF_FUEL)
                return frame[slot]
            return local

        globals_ = self.globals
        name = expr.name
        unbound = f"unbound variable at runtime: {name}"

        def global_(frame, budget):
            remaining = budget.remaining - 1
            budget.remaining = remaining
            if remaining < 0:
                raise FuelExhausted(_OUT_OF_FUEL)
            try:
                return globals_[name]
            except KeyError:
                raise EvalError(unbound) from None
        return global_

    def ctor(self, expr: ECtor, scope: _Scope) -> Run:
        tag = expr.ctor
        if expr.payload is None:
            value = VCtor(tag)

            def constant(frame, budget):
                remaining = budget.remaining - 1
                budget.remaining = remaining
                if remaining < 0:
                    raise FuelExhausted(_OUT_OF_FUEL)
                return value
            return constant

        payload = self.expr(expr.payload, scope)

        def wrap(frame, budget):
            remaining = budget.remaining - 1
            budget.remaining = remaining
            if remaining < 0:
                raise FuelExhausted(_OUT_OF_FUEL)
            return VCtor(tag, payload(frame, budget))
        return wrap

    def tuple_(self, expr: ETuple, scope: _Scope) -> Run:
        items = [self.expr(item, scope) for item in expr.items]

        def tuple_n(frame, budget):
            remaining = budget.remaining - 1
            budget.remaining = remaining
            if remaining < 0:
                raise FuelExhausted(_OUT_OF_FUEL)
            return VTuple(tuple([item(frame, budget) for item in items]))
        return tuple_n

    def proj(self, expr: EProj, scope: _Scope) -> Run:
        index = expr.index
        inner = self.expr(expr.expr, scope)

        def project(frame, budget):
            remaining = budget.remaining - 1
            budget.remaining = remaining
            if remaining < 0:
                raise FuelExhausted(_OUT_OF_FUEL)
            value = inner(frame, budget)
            if value.__class__ is not VTuple or index >= len(value.items):
                raise EvalError(f"invalid projection from {value}")
            return value.items[index]
        return project

    def app(self, expr: EApp, scope: _Scope) -> Run:
        # ``f a1 ... an`` nests n application nodes whose units fall due
        # one after another before the head is evaluated; the arguments are
        # then evaluated and applied left to right, one unit per application.
        args: List[Expr] = []
        head: Expr = expr
        while head.__class__ is EApp:
            args.append(head.arg)
            head = head.fn
        args.reverse()
        nodes = len(args)
        if nodes == 2 and head.__class__ is EVar and head.name not in scope.slots:
            return self._call_2(head.name, args[0], args[1], scope)

        head_run = self.expr(head, scope)
        arg_runs = [self.expr(arg, scope) for arg in args]
        if nodes > 1:
            return _call(head_run, arg_runs, nodes)
        arg_run = arg_runs[0]

        def call_1(frame, budget):
            remaining = budget.remaining - 1
            budget.remaining = remaining
            if remaining < 0:
                raise FuelExhausted(_OUT_OF_FUEL)
            fn = head_run(frame, budget)
            arg = arg_run(frame, budget)
            if fn.__class__ is not VClosure or fn.code.rec:
                return _apply(fn, arg, budget)
            # ``_apply`` inlined for the common case: one Python frame less
            # per level of recursion, as in ``_call``.
            code = fn.code
            remaining = budget.remaining - 1
            budget.remaining = remaining
            if remaining < 0:
                raise FuelExhausted(_OUT_OF_FUEL)
            if code.memo and _memo is not None:
                return _memo_call(code, fn.env, arg, budget, remaining)
            return code.run([*fn.env, arg, *code.pad], budget)
        return call_1

    def _call_2(self, name: str, first: Expr, second: Expr, scope: _Scope) -> Run:
        """``name first second`` for a global ``name``: the steps of
        :func:`_call` for two arguments in one closure.

        A local-variable argument is read from its slot, without a closure
        call; units that fall due right after the read are spent with its.
        """
        globals_ = self.globals
        unbound = f"unbound variable at runtime: {name}"
        first_slot = scope.slots.get(first.name) if first.__class__ is EVar else None
        second_slot = scope.slots.get(second.name) if second.__class__ is EVar else None
        first_run = self.expr(first, scope) if first_slot is None else None
        second_run = self.expr(second, scope) if second_slot is None else None

        def call_2(frame, budget):
            remaining = budget.remaining - 3  # the two application nodes, the head
            if remaining < 0:
                _exhaust(budget)
            budget.remaining = remaining
            try:
                fn = globals_[name]
            except KeyError:
                raise EvalError(unbound) from None
            if fn.__class__ is not VClosure or fn.code.inner is None:
                if first_run is None:
                    remaining -= 1
                    budget.remaining = remaining
                    if remaining < 0:
                        raise FuelExhausted(_OUT_OF_FUEL)
                    fn = _apply(fn, frame[first_slot], budget)
                else:
                    fn = _apply(fn, first_run(frame, budget), budget)
                if second_run is None:
                    remaining = budget.remaining - 1
                    budget.remaining = remaining
                    if remaining < 0:
                        raise FuelExhausted(_OUT_OF_FUEL)
                    return _apply(fn, frame[second_slot], budget)
                return _apply(fn, second_run(frame, budget), budget)
            # Step into the body's ``fun``, as ``_call`` does.
            code = fn.code
            if first_run is None:
                arg = frame[first_slot]
                remaining -= 3  # the argument, the application, the fun node
            else:
                arg = first_run(frame, budget)
                remaining = budget.remaining - 2  # the application, the fun node
            if remaining < 0:
                _exhaust(budget)
            budget.remaining = remaining
            env = (*fn.env, arg, fn) if code.rec else (*fn.env, arg)
            if code.gather is not None:
                env = code.gather(env)
            code = code.inner
            if second_run is None:
                arg = frame[second_slot]
                remaining -= 2  # the argument, then the application
            else:
                arg = second_run(frame, budget)
                remaining = budget.remaining - 1
            if remaining < 0:
                _exhaust(budget)
            budget.remaining = remaining
            if code.memo and _memo is not None:
                return _memo_call(code, env, arg, budget, remaining)
            return code.run([*env, arg, *code.pad], budget)
        return call_2

    def body(self, expr: Expr, scope: _Scope
             ) -> Tuple[Run, Optional[Code], Optional[Callable[[Sequence[Value]], tuple]]]:
        """Compile a function body: its run, and when the body is a ``fun``,
        that ``fun``'s code and how it gathers what it captures (see
        :class:`~repro.lang.values.Code`)."""
        if expr.__class__ is EFun:
            return self._fun(expr, scope)
        return self.expr(expr, scope), None, None

    def fun(self, expr: EFun, scope: _Scope) -> Run:
        return self._fun(expr, scope)[0]

    def _fun(self, expr: EFun, scope: _Scope) -> Tuple[Run, Code, Optional[Callable]]:
        # The body is compiled once, here; each closure the node creates
        # captures the enclosing slots the body reads, which become the
        # first slots of the body's own frame.
        captured = sorted(name for name in free_vars(expr) if name in scope.slots)
        body_scope = _Scope.fresh(captured + [expr.param])
        run, inner, inner_gather = self.body(expr.body, body_scope)
        code = Code(run, body_scope.pad(), False, expr.body is self.memo_body,
                    inner, inner_gather)
        param, param_type, body = expr.param, expr.param_type, expr.body
        sources = [scope.slots[name] for name in captured]
        if len(sources) > 1:
            gather = itemgetter(*sources)
        elif sources:
            source = sources[0]

            def gather(frame):
                return (frame[source],)
        else:
            def gather(frame):
                return ()

        def closure(frame, budget):
            remaining = budget.remaining - 1
            budget.remaining = remaining
            if remaining < 0:
                raise FuelExhausted(_OUT_OF_FUEL)
            return VClosure(param, param_type, body, gather(frame), None, code)
        # A body's leading slots are the values a call steps in with; when
        # this ``fun`` captures all of them, in order, stepping in keeps them.
        if sources == list(range(scope.frame.base)):
            return closure, code, None
        return closure, code, gather

    def let(self, expr: ELet, scope: _Scope) -> Run:
        value = self.expr(expr.value, scope)
        inner, slot = scope.bind(expr.name)
        body = self.expr(expr.body, inner)

        def let_in(frame, budget):
            remaining = budget.remaining - 1
            budget.remaining = remaining
            if remaining < 0:
                raise FuelExhausted(_OUT_OF_FUEL)
            frame[slot] = value(frame, budget)
            return body(frame, budget)
        return let_in

    def match(self, expr: EMatch, scope: _Scope) -> Run:
        # Branches are indexed by constructor tag: ``by_tag[c]`` lists, in
        # source order, the branches that can match a ``c`` value, each with
        # the test that remains once the tag is known; ``others`` lists the
        # branches that can match anything else.
        arms: List[Tuple[Optional[str], Test, Run]] = []
        for branch in expr.branches:
            pattern = branch.pattern
            tag = pattern.ctor if pattern.__class__ is PCtor else None
            inner, test = _pattern(pattern, scope, tag_checked=tag is not None)
            arms.append((tag, test, self.expr(branch.body, inner)))
        others = tuple((test, body) for tag, test, body in arms if tag is None)
        by_tag = {
            tag: tuple((test, body) for arm_tag, test, body in arms
                       if arm_tag == tag or arm_tag is None)
            for tag in dict.fromkeys(tag for tag, _, _ in arms if tag is not None)
        }
        scrutinee = self.expr(expr.scrutinee, scope)

        def match_first(frame, budget):
            remaining = budget.remaining - 1
            budget.remaining = remaining
            if remaining < 0:
                raise FuelExhausted(_OUT_OF_FUEL)
            value = scrutinee(frame, budget)
            for test, body in (by_tag.get(value.ctor, others)
                               if value.__class__ is VCtor else others):
                if test is None or test(value, frame):
                    return body(frame, budget)
            raise MatchFailure(f"no branch matched value {value}")
        return match_first


_NODE_COMPILERS: Dict[type, Callable[[_Compiler, Expr, _Scope], Run]] = {
    EVar: _Compiler.var,
    ECtor: _Compiler.ctor,
    ETuple: _Compiler.tuple_,
    EProj: _Compiler.proj,
    EApp: _Compiler.app,
    EFun: _Compiler.fun,
    ELet: _Compiler.let,
    EMatch: _Compiler.match,
}


# ---------------------------------------------------------------------------
# Patterns
# ---------------------------------------------------------------------------


def _pattern(pattern: Pattern, scope: _Scope, tag_checked: bool) -> Tuple[_Scope, Test]:
    """Compile ``pattern`` into a test that binds into ``scope``'s frame.

    With ``tag_checked`` the caller has already checked that the value is a
    constructor with the pattern's tag (``pattern`` must then be a
    :class:`PCtor`), so the test covers only the payload.
    """
    if pattern.__class__ is PWild:
        return scope, None
    if pattern.__class__ is PVar:
        inner, slot = scope.bind(pattern.name)

        def bind(value, frame):
            frame[slot] = value
            return True
        return inner, bind
    if pattern.__class__ is PCtor:
        return _ctor_pattern(pattern, scope, tag_checked)
    if pattern.__class__ is PTuple:
        return _tuple_pattern(pattern, scope)
    raise EvalError(f"unknown pattern node: {pattern!r}")


def _ctor_pattern(pattern: PCtor, scope: _Scope, tag_checked: bool) -> Tuple[_Scope, Test]:
    tag = pattern.ctor
    if pattern.payload is None:
        # A payload-less pattern matches the tag whatever the payload.
        if tag_checked:
            return scope, None

        def tag_only(value, frame):
            return value.__class__ is VCtor and value.ctor == tag
        return scope, tag_only

    inner, payload_test = _pattern(pattern.payload, scope, tag_checked=False)
    if payload_test is None:
        def payload_present(value, frame):
            return value.payload is not None
        after_tag = payload_present
    else:
        def payload_matches(value, frame):
            payload = value.payload
            return payload is not None and payload_test(payload, frame)
        after_tag = payload_matches
    if tag_checked:
        return inner, after_tag

    def tag_and_payload(value, frame):
        return value.__class__ is VCtor and value.ctor == tag and after_tag(value, frame)
    return inner, tag_and_payload


def _tuple_pattern(pattern: PTuple, scope: _Scope) -> Tuple[_Scope, Test]:
    arity = len(pattern.items)
    inner = scope
    tests: List[Test] = []
    for item in pattern.items:
        inner, test = _pattern(item, inner, tag_checked=False)
        tests.append(test)

    checks = [(index, test) for index, test in enumerate(tests) if test is not None]

    def tuple_test(value, frame):
        if value.__class__ is not VTuple:
            return False
        items = value.items
        if len(items) != arity:
            return False
        for index, test in checks:
            if not test(items[index], frame):
                return False
        return True
    return inner, tuple_test


def match_pattern(pattern: Pattern, value: Value) -> Optional[Dict[str, Value]]:
    """Return the bindings produced by matching ``value`` against ``pattern``,
    or ``None`` when the pattern does not match.

    This runs the same compiled test a ``match`` branch runs.
    """
    scope = _Scope.fresh(())
    inner, test = _pattern(pattern, scope, tag_checked=False)
    frame = [None] * inner.frame.size
    if test is not None and not test(value, frame):
        return None
    return {name: frame[slot] for name, slot in inner.slots.items()}
