"""Call-by-value evaluator for the object language, generating Python source.

Every function body becomes the source of one Python function ``run(env,
arg, budget, depth) -> Value``, compiled with the stdlib ``compile``
(staging an interpreter into generated code, as in Lightweight Modular
Staging, Rompf & Odersky, GPCE 2010).  The captured values ``env``, the
argument and every ``let`` and ``match`` binder become Python locals; any
other name is a global, looked up at run time in :attr:`Evaluator.globals`,
because some callers (the fold synthesizer) add globals after the code that
uses them was generated.  A ``match`` becomes an ``if`` chain on the
scrutinee's constructor tag, each pattern's remaining tests one condition
that binds its variables.  A ``fun`` expression becomes a function of its
own and one :class:`~repro.lang.values.Code`, shared by every closure it
creates; a closure captures only the values its body uses.

No text of a ``.hanoi`` file reaches the generated source: its names are
numbered locals, fields of runtime values and this module's own names, and
every constant (constructor tags, error messages, the globals dict, the code
of nested ``fun`` expressions) is a parameter of a generated *factory* that
returns ``run``, so bodies that differ only in names share one source text.
Factories are cached process-wide by source and bodies by structure, up to
:data:`FACTORY_CACHE_MAX` each: a body is generated and compiled once.

Fuel bounds the number of evaluation steps so that the Hanoi loop can run
synthesized candidates and enumerated functional arguments without risking
non-termination.  Running out is an observable outcome (a candidate invariant
that runs out of fuel rejects the value), so the generated code spends fuel
exactly as a direct interpreter does: one unit per expression node evaluated
and one per function application, in the same order relative to every error
and native call.  Units that fall due with nothing observable between them (a
straight-line run of nodes up to the next call, global look-up or error) are
spent in one step, and running out leaves ``remaining`` where spending them
one at a time would have.  ``tests/lang/test_fuel_parity.py`` pins the step
counts; ``tests/lang/reference_eval.py``, the closure compiler this evaluator
replaced, is its test oracle.  A native function value
(:class:`~repro.lang.values.VNative`) is applied by calling its callable.

Applications of first-order top-level functions are memoized while a memo
table is open (:func:`memo_table`; every inference run opens its own),
after Michie's memo functions (*Nature*, 1968).  The program marks the code of
the innermost body of such a function's curried chain; its parameter and
result types admit no function values, so the key ``(code, captured values,
argument)`` holds only hash-consed values.  An entry stores the call's value
and the fuel its body spent.  A hit replays that fuel when it fits the
remaining budget, and otherwise the call runs, so fuel runs out exactly where
it would without the table; only calls that return are stored.  A global
added later was unbound when an entry was stored (the call raised, so nothing
was), and a global is never rebound (the type checker rejects a second
definition of a name).  Every call site probes the table inline.

A saturated call of a curried closure builds none of its partial
applications (Marlow & Peyton Jones, "Making a fast curry", 2004).  When a
body is itself a ``fun``, its code records that ``fun``'s code as ``inner``,
and a call with another argument still to come steps into it directly,
spending the application's unit and then the ``fun`` node's; the values the
``fun`` captures are gathered from the body's leading values (``gather``, or
all of them in order when it is ``None``), so the step that finally runs a
body stores and hits the memo entries the curried path would.

Each body run nests one level deeper; a run more than :data:`MAX_EVAL_DEPTH`
levels deep raises :class:`~repro.lang.errors.EvalDepthExceeded`, and
:meth:`Evaluator.eval` and :meth:`Evaluator.apply`, the only entry points,
report a ``RecursionError`` the same way.  A memo hit skips the runs of the
call it answers.  Hashing or comparing a key never recurses: first-order
values are hash-consed (:mod:`repro.lang.values`).
"""

from __future__ import annotations

import sys
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from functools import lru_cache
from hashlib import blake2b
from operator import itemgetter
from types import CodeType, FunctionType
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from .ast import (EApp, ECtor, EFun, ELet, EMatch, EProj, ETuple, EVar, Expr, PCtor, PTuple, PVar,
                  PWild, Pattern, free_vars)
from .errors import EvalDepthExceeded, EvalError, FuelExhausted, MatchFailure
from .types import Type
from .values import Code, Value, VClosure, VCtor, VNative, VTuple  # noqa: F401 (generated)

__all__ = ["Evaluator", "EvalBudget", "DEFAULT_FUEL", "MEMO_MAX_ENTRIES", "MAX_EVAL_DEPTH",
           "FACTORY_CACHE_MAX", "memo_table"]

DEFAULT_FUEL = 500_000

#: The most entries one memo table stores; a full table still answers
#: lookups but stores nothing more, which costs speed, never correctness.
MEMO_MAX_ENTRIES = 200_000

#: The most body runs one evaluation nests; one more raises
#: :class:`~repro.lang.errors.EvalDepthExceeded`.
MAX_EVAL_DEPTH = 5_000

#: The most factories and body templates kept for reuse; past it a new one is
#: generated each time it is met, which costs speed, never correctness.
FACTORY_CACHE_MAX = 4_096

#: ``(code, captured values, argument) -> (value, fuel spent)`` while a
#: :func:`memo_table` block is open, else ``None``.
_memo: Optional[Dict[tuple, Tuple[Value, int]]] = None

#: Digest of generated source -> its factory, and body -> its template
#: (:func:`_template`).  A digest keeps the source text itself out of memory.
_factories: Dict[bytes, Callable] = {}
_templates: Dict[tuple, "_Template"] = {}

# A body run takes one or two Python frames, and generating a body recurses
# on its nesting; the head-room covers MAX_EVAL_DEPTH runs and deep syntax.
if sys.getrecursionlimit() < 20_000:
    sys.setrecursionlimit(20_000)

_OUT_OF_FUEL = "evaluation step budget exhausted"
_TOO_DEEP = "evaluation nested too deeply"

# Generated code reaches Python's own names through these.
_get = dict.get
_len = len

# Past these, a sub-expression is generated as a function of its own: Python
# caps indentation at 100 levels and nested loops at 20.
_MAX_INDENT = 40
_MAX_LOOPS = 10


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


class Evaluator:
    """Evaluates expressions in a global environment of top-level values."""

    #: The fuel of an evaluation that is given no budget.
    default_fuel = DEFAULT_FUEL

    def __init__(self, globals_: Optional[Dict[str, Value]] = None):
        self.globals: Dict[str, Value] = globals_ if globals_ is not None else {}

    def eval(self, expr: Expr, env: Optional[Dict[str, Value]] = None,
             budget: Optional[EvalBudget] = None) -> Value:
        """Evaluate ``expr`` to a value in local environment ``env``; a
        ``fun`` in it captures the values ``env`` holds now."""
        if budget is None:
            budget = EvalBudget(self.default_fuel)
        env = env or {}
        try:
            code = _instantiate(_template(expr, tuple(env), None, None, None), self.globals)
            return code.run(tuple(env.values()), None, budget, 1)
        except RecursionError:
            raise EvalDepthExceeded(_TOO_DEEP) from None

    def apply(self, fn: Value, *args: Value, budget: Optional[EvalBudget] = None) -> Value:
        """Apply a function value to arguments, left to right, stepping into
        a curried closure as a call node does."""
        if budget is None:
            budget = EvalBudget(self.default_fuel)
        try:
            if len(args) > 1:
                return _applier(len(args))((fn, *args), None, budget, 0)
            if args:
                budget.spend()
                return _enter(fn, args[0], budget, 1)
        except RecursionError:
            raise EvalDepthExceeded(_TOO_DEEP) from None
        return fn

    def closure(self, param: str, param_type: Optional[Type], body: Expr,
                rec_name: Optional[str] = None,
                memo_body: Optional[Expr] = None) -> VClosure:
        """A closure over this evaluator's globals whose body is generated
        when it is first applied, so loading a program generates nothing.

        ``rec_name``, when given, is bound to the closure itself inside the
        body (it shadows ``param`` if the two coincide).  ``memo_body``, when
        given, is ``body`` or the body of a ``fun`` down its curried chain
        (``body``, or that ``fun``'s body, and so on): its code is marked for
        memoization (see :func:`memo_table`).
        """
        memo_depth, node = 0, body
        while node is not memo_body and node.__class__ is EFun:
            memo_depth, node = memo_depth + 1, node.body
        memo_depth = memo_depth if node is memo_body else None
        code = Code(None, rec_name is not None, memo_depth == 0)
        globals_ = self.globals

        def generate_and_run(env: tuple, arg: Value, budget: EvalBudget, depth: int) -> Value:
            _instantiate(_template(body, (), param, rec_name, memo_depth), globals_, code)
            return code.run(env, arg, budget, depth)

        code.run = generate_and_run
        return VClosure(param, param_type, body, (), rec_name, code)


# -- run-time support of the generated code --------------------------------------


def _enter(fn: Value, arg: Value, budget: EvalBudget, depth: int) -> Value:
    """Run ``fn`` on ``arg`` at ``depth``, the application's unit spent."""
    if fn.__class__ is VClosure:
        code = fn.code
        if code.rec:
            return code.run((*fn.env, fn), arg, budget, depth)
        table = _memo
        if code.memo and table is not None:
            key = (code, fn.env, arg)
            hit = table.get(key)
            if hit is not None and hit[1] <= budget.remaining:
                budget.remaining -= hit[1]
                return hit[0]
            return _miss(table, key, hit, budget, depth)
        return code.run(fn.env, arg, budget, depth)
    if fn.__class__ is VNative:
        return fn.fn(arg)
    raise EvalError(f"application of non-function value {fn}")


def _miss(table: dict, key: tuple, hit: Optional[tuple], budget: EvalBudget,
          depth: int) -> Value:
    """Run a memo-marked call the table did not answer; store it if new."""
    code, env, arg = key
    remaining = budget.remaining
    value = code.run(env, arg, budget, depth)
    if hit is None and len(table) < MEMO_MAX_ENTRIES:
        table[key] = (value, remaining - budget.remaining)
    return value


def _apply2(fn: Value, first: Value, second: Value, before: int, between: int,
            budget: EvalBudget, depth: int) -> Value:
    """``fn first second`` one application at a time: ``before`` units fall
    due before the first, ``between`` before the second."""
    for units, arg in ((before, first), (between, second)):
        remaining = budget.remaining - units
        if remaining < 0:
            raise _out(budget, remaining + units)
        budget.remaining = remaining
        fn = _enter(fn, arg, budget, depth)
    return fn


def _out(budget: EvalBudget, before: int) -> FuelExhausted:
    """The error of a merged spend that does not fit the ``before`` units
    left.  Spending one unit at a time stops at the first unit that takes
    ``remaining`` below zero, so that is where ``remaining`` is left."""
    budget.remaining = min(before, 0) - 1
    return FuelExhausted(_OUT_OF_FUEL)


def _unbound(budget: EvalBudget, remaining: int, units: int, message: str) -> Value:
    """Fail the look-up of an unbound global, ``units`` units after
    ``remaining`` was written back."""
    if remaining < units:
        raise _out(budget, remaining)
    budget.remaining = remaining - units
    raise EvalError(message)


# The errors generated code raises, ``remaining`` written back first.
def _no_match(budget: EvalBudget, remaining: int, value: Value) -> MatchFailure:
    budget.remaining = remaining
    return MatchFailure(f"no branch matched value {value}")


def _bad_projection(budget: EvalBudget, remaining: int, value: Value) -> EvalError:
    budget.remaining = remaining
    return EvalError(f"invalid projection from {value}")


def _gatherer(sources: Sequence[int]) -> Callable[[Sequence[Value]], tuple]:
    if len(sources) > 1:
        return itemgetter(*sources)
    if sources:
        source = sources[0]
        return lambda values: (values[source],)
    return lambda values: ()


def _factory(source: str) -> Callable:
    """The factory ``source`` defines, over this module's globals (so that
    generated code sees the open memo table), compiled once per process."""
    key = blake2b(source.encode(), digest_size=16).digest()
    factory = _factories.get(key)
    if factory is None:
        module = compile(source, "<generated body>", "exec")
        code = next(const for const in module.co_consts if isinstance(const, CodeType))
        factory = FunctionType(code, globals())
        if len(_factories) < FACTORY_CACHE_MAX:
            _factories[key] = factory
    return factory


class _Template:
    """A generated body, ready to become a :class:`~repro.lang.values.Code`
    over any program's globals: its factory and the factory's constants (the
    templates of nested bodies among them), whether the code is memo-marked,
    and when the body is a ``fun``, that ``fun``'s position among the
    constants and its ``gather``."""

    __slots__ = ("factory", "consts", "memo", "inner", "gather")

    def __init__(self, factory, consts, memo, inner=None, gather=None):
        self.factory, self.consts, self.memo = factory, consts, memo
        self.inner, self.gather = inner, gather


def _template(body: Expr, captured: Tuple[str, ...], param: Optional[str],
              rec_name: Optional[str], memo_depth: Optional[int]) -> _Template:
    """The template of ``body``, whose run sees ``captured`` in its ``env``
    (then ``rec_name``, the closure itself) and ``param`` as its argument;
    the body ``memo_depth`` steps down its curried chain is memo-marked.
    Cached by these arguments, a body compared by structure."""
    key = (body, captured, param, rec_name, memo_depth)
    template = _templates.get(key)
    if template is None:
        gen = _Gen(memo_depth)
        root = gen.body(body, captured + (rec_name,) if rec_name is not None else captured,
                        param)
        template = gen.template(memo_depth == 0)
        if root is not None:
            template.inner, inner_captured = root
            leading = [*captured, param] + ([rec_name] if rec_name is not None else [])
            slots = {name: slot for slot, name in enumerate(leading)}
            sources = [slots[name] for name in inner_captured]
            if sources != list(range(len(leading))):
                template.gather = _gatherer(sources)
        if len(_templates) < FACTORY_CACHE_MAX:
            _templates[key] = template
    return template


def _instantiate(template: _Template, globals_: Optional[Dict[str, Value]],
                 code: Optional[Code] = None) -> Code:
    """``template``'s code over ``globals_``, filled into ``code`` if given."""
    consts = [_instantiate(const, globals_) if const.__class__ is _Template else const
              for const in template.consts]
    if code is None:
        code = Code(None, False, template.memo)
    code.run = template.factory(globals_, *consts)
    if template.inner is not None:
        code.inner, code.gather = consts[template.inner], template.gather
    return code


@lru_cache(maxsize=None)
def _applier(count: int) -> Callable:
    """Applies ``env[0]`` to ``env[1:count + 1]``, spending nothing beyond
    the applications themselves (:meth:`Evaluator.apply`)."""
    gen = _Gen(None)
    names = [gen.fresh() for _ in range(count + 1)]
    gen.enter(names)
    gen.call(names[0], names[1:], 0, {}, tail=True)
    return _instantiate(gen.template(False), None).run


def match_pattern(pattern: Pattern, value: Value) -> Optional[Dict[str, Value]]:
    """The bindings of matching ``value`` against ``pattern``, or ``None``
    when it does not match, by the test a ``match`` branch generates."""
    gen = _Gen(None)
    scope: Dict[str, str] = {}
    with gen.guard(pattern, "_a", False, scope, []):
        gen.emit("return {%s}" % ", ".join(f"{gen.const(name)}: {local}"
                                           for name, local in scope.items()))
    gen.emit("return None")
    return _instantiate(gen.template(False), None).run(None, value, None, 0)


# -- source generation ------------------------------------------------------------


def _tuple(items: Sequence[str]) -> str:
    return "(" + ", ".join(items) + ("," if len(items) == 1 else "") + ")"


class _Gen:
    """Writes the source of one function body.

    Its names: ``_e``, ``_a``, ``_b`` and ``_d`` are ``run``'s parameters
    (captured values, argument, budget, depth); ``_r`` holds the budget's
    ``remaining``, written back before control leaves the body; ``_g`` (the
    globals dict) and ``_k<n>`` are the factory's constants; ``_v<n>`` hold
    values; ``_t``, ``_k`` and ``_h`` are a memo probe's table, key and entry.
    ``pending`` counts the units due but not spent yet: :meth:`charge` spends
    them before anything observable (a call, an error, leaving the body; a
    failed global look-up spends them itself).  Generating an expression
    returns the local or constant that holds its value.
    """

    def __init__(self, memo_depth: Optional[int]):
        self.memo_depth = memo_depth
        self.lines: List[str] = []
        self.consts: List[object] = []
        self.const_names: Dict[object, str] = {}
        self.count = self.pending = self.loops = 0
        self.indent = 2

    def emit(self, line: str) -> None:
        self.lines.append("    " * self.indent + line)

    @contextmanager
    def block(self, header: str) -> Iterator[None]:
        self.emit(header)
        self.indent += 1
        yield
        self.indent -= 1

    def fresh(self) -> str:
        self.count += 1
        return f"_v{self.count}"

    def const(self, value: object) -> str:
        key = value if value.__class__ is str else id(value)
        name = self.const_names.get(key)
        if name is None:
            name = self.const_names[key] = f"_k{len(self.consts)}"
            self.consts.append(value)
        return name

    def template(self, memo: bool) -> _Template:
        params = ", ".join(["_g"] + [f"_k{index}" for index in range(len(self.consts))])
        source = "\n".join([f"def _make({params}):", "    def _run(_e, _a, _b, _d):",
                            *self.lines, "    return _run", ""])
        return _Template(_factory(source), self.consts, memo)

    def enter(self, locals_: Sequence[str]) -> None:
        self.emit("if _d > MAX_EVAL_DEPTH: raise EvalDepthExceeded(_TOO_DEEP)")
        self.emit("_r = _b.remaining")
        if locals_:
            self.emit(", ".join(locals_) + ", = _e")

    def charge(self, extra: int = 0) -> None:
        self.pending += extra
        if self.pending:
            self.emit(f"if (_r := _r - {self.pending}) < 0: raise _out(_b, _r + {self.pending})")
            self.pending = 0

    @staticmethod
    def leaving(target: str, call: str, tail: bool) -> str:
        """A line that leaves the body for ``call`` and returns its value,
        or puts it in ``target``."""
        if tail:
            return f"_b.remaining = _r; return {call}"
        return f"_b.remaining = _r; {target} = {call}; _r = _b.remaining"

    def invoke(self, target: str, call: str, tail: bool) -> None:
        self.emit(self.leaving(target, call, tail))

    def give(self, value: str) -> None:
        self.charge()
        self.invoke(value, value, True)

    # -- bodies ------------------------------------------------------------------

    def body(self, expr: Expr, env: Sequence[str], param: Optional[str]
             ) -> Optional[Tuple[int, Tuple[str, ...]]]:
        """Generate a body; when it is a ``fun``, that ``fun``'s position
        among the constants and the names it captures."""
        scope = {} if param is None else {param: "_a"}
        locals_ = [self.fresh() for _ in env]
        scope.update(zip(env, locals_))
        self.enter(locals_)
        if expr.__class__ is EFun:
            value, index, captured = self.closure(expr, scope, root=True)
            self.give(value)
            return index, captured
        self.tail(expr, scope)
        return None

    def tail(self, expr: Expr, scope: Dict[str, str]) -> None:
        """Generate ``expr`` in tail position: every path returns or raises."""
        cls = expr.__class__
        if self.indent > _MAX_INDENT or self.loops > _MAX_LOOPS:
            self.split(expr, scope, tail=True)
        elif cls is EMatch:
            self.pending += 1
            self.arms(expr, self.expr(expr.scrutinee, scope), scope, None)
        elif cls is ELet:
            self.pending += 1
            value = self.expr(expr.value, scope)
            self.tail(expr.body, {**scope, expr.name: value})
        elif cls is EApp:
            self.app(expr, scope, tail=True)
        else:
            self.give(self.expr(expr, scope))

    def split(self, expr: Expr, scope: Dict[str, str], tail: bool) -> str:
        """Generate ``expr`` as a function of its own, run at this depth."""
        captured = tuple(sorted(name for name in free_vars(expr) if name in scope))
        code = self.const(_template(expr, captured, None, None, None))
        self.charge()
        target = self.fresh()
        env = _tuple([scope[name] for name in captured])
        self.invoke(target, f"{code}.run({env}, None, _b, _d)", tail)
        return target

    # -- expressions -------------------------------------------------------------

    def expr(self, expr: Expr, scope: Dict[str, str]) -> str:
        if self.indent > _MAX_INDENT or self.loops > _MAX_LOOPS:
            return self.split(expr, scope, tail=False)
        generate = _NODES.get(expr.__class__)
        if generate is None:
            raise EvalError(f"unknown expression node: {expr!r}")
        return generate(self, expr, scope)

    def var(self, expr: EVar, scope: Dict[str, str]) -> str:
        self.pending += 1
        local = scope.get(expr.name)
        if local is not None:
            return local
        # Looking a global up is unobservable, and failing spends the units
        # due before it, so the units need not be spent here.
        target = self.fresh()
        name = self.const(expr.name)
        message = self.const(f"unbound variable at runtime: {expr.name}")
        self.emit(f"{target} = _get(_g, {name}) or _unbound(_b, _r, {self.pending}, {message})")
        return target

    def ctor(self, expr: ECtor, scope: Dict[str, str]) -> str:
        self.pending += 1
        if expr.payload is None:
            return self.const(VCtor(expr.ctor))
        payload = self.expr(expr.payload, scope)
        target = self.fresh()
        self.emit(f"{target} = VCtor({self.const(expr.ctor)}, {payload})")
        return target

    def tuple_(self, expr: ETuple, scope: Dict[str, str]) -> str:
        self.pending += 1
        items = [self.expr(item, scope) for item in expr.items]
        target = self.fresh()
        self.emit(f"{target} = VTuple({_tuple(items)})")
        return target

    def proj(self, expr: EProj, scope: Dict[str, str]) -> str:
        self.pending += 1
        value = self.expr(expr.expr, scope)
        index = int(expr.index)
        self.charge()
        self.emit(f"if {value}.__class__ is not VTuple or {index} >= _len({value}.items): "
                  f"raise _bad_projection(_b, _r, {value})")
        target = self.fresh()
        self.emit(f"{target} = {value}.items[{index}]")
        return target

    def fun(self, expr: EFun, scope: Dict[str, str]) -> str:
        return self.closure(expr, scope)[0]

    def closure(self, expr: EFun, scope: Dict[str, str], root: bool = False
                ) -> Tuple[str, int, Tuple[str, ...]]:
        """A ``fun`` node: its value, its body's position among the
        constants, and the names it captures, which lead its body's ``env``.
        Only the ``fun`` that is a body (``root``) continues a curried chain."""
        self.pending += 1
        captured = tuple(sorted(name for name in free_vars(expr) if name in scope))
        memo_depth = self.memo_depth - 1 if root and self.memo_depth else None
        code = self.const(_template(expr.body, captured, expr.param, None, memo_depth))
        target = self.fresh()
        fields = ", ".join(self.const(item) for item in (expr.param, expr.param_type, expr.body))
        env = _tuple([scope[name] for name in captured])
        self.emit(f"{target} = VClosure({fields}, {env}, None, {code})")
        return target, int(code[2:]), captured

    def let(self, expr: ELet, scope: Dict[str, str]) -> str:
        self.pending += 1
        value = self.expr(expr.value, scope)
        return self.expr(expr.body, {**scope, expr.name: value})

    def match(self, expr: EMatch, scope: Dict[str, str]) -> str:
        # Each branch stores its value and breaks out of the loop.
        self.pending += 1
        scrutinee = self.expr(expr.scrutinee, scope)
        target = self.fresh()
        self.loops += 1
        with self.block("while True:"):
            self.arms(expr, scrutinee, scope, target)
        self.loops -= 1
        return target

    def app(self, expr: EApp, scope: Dict[str, str], tail: bool = False) -> str:
        args: List[Expr] = []
        head: Expr = expr
        while head.__class__ is EApp:
            args.append(head.arg)
            head = head.fn
        return self.call(head, args[::-1], len(args), scope, tail)

    # -- calls -------------------------------------------------------------------

    def call(self, head, args: Sequence, nodes: int, scope: Dict[str, str], tail: bool) -> str:
        """``head`` applied to ``args`` (expressions, or locals that cost
        nothing), after ``nodes`` units for the application nodes.

        This is the curried sequence of one-argument applications, except
        that a closure whose code has an ``inner`` ``fun``, applied with
        another argument still to come, is stepped into without being built:
        ``code`` then holds the ``fun``'s code and ``env`` what it captures;
        otherwise ``code`` is ``None`` and ``fn`` the value applied so far.
        """
        self.pending += nodes
        first = self.operand(head, scope)
        fn, code, env = self.fresh(), self.fresh(), self.fresh()
        value = self.operand(args[0], scope)
        enter = f"_enter({first}, {value}, _b, _d + 1)"
        if len(args) == 1:
            self.charge(1)  # the application
            with self.block(f"if {first}.__class__ is VClosure and "
                            f"not ({code} := {first}.code).rec:"):
                self.memo_run(fn, code, f"{first}.env", value, tail)
            with self.block("else:"):
                self.invoke(fn, enter, tail)
            return fn
        second = self.atom(args[1], scope) if len(args) == 2 else None
        if second is not None:
            # Reading the second argument is unobservable, so each path takes
            # both steps, and stepping in spends its units at once.
            second, units = second
            start = self.pending
            with self.step_in(first, value, code, env, 2 + units):
                self.memo_run(fn, code, env, second, tail)
            self.pending = 0
            self.emit("else: " + self.leaving(fn, f"_apply2({first}, {value}, {second}, "
                                                  f"{start + 1}, {units + 1}, _b, _d + 1)", tail))
            return fn
        for index, arg in enumerate(args):
            if index:
                value = self.operand(arg, scope)
                enter = f"_enter({fn}, {value}, _b, _d + 1)"
            self.charge(1)  # the application
            more, last = index < len(args) - 1, tail and index == len(args) - 1
            with self.block(f"if {code} is None:") if index else _NO_BLOCK:
                if more:
                    with self.step_in(fn if index else first, value, code, env, 0):
                        self.charge()
                    with self.block("else:"):
                        self.invoke(fn, enter, False)
                        self.emit(f"{code} = None")
                else:
                    self.invoke(fn, enter, last)
            if not index:
                continue
            if more:
                with self.block(f"elif {code}.inner is not None:"):
                    self.emit(f"{env} += ({value},)")
                    self.step(code, env)
                    self.charge()
            with self.block("else:"):
                self.memo_run(fn, code, env, value, last)
                if more:
                    self.emit(f"{code} = None")
        return fn

    def operand(self, arg, scope: Dict[str, str]) -> str:
        return arg if arg.__class__ is str else self.expr(arg, scope)

    def atom(self, arg, scope: Dict[str, str]) -> Optional[Tuple[str, int]]:
        """An argument whose evaluation can neither fail nor be observed:
        the local or constant holding its value and its units, else ``None``."""
        if arg.__class__ is str:
            return arg, 0
        if arg.__class__ is EVar and arg.name in scope:
            return scope[arg.name], 1
        if arg.__class__ is ECtor and arg.payload is None:
            return self.const(VCtor(arg.ctor)), 1
        return None

    @contextmanager
    def step_in(self, fn: str, value: str, code: str, env: str, extra: int) -> Iterator[None]:
        """A block that steps into ``fn``'s inner ``fun`` when ``fn`` is a
        closure that has one, with ``extra`` more units due there."""
        with self.block(f"if {fn}.__class__ is VClosure and "
                        f"({code} := {fn}.code).inner is not None:"):
            self.emit(f"{env} = {fn}.env + ({value}, {fn}) if {code}.rec "
                      f"else {fn}.env + ({value},)")
            self.pending += extra
            self.step(code, env)
            yield

    def step(self, code: str, env: str) -> None:
        """Step into ``code``'s inner ``fun``: its node's unit falls due, then
        the values it captures are gathered."""
        self.pending += 1
        self.emit(f"if {code}.gather is not None: {env} = {code}.gather({env})")
        self.emit(f"{code} = {code}.inner")

    def memo_run(self, target: str, code: str, env: str, arg: str, tail: bool) -> None:
        """Run ``code`` over ``env`` on ``arg``, through the memo table when
        one is open and the code is marked."""
        hit = "_b.remaining = _r - _h[1]; return _h[0]" if tail else f"_r -= _h[1]; {target} = _h[0]"
        self.charge()
        with self.block(f"if {code}.memo and (_t := _memo) is not None:"):
            self.emit(f"if (_h := _get(_t, (_k := ({code}, {env}, {arg})))) is not None "
                      f"and _h[1] <= _r: {hit}")
            self.emit("else: " + self.leaving(target, "_miss(_t, _k, _h, _b, _d + 1)", tail))
        self.emit("else: " + self.leaving(target, f"{code}.run({env}, {arg}, _b, _d + 1)", tail))

    # -- matches -----------------------------------------------------------------

    def arms(self, expr: EMatch, scrutinee: str, scope: Dict[str, str],
             target: Optional[str]) -> None:
        """A match's branches, tried in source order, each generated once; a
        constructor pattern compares its tag with the scrutinee's, read once."""
        start = self.pending
        tag = None
        if any(branch.pattern.__class__ is PCtor for branch in expr.branches):
            tag = self.fresh()
            self.emit(f"{tag} = {scrutinee}.ctor if {scrutinee}.__class__ is VCtor else None")
        for branch in expr.branches:
            self.pending = start
            inner = dict(scope)
            tests = ([f"{tag} == {self.const(branch.pattern.ctor)}"]
                     if tag and branch.pattern.__class__ is PCtor else [])
            with self.guard(branch.pattern, scrutinee, bool(tests), inner, tests) as tested:
                if target is None:
                    self.tail(branch.body, inner)
                else:
                    value = self.expr(branch.body, inner)
                    self.charge()
                    self.emit(f"{target} = {value}")
                    self.emit("break")
            if not tested:
                return  # the branches after one that always matches never run
        self.pending = start
        self.charge()
        self.emit(f"raise _no_match(_b, _r, {scrutinee})")

    @contextmanager
    def guard(self, pattern: Pattern, value: str, tag_checked: bool,
              scope: Dict[str, str], tests: List[str]) -> Iterator[bool]:
        """A block entered when ``value`` passes ``tests`` and matches
        ``pattern``, with its variables bound in ``scope``; yields whether
        there was a test."""
        binds: List[str] = []
        self.pattern(pattern, value, tag_checked, scope, tests, binds)
        with self.block("if " + " and ".join(tests) + ":") if tests else _NO_BLOCK:
            for line in binds:
                self.emit(line)
            yield bool(tests)

    def pattern(self, pattern: Pattern, value: str, tag_checked: bool,
                scope: Dict[str, str], tests: List[str], binds: List[str]) -> None:
        """Add ``pattern``'s tests against ``value`` (a local, or an item of
        one) and its binders' assignments.  With ``tag_checked`` the tag is
        known to be the pattern's, so only the payload is tested."""
        cls = pattern.__class__
        if cls is PWild:
            return
        if cls is PVar:
            if not value.isidentifier():
                local = self.fresh()
                binds.append(f"{local} = {value}")
                value = local
            scope[pattern.name] = value
            return
        if cls is not PCtor and cls is not PTuple:
            raise EvalError(f"unknown pattern node: {pattern!r}")
        local = value if value.isidentifier() else self.fresh()
        subject = local if local is value else f"({local} := {value})"
        if cls is PCtor:
            if not tag_checked:
                tests.append(f"{subject}.__class__ is VCtor")
                tests.append(f"{local}.ctor == {self.const(pattern.ctor)}")
            if pattern.payload is not None:
                payload = self.fresh()
                tests.append(f"({payload} := {local}.payload) is not None")
                self.pattern(pattern.payload, payload, False, scope, tests, binds)
            return
        items = self.fresh()
        tests.append(f"{subject}.__class__ is VTuple")
        tests.append(f"_len(({items} := {local}.items)) == {len(pattern.items)}")
        for index, item in enumerate(pattern.items):
            self.pattern(item, f"{items}[{index}]", False, scope, tests, binds)


_NO_BLOCK = nullcontext()

_NODES: Dict[type, Callable[[_Gen, Expr, Dict[str, str]], str]] = {
    EVar: _Gen.var, ECtor: _Gen.ctor, ETuple: _Gen.tuple_, EProj: _Gen.proj, EApp: _Gen.app,
    EFun: _Gen.fun, ELet: _Gen.let, EMatch: _Gen.match}
