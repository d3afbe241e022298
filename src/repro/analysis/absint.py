"""An abstract interpreter for the object language, and the static verdicts
built on it.

The HAN006 lint (docs/analysis.md) uses it to find operations that cannot
preserve a module's expected invariant.  Where the paper's ``Verify`` tests
an inductiveness obligation by bounded enumeration (Section 4.3, "unsound
but effective"), this module *evaluates the obligation abstractly* over the
domains of :mod:`repro.analysis.domains` and reports one of three verdicts:

* ``PROVEN`` - the abstract post-state entails the predicate on every
  completing execution, so enumeration cannot find a counterexample;
* ``REFUTED`` - every completing execution violates the predicate, so
  enumeration will find a counterexample as soon as one application
  completes;
* ``UNKNOWN`` - the abstraction is too coarse to decide.

Design notes
------------
Evaluation produces an :class:`AbsResult`: an abstract value (``None`` =
bottom, i.e. no completing execution) plus a ``may_fail`` bit tracking
whether evaluation may raise a :class:`~repro.lang.errors.LangError`
(unmatched ``match``, fuel exhaustion, unknown application).  The bit
matters because :class:`~repro.core.predicate.Predicate` maps evaluation
errors to ``False``: a ``PROVEN`` verdict therefore requires both a
definitely-``True`` abstract value *and* crash-freedom.

Function calls go through per-``(function, abstract arguments)`` summaries
with an assumption-based fixpoint: a recursive self-call returns the
current assumption (starting at bottom) and the frame iterates until the
result is stable, widening (:func:`~repro.analysis.domains.widen`) after a
few rounds so the chain is finite.  Call keys reached *under* someone
else's in-progress assumption are not memoized (the outer fixpoint
recomputes them), which keeps mutual recursion sound without a full
worklist.  Summary iteration order follows the bottom-up SCC order of
:func:`repro.analysis.callgraph.strongly_connected_components` implicitly -
callees stabilize (and memoize) before their callers' frames close.

Termination is *not* assumed: a frame whose own assumption was hit (a real
recursive cycle in the abstraction) is marked ``may_fail`` unless
:func:`repro.analysis.callgraph.check_structural_recursion` proves the
function structurally decreasing and it is not mutually recursive -
concretely, unproven recursion may burn evaluation fuel, which surfaces as
a :class:`~repro.lang.errors.LangError`.  Pure expressions
(:func:`repro.analysis.canon.is_pure`) skip the fixpoint entirely: they
cannot crash, diverge, or recurse.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..lang.ast import (
    EApp,
    ECtor,
    EFun,
    ELet,
    EMatch,
    EProj,
    ETuple,
    EVar,
    Expr,
    FunDecl,
    Pattern,
    PCtor,
    PTuple,
    PVar,
    PWild,
    free_vars,
)
from ..lang.typecheck import CtorInfo
from ..lang.types import TAbstract, TArrow, Type, mentions_abstract
from .callgraph import (
    build_call_graph,
    check_structural_recursion,
    strongly_connected_components,
)
from .canon import is_pure
from .domains import (
    ABS_FUN,
    ABS_TOP,
    AbsData,
    AbsNat,
    AbsTuple,
    AbsValue,
    Interval,
    NAT,
    PARITY_EVEN,
    abs_data,
    abs_nat,
    definitely_false,
    definitely_true,
    interval_meet,
    join,
    nat_const,
    parity_flip,
    size_of,
    top_of,
    widen,
)

__all__ = [
    "PROVEN",
    "REFUTED",
    "UNKNOWN",
    "TRIVIAL",
    "AbsResult",
    "AbstractInterpreter",
    "AbstractChecker",
]

#: Static verdicts on one verification obligation.
PROVEN = "proven"
REFUTED = "refuted"
UNKNOWN = "unknown"
#: The obligation is vacuous (the enumerative checker's own pre-filter
#: returns VALID without doing any work), so it is not a static *proof*.
TRIVIAL = "trivial"


@dataclass(frozen=True)
class AbsResult:
    """One abstract evaluation outcome.

    ``value`` over-approximates the results of every *completing* concrete
    execution (``None`` = no execution completes); ``may_fail`` is set
    unless no concrete execution can raise a :class:`LangError`.
    """

    value: Optional[AbsValue]
    may_fail: bool


_BOTTOM = AbsResult(None, False)
_TOP_FAIL = AbsResult(ABS_TOP, True)


class _Budget(Exception):
    """Internal: the per-query node budget is exhausted (result: unknown)."""


class _Frame:
    __slots__ = ("result", "hit", "external")

    def __init__(self) -> None:
        self.result: AbsResult = _BOTTOM
        self.hit = False          # this frame's own assumption was used
        self.external = False     # evaluated under another frame's assumption


class AbstractInterpreter:
    """Abstract evaluation of one program's declarations."""

    MAX_ITERS = 8        # fixpoint rounds per call frame before giving up
    WIDEN_AFTER = 3      # rounds of plain join before widening kicks in
    MAX_DEPTH = 32       # active call frames (distinct abstract call keys)
    MAX_MEMO = 4096      # persistent summary entries
    NODE_BUDGET = 200_000  # expression nodes visited per public query

    def __init__(self, program, extra_decls: Sequence[FunDecl] = ()) -> None:
        self.program = program
        self.types = program.types
        self._decls: Dict[str, FunDecl] = {
            decl.name: decl for decl in program.declarations
            if isinstance(decl, FunDecl)
        }
        for decl in extra_decls:
            self._decls[decl.name] = decl
        # Mutual-recursion detection reuses the call graph's SCCs: a name in
        # a multi-member component has no structural-termination certificate.
        graph = build_call_graph(list(self._decls.values()))
        self._mutual = set()
        for component in strongly_connected_components(graph):
            if len(component) > 1:
                self._mutual |= component
        self._terminating: Dict[str, bool] = {}
        self._memo: Dict[tuple, AbsResult] = {}
        self._active: Dict[tuple, _Frame] = {}
        self._stack: List[tuple] = []
        self._nodes = 0

    # -- public API -------------------------------------------------------------

    def call_function(self, name: str, args: Tuple[AbsValue, ...]) -> AbsResult:
        """Abstractly apply a program global to fully-applied arguments."""
        decl = self._decls.get(name)
        if decl is None or len(decl.params) != len(args):
            return _TOP_FAIL
        return self._query(decl, args, self._memo)

    def apply_decl(self, decl: FunDecl, args: Tuple[AbsValue, ...]) -> AbsResult:
        """Abstractly apply a declaration that is *not* part of the program
        (a candidate invariant, an oracle).  Its summaries are ephemeral -
        the declaration's name may be reused by a different body later."""
        if len(decl.params) != len(args):
            return _TOP_FAIL
        local_memo: Dict[tuple, AbsResult] = {}
        saved = self._local
        self._local = (decl, local_memo)
        try:
            return self._query(decl, args, local_memo)
        finally:
            self._local = saved

    _local: Optional[Tuple[FunDecl, Dict[tuple, AbsResult]]] = None

    # -- call summaries ---------------------------------------------------------

    def _query(self, decl: FunDecl, args: Tuple[AbsValue, ...],
               memo: Dict[tuple, AbsResult]) -> AbsResult:
        self._nodes = 0
        try:
            return self._call(decl, args, memo)
        except _Budget:
            return _TOP_FAIL
        finally:
            # A budget abort unwinds through open frames; drop them all.
            self._active.clear()
            del self._stack[:]

    def _terminates(self, decl: FunDecl) -> bool:
        cached = self._terminating.get(decl.name)
        if cached is None:
            cached = (decl.name not in self._mutual
                      and check_structural_recursion(decl) is None)
            self._terminating[decl.name] = cached
        return cached

    def _call(self, decl: FunDecl, args: Tuple[AbsValue, ...],
              memo: Dict[tuple, AbsResult]) -> AbsResult:
        # Pure bodies cannot crash, diverge, or recurse: one evaluation.
        if is_pure(decl.body):
            key = (decl.name, args)
            cached = memo.get(key)
            if cached is None:
                env = {name: value for (name, _), value in zip(decl.params, args)}
                result = self._eval(decl.body, env)
                cached = AbsResult(result.value, False)
                if len(memo) < self.MAX_MEMO:
                    memo[key] = cached
            return cached

        key = (decl.name, args)
        cached = memo.get(key)
        if cached is not None:
            return cached
        frame = self._active.get(key)
        if frame is not None:
            # An in-progress assumption: everything above it on the stack now
            # depends on it and must not be memoized until it stabilizes.
            frame.hit = True
            index = self._stack.index(key)
            for above in self._stack[index + 1:]:
                self._active[above].external = True
            return frame.result
        if len(self._active) >= self.MAX_DEPTH:
            return _TOP_FAIL

        frame = _Frame()
        self._active[key] = frame
        self._stack.append(key)
        try:
            env_base = [name for name, _ in decl.params]
            for iteration in range(self.MAX_ITERS):
                frame.hit = False
                env = dict(zip(env_base, args))
                latest = self._eval(decl.body, env)
                merged_value = join(frame.result.value, latest.value)
                if iteration >= self.WIDEN_AFTER:
                    merged_value = widen(frame.result.value, merged_value)
                merged = AbsResult(merged_value,
                                   frame.result.may_fail or latest.may_fail)
                if merged == frame.result:
                    break  # stable (with or without a recursion hit)
                frame.result = merged
                if not frame.hit:
                    break  # no self-dependence: one pass is exact
            else:
                frame.result = _TOP_FAIL
        finally:
            self._stack.pop()
            del self._active[key]

        result = frame.result
        if frame.hit and not self._terminates(decl):
            # Real recursion without a termination certificate: concretely it
            # may burn evaluation fuel, which raises.
            result = AbsResult(result.value, True)
        if not frame.external and len(memo) < self.MAX_MEMO:
            memo[key] = result
        return result

    def _resolve_decl(self, name: str) -> Optional[FunDecl]:
        if self._local is not None and self._local[0].name == name:
            return self._local[0]
        return self._decls.get(name)

    def _memo_for(self, decl: FunDecl) -> Dict[tuple, AbsResult]:
        if self._local is not None and self._local[0] is decl:
            return self._local[1]
        return self._memo

    # -- transfer functions -----------------------------------------------------

    def _eval(self, expr: Expr, env: Dict[str, AbsValue]) -> AbsResult:
        self._nodes += 1
        if self._nodes > self.NODE_BUDGET:
            raise _Budget()

        if isinstance(expr, EVar):
            value = env.get(expr.name)
            if value is not None:
                return AbsResult(value, False)
            decl = self._resolve_decl(expr.name)
            if decl is None:
                return _TOP_FAIL  # unknown global (native); stay sound
            if decl.params:
                return AbsResult(ABS_FUN, False)
            return self._call(decl, (), self._memo_for(decl))

        if isinstance(expr, ECtor):
            return self._eval_ctor(expr, env)

        if isinstance(expr, ETuple):
            items: List[AbsValue] = []
            may_fail = False
            for item in expr.items:
                result = self._eval(item, env)
                may_fail = may_fail or result.may_fail
                if result.value is None:
                    return AbsResult(None, may_fail)
                items.append(result.value)
            return AbsResult(AbsTuple(tuple(items)), may_fail)

        if isinstance(expr, EProj):
            result = self._eval(expr.expr, env)
            if result.value is None:
                return result
            if isinstance(result.value, AbsTuple) and \
                    expr.index < len(result.value.items):
                return AbsResult(result.value.items[expr.index], result.may_fail)
            return AbsResult(ABS_TOP, result.may_fail)

        if isinstance(expr, EFun):
            return AbsResult(ABS_FUN, False)

        if isinstance(expr, ELet):
            # Dead pure bindings evaluate to nothing observable.
            if expr.name not in free_vars(expr.body) and is_pure(expr.value):
                return self._eval(expr.body, env)
            bound = self._eval(expr.value, env)
            if bound.value is None:
                return bound
            body_env = dict(env)
            body_env[expr.name] = bound.value
            result = self._eval(expr.body, body_env)
            return AbsResult(result.value, bound.may_fail or result.may_fail)

        if isinstance(expr, EApp):
            return self._eval_app(expr, env)

        if isinstance(expr, EMatch):
            return self._eval_match(expr, env)

        return _TOP_FAIL  # unforeseen node: stay sound

    def _eval_ctor(self, expr: ECtor, env: Dict[str, AbsValue]) -> AbsResult:
        info = self.types.ctors.get(expr.ctor)
        if expr.payload is None:
            if info is not None and info.datatype == NAT:
                return AbsResult(nat_const(0), False)
            datatype = info.datatype if info is not None else "?"
            return AbsResult(
                AbsData(datatype, frozenset((expr.ctor,)), Interval(1, 1)), False)
        payload = self._eval(expr.payload, env)
        if payload.value is None:
            return payload
        if info is not None and info.datatype == NAT:  # S payload
            if isinstance(payload.value, AbsNat):
                value = abs_nat(payload.value.interval.shift(1),
                                parity_flip(payload.value.parity))
                value = value if value is not None else AbsNat(Interval(1, None))
            else:
                value = AbsNat(Interval(1, None))
            return AbsResult(value, payload.may_fail)
        datatype = info.datatype if info is not None else "?"
        size = size_of(payload.value).shift(1)
        return AbsResult(AbsData(datatype, frozenset((expr.ctor,)), size),
                         payload.may_fail)

    def _eval_app(self, expr: EApp, env: Dict[str, AbsValue]) -> AbsResult:
        head: Expr = expr
        arg_exprs: List[Expr] = []
        while isinstance(head, EApp):
            arg_exprs.append(head.arg)
            head = head.fn
        arg_exprs.reverse()

        may_fail = False
        args: List[AbsValue] = []
        for arg_expr in arg_exprs:
            result = self._eval(arg_expr, env)
            may_fail = may_fail or result.may_fail
            if result.value is None:
                return AbsResult(None, may_fail)
            args.append(result.value)

        decl = None
        if isinstance(head, EVar) and head.name not in env:
            decl = self._resolve_decl(head.name)
        if decl is None or not decl.params:
            # A higher-order argument, a lambda, a native, or a zero-param
            # global somehow applied: opaque application.
            return _TOP_FAIL
        arity = len(decl.params)
        if len(args) < arity:
            return AbsResult(ABS_FUN, may_fail)  # partial application
        result = self._call(decl, tuple(args[:arity]), self._memo_for(decl))
        may_fail = may_fail or result.may_fail
        if result.value is None or len(args) == arity:
            return AbsResult(result.value, may_fail)
        return _TOP_FAIL  # applying a returned closure: opaque

    # -- match ------------------------------------------------------------------

    def _eval_match(self, expr: EMatch, env: Dict[str, AbsValue]) -> AbsResult:
        scrutinee = self._eval(expr.scrutinee, env)
        if scrutinee.value is None:
            return scrutinee
        may_fail = scrutinee.may_fail
        remaining: Optional[AbsValue] = scrutinee.value
        value: Optional[AbsValue] = None
        for branch in expr.branches:
            if remaining is None:
                break  # dead branch: earlier patterns must have matched
            outcome = self._match(branch.pattern, remaining)
            if outcome is not None:
                bindings, must = outcome
                branch_env = dict(env)
                branch_env.update(bindings)
                result = self._eval(branch.body, branch_env)
                may_fail = may_fail or result.may_fail
                value = join(value, result.value)
                remaining = (None if must
                             else self._subtract(remaining, branch.pattern))
        if remaining is not None:
            may_fail = True  # some value may fall off the end of the match
        return AbsResult(value, may_fail)

    def _match(self, pattern: Pattern, abs_value: AbsValue,
               ) -> Optional[Tuple[Dict[str, AbsValue], bool]]:
        """``None`` when the pattern cannot match ``abs_value``; otherwise
        the variable bindings and whether the match is guaranteed."""
        if isinstance(pattern, PWild):
            return {}, True
        if isinstance(pattern, PVar):
            return {pattern.name: abs_value}, True
        if isinstance(pattern, PTuple):
            items: Sequence[AbsValue]
            if isinstance(abs_value, AbsTuple) and \
                    len(abs_value.items) == len(pattern.items):
                items = abs_value.items
            else:
                items = (ABS_TOP,) * len(pattern.items)
            bindings: Dict[str, AbsValue] = {}
            must = True
            for sub, item in zip(pattern.items, items):
                outcome = self._match(sub, item)
                if outcome is None:
                    return None
                sub_bindings, sub_must = outcome
                bindings.update(sub_bindings)
                must = must and sub_must
            return bindings, must
        if isinstance(pattern, PCtor):
            return self._match_ctor(pattern, abs_value)
        return {}, False  # unforeseen pattern: assume it may match

    def _match_ctor(self, pattern: PCtor, abs_value: AbsValue,
                    ) -> Optional[Tuple[Dict[str, AbsValue], bool]]:
        info = self.types.ctors.get(pattern.ctor)

        if isinstance(abs_value, AbsNat):
            if pattern.ctor == "O":
                if not abs_value.interval.contains(0) or \
                        not abs_value.parity & PARITY_EVEN:
                    return None
                return {}, abs_value.interval.hi == 0
            if pattern.ctor == "S":
                refined = interval_meet(abs_value.interval, Interval(1, None))
                if refined is None:
                    return None
                predecessor = abs_nat(refined.shift(-1),
                                      parity_flip(abs_value.parity))
                if predecessor is None:
                    return None
                must = abs_value.interval.lo >= 1
                if pattern.payload is None:
                    return {}, must
                outcome = self._match(pattern.payload, predecessor)
                if outcome is None:
                    return None
                bindings, sub_must = outcome
                return bindings, must and sub_must
            return None  # a non-nat constructor against a nat: ill-typed

        if isinstance(abs_value, AbsData):
            if pattern.ctor not in abs_value.ctors:
                return None
            must = abs_value.ctors == frozenset((pattern.ctor,))
            if pattern.payload is None:
                return {}, must
            payload_abs = self._payload_abs(info, abs_value.size)
            outcome = self._match(pattern.payload, payload_abs)
            if outcome is None:
                return None
            bindings, sub_must = outcome
            return bindings, must and sub_must

        # ABS_TOP (or an ill-typed shape): the match may or may not happen.
        if pattern.payload is None:
            return {}, False
        payload_abs = self._payload_abs(info, Interval(1, None))
        outcome = self._match(pattern.payload, payload_abs)
        if outcome is None:
            return None
        bindings, _ = outcome
        return bindings, False

    def _payload_abs(self, info: Optional[CtorInfo],
                     parent_size: Interval) -> AbsValue:
        """The abstraction of a constructor payload, refined by the parent's
        size interval (payload size = parent size - 1)."""
        if info is None or info.payload is None:
            return ABS_TOP
        top = top_of(info.payload, self.types)
        payload_size = parent_size.shift(-1)
        if isinstance(top, AbsNat):
            # A nat of size s has value s - 1.
            refined = abs_nat(payload_size.shift(-1), top.parity)
            return refined if refined is not None else top
        if isinstance(top, AbsData):
            size = interval_meet(top.size, Interval(max(1, payload_size.lo),
                                                    payload_size.hi))
            refined = abs_data(top.datatype, top.ctors, size)
            return refined if refined is not None else top
        return top

    def _subtract(self, abs_value: AbsValue,
                  pattern: Pattern) -> Optional[AbsValue]:
        """What remains of ``abs_value`` after ``pattern`` failed to match.

        Only head constructors of patterns with irrefutable payloads are
        subtracted; anything finer conservatively keeps the abstraction."""
        if not isinstance(pattern, PCtor):
            return abs_value
        payload_irrefutable = (pattern.payload is None
                               or _irrefutable(pattern.payload))
        if not payload_irrefutable:
            return abs_value
        if isinstance(abs_value, AbsNat):
            if pattern.ctor == "O":
                return abs_nat(interval_meet(abs_value.interval, Interval(1, None)),
                               abs_value.parity)
            if pattern.ctor == "S":
                return abs_nat(interval_meet(abs_value.interval, Interval(0, 0)),
                               abs_value.parity & PARITY_EVEN)
            return abs_value
        if isinstance(abs_value, AbsData):
            return abs_data(abs_value.datatype,
                            abs_value.ctors - frozenset((pattern.ctor,)),
                            abs_value.size)
        return abs_value


def _irrefutable(pattern: Pattern) -> bool:
    if isinstance(pattern, (PWild, PVar)):
        return True
    if isinstance(pattern, PTuple):
        return all(_irrefutable(item) for item in pattern.items)
    return False


# -- obligation verdicts ---------------------------------------------------------


class AbstractChecker:
    """Static PROVEN / REFUTED / UNKNOWN verdicts on the per-operation
    conditional-inductiveness obligations of one loaded module."""

    def __init__(self, program, definition,
                 extra_decls: Sequence[FunDecl] = ()) -> None:
        self.definition = definition
        self.interpreter = AbstractInterpreter(program, extra_decls=extra_decls)
        self.types = program.types

    def abstract_input(self) -> AbsValue:
        """The abstraction of every value of the concrete type: a sound
        over-approximation of the values satisfying any candidate."""
        return top_of(self.definition.concrete_type, self.types)

    # -- predicate application --------------------------------------------------

    def predicate_verdict(self, q_decl: FunDecl,
                          produced: AbsValue) -> str:
        """Does ``q`` definitely hold / definitely fail on ``produced``?

        ``Predicate.__call__`` maps evaluation errors to ``False``, so
        ``PROVEN`` needs a crash-free definitely-``True`` result, while
        ``REFUTED`` only needs that no execution returns ``True``."""
        result = self.interpreter.apply_decl(q_decl, (produced,))
        if not result.may_fail and definitely_true(result.value):
            return PROVEN
        if result.value is None or definitely_false(result.value):
            return REFUTED
        return UNKNOWN

    # -- obligations ------------------------------------------------------------

    def operation_verdict(self, operation, q_decl: FunDecl,
                          abstract_abs: AbsValue) -> str:
        """One operation's conditional-inductiveness obligation.

        Mirrors the enumerative :meth:`ConditionalInductivenessChecker
        ._check_operation` skip conditions: crashing applications are not
        counterexamples there, so a crash-possible operation can still be
        PROVEN as long as every *completing* result satisfies ``q``."""
        argument_types = operation.argument_types
        if not operation.produces_abstract and not any(
            isinstance(t, TArrow) and mentions_abstract(t)
            for t in argument_types
        ):
            return TRIVIAL  # the enumerative pre-filter is VALID for free
        if any(isinstance(t, TArrow) for t in argument_types):
            return UNKNOWN  # contract instrumentation is not modeled
        args: List[AbsValue] = []
        for interface_type in argument_types:
            if isinstance(interface_type, TAbstract):
                args.append(abstract_abs)
            elif mentions_abstract(interface_type):
                return UNKNOWN  # mixed positions: enumerative raises too
            else:
                args.append(top_of(interface_type, self.types))
        result = self.interpreter.call_function(operation.name, tuple(args))
        if result.value is None:
            return PROVEN  # no application completes; all are skipped
        produced = _abstract_parts(result.value, operation.result_type)
        if not produced:
            return PROVEN
        verdicts = {self.predicate_verdict(q_decl, part) for part in produced}
        if verdicts == {PROVEN}:
            return PROVEN
        if verdicts == {REFUTED} and not result.may_fail:
            # Every completing application definitely violates (the
            # abstraction cannot show that an application *exists*).
            return REFUTED
        return UNKNOWN


def _abstract_parts(abs_value: AbsValue, interface_type: Type) -> List[AbsValue]:
    """Abstract counterpart of :func:`repro.contracts.firstorder
    .collect_abstract`: the components of a result at abstract positions."""
    if isinstance(interface_type, TAbstract):
        return [abs_value]
    if not mentions_abstract(interface_type):
        return []
    # A product mentioning the abstract type: descend component-wise.
    parts: List[AbsValue] = []
    items = getattr(interface_type, "items", ())
    if isinstance(abs_value, AbsTuple) and len(abs_value.items) == len(items):
        for item_value, item_type in zip(abs_value.items, items):
            parts.extend(_abstract_parts(item_value, item_type))
    else:
        for item_type in items:
            if mentions_abstract(item_type):
                parts.append(ABS_TOP)
    return parts
