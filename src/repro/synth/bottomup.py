"""Bottom-up term enumeration with observational-equivalence pruning.

The Myth-like synthesizer needs, for every branch of a candidate match
skeleton, the pool of well-typed terms over the branch's context together
with each term's behaviour on the branch's examples.  Building that pool
bottom-up and keeping only one term per distinct behaviour vector
(observational equivalence) is what keeps enumerative, example-directed
synthesis tractable; it is the standard technique behind enumerative
synthesizers in the Myth family.

A :class:`TermPool` holds, per result type, a list of :class:`TermEntry`
objects - the term, its size, and the tuple of values it produces on each
example environment.  Applications are evaluated *semantically* (component
function values applied to previously computed argument values) rather than
by re-interpreting whole expressions, so pool construction stays cheap.

Term structure is enumerated size by size (``_build_leaves`` /
``_build_size``); ``_build_applications`` tries every combination of
smaller entries as arguments of one component.  It works column-wise: a
combination's per-environment argument tuples are the columns of its
argument vectors, looked up in the component's outcome table and applied
only when the table has no outcome, stopping at the first crash.  The term
itself is built only when the resulting vector is new to the pool, so the
combinations that observational equivalence discards cost no AST.

With a :class:`~repro.synth.poolcache.SynthesisEvaluationCache` attached,
the outcome table is the component's table in the run's application memo,
so any ``(function, arguments)`` pair an earlier pool of the run evaluated
(crash outcomes included) is answered without running object-language code,
and a pool whose construction key matches a previously built pool replays
the stored term structure without evaluating anything at all.  Cached or
not, the entries produced - and their order - are identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.config import Deadline
from ..core.stats import InferenceStats
from ..enumeration.terms import ordered_partitions
from ..lang.ast import ECtor, EVar, Expr, app
from ..lang.errors import LangError
from ..lang.typecheck import TypeEnvironment
from ..lang.types import TData, Type, arrow_args, arrow_result
from ..lang.values import Value, VCtor
from ..lang.program import Program
from ..obs.events import NULL_EMITTER
from .poolcache import CRASHED, PoolSnapshot, SynthesisEvaluationCache

__all__ = ["TypedComponent", "TermEntry", "TermPool"]

#: "Constant-like" datatypes whose constructor applications the pool builds
#: (Peano naturals): numeric constants such as 1, 2, 3 and successor
#: patterns, without flooding the pool with container literals.
CONSTANT_DATATYPES = ("nat",)

#: Hard cap on the applications one pool tries before it stops growing.
MAX_APPLICATIONS = 60_000


@dataclass(frozen=True)
class TypedComponent:
    """A function available to synthesized terms, with its concrete signature.

    ``argument_restrictions`` limits argument positions to specific variable
    names; the synthesizer uses this to force the invariant's recursive call
    to take a structurally smaller argument.
    """

    name: str
    signature: Type
    fn: Value
    argument_restrictions: Tuple[Optional[frozenset], ...] = ()

    @cached_property
    def argument_types(self) -> Tuple[Type, ...]:
        return tuple(arrow_args(self.signature))

    @cached_property
    def result_type(self) -> Type:
        return arrow_result(self.signature)


@dataclass(frozen=True)
class TermEntry:
    """A candidate term together with its behaviour on the examples."""

    expr: Expr
    size: int
    vector: Tuple[Value, ...]
    variable: Optional[str] = None  # set when the term is a bare variable


class TermPool:
    """Size-stratified pools of terms, deduplicated by behaviour."""

    def __init__(self, program: Program,
                 components: Sequence[TypedComponent],
                 context: Sequence[Tuple[str, Type]],
                 environments: Sequence[Dict[str, Value]],
                 max_size: int,
                 deadline: Optional[Deadline] = None,
                 cache: Optional[SynthesisEvaluationCache] = None,
                 stats: Optional[InferenceStats] = None,
                 emitter: object = NULL_EMITTER):
        self.program = program
        self.types: TypeEnvironment = program.types
        self.components = tuple(components)
        self.context = tuple(context)
        self.environments = list(environments)
        self.max_size = max_size
        self.deadline = deadline or Deadline(None)
        self.cache = cache
        self.stats = stats
        self.emitter = emitter

        #: entries grouped by (result type, size)
        self._by_type_size: Dict[Tuple[Type, int], List[TermEntry]] = {}
        #: result type -> behaviour vector -> its entry.  Keyed per type so
        #: that an application probes a dict the caller fetched once, and
        #: hashes only its vector of hash-consed values.
        self._seen: Dict[Type, Dict[Tuple[Value, ...], TermEntry]] = {}
        #: every added entry with its result type, in insertion order (the
        #: replayable term structure of this pool)
        self._order: List[Tuple[Type, TermEntry]] = []
        self._applications = 0
        self._evaluations = 0
        self._build()

    # -- queries -----------------------------------------------------------------

    def entries(self, result_type: Type) -> List[TermEntry]:
        """All entries of the given type, smallest first."""
        found: List[TermEntry] = []
        for size in range(1, self.max_size + 1):
            found.extend(self._by_type_size.get((result_type, size), []))
        return found

    # -- construction ---------------------------------------------------------------

    def _add(self, result_type: Type, entry: TermEntry,
             seen: Optional[Dict[Tuple[Value, ...], TermEntry]] = None) -> bool:
        """Add ``entry`` unless its vector is known; ``seen`` is
        ``self._seen[result_type]`` when the caller has it."""
        if seen is None:
            seen = self._seen.setdefault(result_type, {})
        if entry.vector in seen:
            return False
        seen[entry.vector] = entry
        self._by_type_size.setdefault((result_type, entry.size), []).append(entry)
        self._order.append((result_type, entry))
        return True

    def _build(self) -> None:
        if not self.environments:
            return
        key = self._pool_key() if self.cache is not None else None
        if key is not None:
            snapshot = self.cache.pools.get(key)
            if snapshot is not None:
                self._replay(snapshot)
                if self.emitter.enabled:
                    # One event per pool, never per entry: replays happen a
                    # handful of times per synthesis call, entries millions.
                    self.emitter.emit("pool-replay",
                                      {"entries": len(self._order),
                                       "evaluations": self._evaluations},
                                      cat="cache")
                return
        self._build_leaves()
        for size in range(2, self.max_size + 1):
            self._build_size(size)
            if self._applications >= MAX_APPLICATIONS:
                break
        if key is not None:
            self.cache.pools.put(
                key, PoolSnapshot(tuple(self._order), self._applications,
                                  self._evaluations))
        if self.emitter.enabled:
            self.emitter.emit("pool-built",
                              {"entries": len(self._order),
                               "applications": self._applications,
                               "evaluations": self._evaluations},
                              cat="cache")

    def _pool_key(self) -> tuple:
        """Everything the construction depends on, as one hashable key.

        Component function values hash by identity for closures/natives, so
        a component whose semantics change between synthesis calls (the
        oracle-interpreted recursive call is rebuilt per call) never matches
        a stale pool.  The environments are projected onto the context - the
        only names a pool reads.
        """
        component_key = tuple(
            (c.name, c.signature, c.argument_restrictions, c.fn) for c in self.components
        )
        environment_key = tuple(
            tuple(env[name] for name, _ in self.context) for env in self.environments
        )
        return (self.context, component_key, environment_key, self.max_size)

    def _replay(self, snapshot: PoolSnapshot) -> None:
        """Reinstall a previously built pool's term structure verbatim."""
        for result_type, entry in snapshot.entries:
            self._by_type_size.setdefault((result_type, entry.size), []).append(entry)
        self._order = list(snapshot.entries)
        self._applications = snapshot.applications
        self._evaluations = snapshot.evaluations
        if self.stats is not None:
            # Credit every per-environment application the original build
            # performed: the replay serves all of them without evaluating
            # anything, in the same unit the memo's hits/misses use.
            self.stats.pool_cache_hits += snapshot.evaluations

    def _build_leaves(self) -> None:
        for name, ty in self.context:
            vector = tuple(env[name] for env in self.environments)
            self._add(ty, TermEntry(EVar(name), 1, vector, variable=name))
        for datatype in self._relevant_datatypes():
            for ctor in self.types.datatype_ctors(datatype):
                if ctor.payload is None:
                    value = VCtor(ctor.name)
                    vector = tuple(value for _ in self.environments)
                    self._add(TData(datatype), TermEntry(ECtor(ctor.name), 1, vector))
        # Nullary components (declared constants such as ``zero : nat``) are
        # size-1 leaves: they have no argument positions for ``_build_size``
        # to fill, so without this they could never appear in any term.
        for component in self.components:
            if component.argument_types:
                continue
            vector = tuple(component.fn for _ in self.environments)
            self._add(component.result_type,
                      TermEntry(EVar(component.name), 1, vector))

    def _relevant_datatypes(self) -> List[str]:
        names = {"bool"}
        for _, ty in self.context:
            if isinstance(ty, TData):
                names.add(ty.name)
        for component in self.components:
            for ty in component.argument_types:
                if isinstance(ty, TData):
                    names.add(ty.name)
            if isinstance(component.result_type, TData):
                names.add(component.result_type.name)
        return sorted(n for n in names if n in self.types.datatypes)

    def _build_size(self, size: int) -> None:
        for datatype in CONSTANT_DATATYPES:
            if datatype not in self.types.datatypes:
                continue
            goal = TData(datatype)
            for ctor in self.types.datatype_ctors(datatype):
                if ctor.payload is None:
                    continue
                for entry in self._by_type_size.get((ctor.payload, size - 1), []):
                    vector = tuple(VCtor(ctor.name, v) for v in entry.vector)
                    self._add(goal, TermEntry(ECtor(ctor.name, entry.expr), size, vector))

        for component in self.components:
            arg_types = component.argument_types
            if not arg_types:
                continue
            arity = len(arg_types)
            budget = size - arity - 1
            if budget < arity:
                continue
            for arg_sizes in ordered_partitions(budget, arity):
                self._build_applications(component, arg_sizes, size)
                if self._applications >= MAX_APPLICATIONS:
                    return

    def _build_applications(self, component: TypedComponent,
                            arg_sizes: Tuple[int, ...], size: int) -> None:
        pools: List[List[TermEntry]] = []
        for index, (arg_type, arg_size) in enumerate(zip(component.argument_types, arg_sizes)):
            restriction = (
                component.argument_restrictions[index]
                if index < len(component.argument_restrictions)
                else None
            )
            pool = self._by_type_size.get((arg_type, arg_size), [])
            if restriction is not None:
                pool = [e for e in pool if e.variable is not None and e.variable in restriction]
            if not pool:
                return
            pools.append(pool)

        result_type = component.result_type
        fn = component.fn
        apply = self.program.apply
        seen = self._seen.setdefault(result_type, {})
        memo = self.cache.applications if self.cache is not None else None
        outcomes = memo.table(fn) if memo is not None else {}
        applications = self._applications
        cap = MAX_APPLICATIONS
        evaluations = misses = 0
        try:
            # ``product`` varies its last pool fastest; the reversed pools and
            # combinations make the first argument vary fastest instead.
            for combo in product(*reversed(pools)):
                if applications >= cap:
                    return
                applications += 1
                if applications % 512 == 0:
                    self.deadline.check()
                results: List[Value] = []
                for args in zip(*[entry.vector for entry in reversed(combo)]):
                    evaluations += 1
                    outcome = outcomes.get(args)
                    if outcome is None:
                        misses += 1
                        try:
                            outcome = apply(fn, *args)
                        except (LangError, KeyError, ValueError):
                            outcome = CRASHED
                        if memo is not None:
                            memo.put(fn, args, outcome)
                    if outcome is CRASHED:
                        break
                    results.append(outcome)
                else:
                    vector = tuple(results)
                    if vector not in seen:
                        expr = app(EVar(component.name),
                                   *[entry.expr for entry in reversed(combo)])
                        self._add(result_type, TermEntry(expr, size, vector), seen)
        finally:
            self._applications = applications
            self._evaluations += evaluations
            if memo is not None and self.stats is not None:
                self.stats.pool_cache_hits += evaluations - misses
                self.stats.pool_cache_misses += misses
