"""A Myth-like type-and-example-directed enumerative synthesizer.

The paper instantiates Hanoi's ``Synth`` component with Myth [Osera &
Zdancewic 2015], a type- and example-directed synthesizer able to produce
recursive functions over algebraic data types.  This module provides an
equivalent component built from scratch:

* candidates are recursive predicates ``inv : tau_c -> bool``;
* the search is *type-directed*: it proposes match skeletons over the
  argument (and, one level deep by default, over its components) whose branch
  bodies are well-typed boolean terms over the branch context;
* the search is *example-directed*: the loop's V+ / V- examples (made
  trace-complete, Section 4.3) are routed to the skeleton branches, branch
  bodies are enumerated bottom-up with observational-equivalence pruning, and
  only bodies consistent with the routed examples survive;
* recursive calls are interpreted against the example oracle during search
  (exactly Myth's treatment of recursive functions) and are restricted to
  structurally smaller arguments, so synthesized invariants always terminate;
* like the paper's modified Myth, a synthesis call returns a *set* of
  candidates (best first) so the results can be cached and replayed
  (Section 4.4).

Differences from Myth proper are intentional simplifications: branch
bodies are found either as single enumerated terms or as bounded
conjunctions of enumerated atoms, which covers the invariant shapes
exercised by the benchmark suite (no-duplicates, sortedness, heap ordering,
cached-size consistency, ...).
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..analysis.reachability import split_components
from ..core.config import Deadline, SynthesisBounds
from ..core.module import ModuleInstance
from ..core.predicate import INVARIANT_NAME, Predicate
from ..core.stats import InferenceStats
from ..enumeration.ordering import diagonal_product
from ..lang.ast import (
    Branch,
    ECtor,
    EMatch,
    EVar,
    Expr,
    PCtor,
    PTuple,
    PVar,
    app,
    expr_size,
    free_vars,
)
from ..lang.types import TArrow, TData, TProd, Type, arrow
from ..lang.values import FALSE, TRUE, Value, VCtor, VNative, VTuple, v_bool, value_size
from ..obs.events import NULL_EMITTER
from .base import SynthesisFailure
from .bottomup import TermPool, TypedComponent
from .examples import ExampleOracle
from .poolcache import SynthesisEvaluationCache

__all__ = ["MythSynthesizer"]

#: Maximum branch-body candidates kept per branch before combining branches.
_PER_BRANCH_CANDIDATES = 4
#: Maximum atoms considered by the exhaustive pair search for conjunctions.
_MAX_PAIR_ATOMS = 40

Example = Tuple[Dict[str, Value], bool]


class MythSynthesizer:
    """Type-and-example-directed synthesis of representation invariants."""

    def __init__(self, instance: ModuleInstance,
                 bounds: SynthesisBounds = SynthesisBounds(),
                 stats: Optional[InferenceStats] = None,
                 deadline: Optional[Deadline] = None,
                 extra_components: Optional[Dict[str, Tuple[Type, Value]]] = None,
                 pool_cache: Optional[SynthesisEvaluationCache] = None,
                 emitter: object = NULL_EMITTER):
        self.instance = instance
        self.program = instance.program
        self.concrete_type = instance.concrete_type
        self.bounds = bounds
        self.stats = stats
        self.deadline = deadline or Deadline(None)
        self.extra_components = dict(extra_components or {})
        self.pool_cache = pool_cache
        self.emitter = emitter
        #: Oracle-interpreting recursive-call functions, keyed by the oracle
        #: mapping they interpret.  Reusing the same function value for equal
        #: mappings lets the pool cache replay recursive-call pools across
        #: synthesize() calls whose examples did not change.
        self._oracle_fns: Dict[frozenset, Value] = {}
        #: Memoized reachability pruning: component-name set it was computed
        #: for, and the unusable names it found.
        self._unusable_for: Optional[frozenset] = None
        self._unusable: frozenset = frozenset()
        self.param = self._fresh_name("x")

    # -- public API ----------------------------------------------------------------

    def synthesize(self, positives: Iterable[Value],
                   negatives: Iterable[Value]) -> List[Predicate]:
        """Return candidate invariants separating the example sets, best first."""
        emitter = self.emitter
        if not emitter.enabled:
            return self._synthesize(positives, negatives)
        data = {}
        try:
            data = {"positives": len(positives), "negatives": len(negatives)}
        except TypeError:
            pass
        with emitter.span("synthesis", data or None):
            return self._synthesize(positives, negatives)

    def _synthesize(self, positives: Iterable[Value],
                    negatives: Iterable[Value]) -> List[Predicate]:
        timer = self.stats.synthesis() if self.stats is not None else nullcontext()
        with timer:
            oracle = ExampleOracle.build(
                positives, negatives, self.concrete_type, self.program.types
            )
            bodies = self._candidate_bodies(oracle)
            predicates: List[Predicate] = []
            seen = set()
            for body in bodies:
                if body in seen:
                    continue
                seen.add(body)
                recursive = INVARIANT_NAME in free_vars(body)
                predicate = Predicate.from_body(
                    body, self.param, self.concrete_type, self.program,
                    recursive=recursive, name=INVARIANT_NAME,
                )
                # The oracle interprets recursive calls during the search; the
                # real (self-referential) semantics can differ, so candidates
                # are re-validated against the actual example sets.
                if predicate.consistent_with(oracle.positives, oracle.negatives):
                    predicates.append(predicate)
                if len(predicates) >= self.bounds.max_candidates:
                    break
            if not predicates:
                raise SynthesisFailure(
                    f"no invariant consistent with {len(oracle.positives)} positive and "
                    f"{len(oracle.negatives)} negative examples within the search bounds"
                )
            return predicates

    # -- candidate generation ---------------------------------------------------------

    def _candidate_bodies(self, oracle: ExampleOracle) -> List[Expr]:
        """All candidate invariant bodies, smallest first.

        The oracle-interpreting function value for the recursive call is
        stashed on the instance for the duration of the call, so the
        recursive-call component can use it.  It is one object per
        *oracle mapping*: shared by every branch pool of the call (so the
        evaluation cache can memoize its applications), reused across calls
        whose examples are identical (their pools replay wholesale), and
        fresh whenever the mapping changed (so no cache entry is ever
        answered by a stale oracle).
        """
        fingerprint = frozenset(oracle.mapping.items())
        recursive_fn = self._oracle_fns.get(fingerprint)
        if recursive_fn is None:

            def oracle_call(value: Value) -> Value:
                return v_bool(oracle.expected(value))

            recursive_fn = VNative(oracle_call, name=INVARIANT_NAME)
            if len(self._oracle_fns) < 256:
                self._oracle_fns[fingerprint] = recursive_fn
        self.__recursive_fn = recursive_fn
        try:
            examples: List[Example] = [
                ({self.param: value}, expected)
                for value, expected in sorted(
                    oracle.mapping.items(), key=lambda kv: value_size(kv[0])
                )
            ]
            context: Tuple[Tuple[str, Type], ...] = ((self.param, self.concrete_type),)

            bodies: List[Expr] = []
            # Match-free candidates (this is where ``fun _ -> true`` comes from).
            bodies.extend(self._leaf_bodies(context, examples, frozenset(), oracle))
            # Candidates that destructure the argument.
            bodies.extend(
                self._match_bodies(self.param, context, examples, frozenset(), oracle,
                                   depth=1, matched=frozenset())
            )
            bodies.sort(key=expr_size)
            return bodies
        finally:
            del self.__recursive_fn

    # -- match skeletons -----------------------------------------------------------------

    def _match_bodies(self, scrutinee: str, context: Tuple[Tuple[str, Type], ...],
                      examples: Sequence[Example], decreasing: frozenset,
                      oracle: ExampleOracle, depth: int,
                      matched: frozenset) -> List[Expr]:
        """Candidates of the form ``match scrutinee with ...``.

        ``matched`` holds the names every enclosing match (and this one)
        already destructured; branch bodies skip them so no candidate
        re-matches a scrutinee inside its own match.
        """
        self.deadline.check()
        scrutinee_type = dict(context)[scrutinee]
        matched = matched | {scrutinee}

        if isinstance(scrutinee_type, TProd):
            return self._tuple_match_bodies(
                scrutinee, scrutinee_type, context, examples, decreasing, oracle,
                depth, matched
            )
        if not isinstance(scrutinee_type, TData):
            return []
        if scrutinee_type.name not in self.program.types.datatypes:
            return []
        if scrutinee_type.name == "bool":
            return []

        ctors = self.program.types.datatype_ctors(scrutinee_type.name)
        branch_options: List[List[Tuple[PCtor, Expr]]] = []
        for position, ctor in enumerate(ctors):
            pattern, bindings = self._ctor_pattern(ctor, scrutinee_type, depth)
            routed: List[Example] = []
            for env, expected in examples:
                value = env[scrutinee]
                if not isinstance(value, VCtor) or value.ctor != ctor.name:
                    continue
                branch_env = dict(env)
                branch_env.update(self._bind_pattern(bindings, value))
                routed.append((branch_env, expected))

            branch_context = context + tuple(bindings)
            branch_decreasing = decreasing | frozenset(
                name for name, ty in bindings if ty == self.concrete_type
            )
            bodies = self._branch_bodies(
                branch_context, routed, branch_decreasing, oracle, depth, matched
            )
            if not bodies:
                return []
            branch_options.append([(pattern, body) for body in bodies[:_PER_BRANCH_CANDIDATES]])

        combined: List[Expr] = []
        for combo in diagonal_product(branch_options, self.bounds.max_candidates * 4):
            branches = tuple(Branch(pattern, body) for pattern, body in combo)
            combined.append(EMatch(EVar(scrutinee), branches))
        combined.sort(key=expr_size)
        return combined

    def _tuple_match_bodies(self, scrutinee: str, scrutinee_type: TProd,
                            context: Tuple[Tuple[str, Type], ...],
                            examples: Sequence[Example], decreasing: frozenset,
                            oracle: ExampleOracle, depth: int,
                            matched: frozenset) -> List[Expr]:
        """Destructure a product-typed value with a single tuple-pattern branch."""
        names = self._component_names(scrutinee_type.items, depth)
        bindings = tuple(zip(names, scrutinee_type.items))
        pattern = PTuple(tuple(PVar(name) for name in names))

        routed: List[Example] = []
        for env, expected in examples:
            value = env[scrutinee]
            if not isinstance(value, VTuple):
                continue
            branch_env = dict(env)
            branch_env.update({name: item for name, item in zip(names, value.items)})
            routed.append((branch_env, expected))

        branch_context = context + bindings
        bodies = self._branch_bodies(branch_context, routed, decreasing, oracle,
                                     depth, matched)
        return [
            EMatch(EVar(scrutinee), (Branch(pattern, body),))
            for body in bodies[:_PER_BRANCH_CANDIDATES]
        ]

    def _branch_bodies(self, context: Tuple[Tuple[str, Type], ...],
                       examples: Sequence[Example], decreasing: frozenset,
                       oracle: ExampleOracle, depth: int,
                       matched: frozenset) -> List[Expr]:
        """Bodies for one branch: leaf terms, plus nested matches if allowed.

        Names in ``matched`` were already destructured by an enclosing match
        (the synthesized argument itself included), so re-matching them could
        only duplicate work and emit redundant candidates.
        """
        bodies = list(self._leaf_bodies(context, examples, decreasing, oracle))
        if depth < self.bounds.max_match_depth:
            for name, ty in context:
                if name in matched:
                    continue
                if isinstance(ty, TData) and ty.name != "bool" and ty.name in self.program.types.datatypes:
                    bodies.extend(
                        self._match_bodies(name, context, examples, decreasing, oracle,
                                           depth + 1, matched)
                    )
                elif isinstance(ty, TProd):
                    bodies.extend(
                        self._match_bodies(name, context, examples, decreasing, oracle,
                                           depth + 1, matched)
                    )
        bodies.sort(key=expr_size)
        return bodies

    # -- leaf (match-free) bodies ------------------------------------------------------------

    def _leaf_bodies(self, context: Tuple[Tuple[str, Type], ...],
                     examples: Sequence[Example], decreasing: frozenset,
                     oracle: ExampleOracle) -> List[Expr]:
        if not examples:
            # No example reaches this branch; propose the weakest body.
            return [ECtor("True")]

        pool = TermPool(
            self.program,
            components=self._components(decreasing),
            context=context,
            environments=[env for env, _ in examples],
            max_size=self.bounds.max_term_size,
            max_applications=self.bounds.max_terms_per_branch,
            deadline=self.deadline,
            cache=self.pool_cache,
            stats=self.stats,
            emitter=self.emitter,
        )
        entries = pool.entries(TData("bool"))
        target = tuple(v_bool(expected) for _, expected in examples)

        exact = [entry.expr for entry in entries if entry.vector == target]
        conjunctions = self._conjunction_bodies(entries, examples)

        candidates: List[Expr] = []
        seen = set()
        for expr in exact + conjunctions:
            if expr not in seen:
                seen.add(expr)
                candidates.append(expr)
        candidates.sort(key=expr_size)
        return candidates[: _PER_BRANCH_CANDIDATES * 2]

    def _conjunction_bodies(self, entries, examples: Sequence[Example]) -> List[Expr]:
        """Bodies built as bounded conjunctions of atoms.

        Atoms must hold on every positive example routed to the branch; the
        conjunction must reject every routed negative example.  A greedy
        set-cover pass finds a small conjunction, and a bounded exhaustive
        pass over atom pairs adds alternatives for candidate diversity.
        """
        positive_idx = [i for i, (_, expected) in enumerate(examples) if expected]
        negative_idx = [i for i, (_, expected) in enumerate(examples) if not expected]
        if not negative_idx:
            return []

        atoms = [
            entry for entry in entries
            if all(entry.vector[i] == TRUE for i in positive_idx)
            and any(entry.vector[i] == FALSE for i in negative_idx)
        ]
        if not atoms:
            return []

        results: List[Expr] = []

        # Greedy cover.
        uncovered = set(negative_idx)
        chosen = []
        pool = list(atoms)
        while uncovered and len(chosen) < self.bounds.max_conjuncts:
            best = None
            best_covered = set()
            for entry in pool:
                covered = {i for i in uncovered if entry.vector[i] == FALSE}
                if len(covered) > len(best_covered) or (
                    best is not None
                    and len(covered) == len(best_covered)
                    and len(covered) > 0
                    and entry.size < best.size
                ):
                    if covered:
                        best = entry
                        best_covered = covered
            if best is None:
                break
            chosen.append(best)
            uncovered -= best_covered
            pool.remove(best)
        if chosen and not uncovered:
            results.append(_conjoin([entry.expr for entry in chosen]))

        # Bounded exhaustive pair search for alternative, possibly smaller, covers.
        small_atoms = sorted(atoms, key=lambda e: e.size)[:_MAX_PAIR_ATOMS]
        for i, first in enumerate(small_atoms):
            for second in small_atoms[i + 1:]:
                if all(
                    first.vector[k] == FALSE or second.vector[k] == FALSE
                    for k in negative_idx
                ):
                    results.append(_conjoin([first.expr, second.expr]))
                    if len(results) >= _PER_BRANCH_CANDIDATES * 2:
                        return results
        return results

    # -- components -------------------------------------------------------------------------

    def _components(self, decreasing: frozenset) -> List[TypedComponent]:
        components: List[TypedComponent] = []
        names = list(self.instance.definition.synthesis_components)
        names.extend(
            name for name in self.instance.definition.helper_functions if name not in names
        )
        for name in names:
            signature = self.program.global_type(name)
            if _is_first_order_function(signature):
                components.append(
                    TypedComponent(name, signature, self.program.global_value(name))
                )
        for name, (signature, fn) in self.extra_components.items():
            if _is_first_order_function(signature):
                components.append(TypedComponent(name, signature, fn))
        if self.bounds.component_pruning:
            unusable = self._unusable_component_names(components)
            if unusable:
                components = [c for c in components if c.name not in unusable]
        if decreasing:
            components.append(self._recursive_component(decreasing))
        return components

    def _unusable_component_names(self, components: List[TypedComponent]) -> frozenset:
        """Components that type-inhabitation reachability proves useless.

        Every branch context consists of the synthesized argument and pieces
        destructured out of it, so the downward closure of the concrete type
        over-approximates the variable types of every pool this synthesizer
        will ever build; pruning computed once against it is sound for all
        branches.  The recursive invariant component is never pruned (its
        ``tau_c -> bool`` signature is goal-reaching by construction)."""
        fixed = frozenset(c.name for c in components)
        if self._unusable_for != fixed:
            kept, dropped = split_components(
                components, [self.concrete_type], self.program.types,
                TData("bool"), destructure=True)
            self._unusable_for = fixed
            self._unusable = frozenset(c.name for c in dropped)
            if self.stats is not None:
                self.stats.components_pruned += len(self._unusable)
            if self._unusable and self.emitter.enabled:
                self.emitter.emit(
                    "components-pruned",
                    {"dropped": sorted(self._unusable),
                     "kept": sorted(c.name for c in kept)},
                    cat="analysis")
        return self._unusable

    def _recursive_component(self, decreasing: frozenset) -> TypedComponent:
        """The invariant's recursive self-call, interpreted by the example
        oracle and restricted to structurally smaller arguments."""
        return TypedComponent(
            INVARIANT_NAME,
            arrow(self.concrete_type, TData("bool")),
            self.__recursive_fn,
            argument_restrictions=(frozenset(decreasing),),
        )

    # -- naming -----------------------------------------------------------------------------

    def _fresh_name(self, base: str) -> str:
        name = base
        while self.program.has_global(name):
            name = name + "_"
        return name

    def _ctor_pattern(self, ctor, scrutinee_type: TData, depth: int):
        """A pattern for ``ctor`` plus the (name, type) bindings it introduces."""
        if ctor.payload is None:
            return PCtor(ctor.name), ()
        if isinstance(ctor.payload, TProd):
            names = self._component_names(ctor.payload.items, depth)
            pattern = PCtor(ctor.name, PTuple(tuple(PVar(n) for n in names)))
            return pattern, tuple(zip(names, ctor.payload.items))
        name = self._payload_name(ctor.payload, depth)
        return PCtor(ctor.name, PVar(name)), ((name, ctor.payload),)

    def _component_names(self, item_types: Tuple[Type, ...], depth: int) -> List[str]:
        suffix = "" if depth <= 1 else str(depth)
        if len(item_types) == 2 and item_types[1] == self.concrete_type:
            base = ["hd", "tl"]
        elif len(item_types) == 3 and item_types[0] == item_types[2]:
            base = ["lhs", "label", "rhs"]
        else:
            base = [f"m{i}" for i in range(len(item_types))]
        return [self._fresh_name(f"{name}{suffix}") for name in base]

    def _payload_name(self, payload: Type, depth: int) -> str:
        suffix = "" if depth <= 1 else str(depth)
        base = "sub" if payload == self.concrete_type else "y"
        return self._fresh_name(f"{base}{suffix}")

    @staticmethod
    def _bind_pattern(bindings, value: VCtor) -> Dict[str, Value]:
        if not bindings:
            return {}
        payload = value.payload
        if len(bindings) == 1:
            return {bindings[0][0]: payload}
        assert isinstance(payload, VTuple)
        return {name: item for (name, _), item in zip(bindings, payload.items)}


# -- helpers ---------------------------------------------------------------------------------


def _conjoin(exprs: List[Expr]) -> Expr:
    """Right-nested conjunction ``andb a (andb b c)``."""
    if len(exprs) == 1:
        return exprs[0]
    result = exprs[-1]
    for expr in reversed(exprs[:-1]):
        result = app(EVar("andb"), expr, result)
    return result


def _is_first_order_function(signature: Type) -> bool:
    """True when the signature is a (possibly nullary) first-order function."""
    ty = signature
    while isinstance(ty, TArrow):
        if isinstance(ty.arg, TArrow):
            return False
        ty = ty.result
    return not isinstance(ty, TArrow)
