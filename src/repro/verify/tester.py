"""The size-bounded enumerative verifier (the paper's ``Verify``).

Section 4.3: "To implement Verify, we use a size-bounded enumerative tester,
which is unsound but effective in practice.  To validate a predicate with a
single quantifier, we test the predicate on data structures, from smallest to
largest, until either 3000 data structures have been processed, or the data
structure has over 30 AST nodes, whichever comes first.  To validate
predicates with two or more quantifiers, we instantiate each quantifier with
the smallest 3000 data structures with under 15 AST nodes.  We further limit
the total number of data structures processed to 30000."

The verifier exposes two checks used by the Hanoi loop:

* :meth:`Verifier.check_sufficiency` - does the candidate invariant imply the
  specification (Definition 3.4)?
* :meth:`Verifier.check_predicate` - does a unary predicate hold on every
  enumerated value of a type?  (Used by tests and the experiment harness to
  validate inferred invariants against hand-written oracles.)

Inductiveness checks live in :mod:`repro.inductive`; they share the same
bounds and statistics so that the Figure-7 verification-time columns account
for all checking work, and enumerate through the same bounded walk,
:func:`repro.enumeration.ordering.checked_product`.
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Optional, Tuple

from ..core.config import Deadline, VerifierBounds
from ..core.module import ModuleInstance
from ..core.stats import InferenceStats
from ..enumeration.ordering import DEADLINE_POLL, checked_product
from ..enumeration.values import ValueEnumerator
from ..lang.errors import LangError
from ..lang.types import Type, mentions_abstract
from ..lang.values import Value, bool_of_value
from ..obs.events import NULL_EMITTER
from .evalcache import EvaluationCache, SpecEntry
from .result import VALID, CheckResult, SufficiencyCounterexample

__all__ = ["Verifier"]


class Verifier:
    """Bounded enumerative testing of specifications and predicates."""

    def __init__(self, instance: ModuleInstance, enumerator: Optional[ValueEnumerator] = None,
                 bounds: VerifierBounds = VerifierBounds(),
                 stats: Optional[InferenceStats] = None,
                 deadline: Optional[Deadline] = None,
                 eval_cache: Optional[EvaluationCache] = None,
                 emitter: object = NULL_EMITTER):
        self.instance = instance
        self.enumerator = enumerator or ValueEnumerator(instance.program.types)
        self.bounds = bounds
        self.stats = stats or InferenceStats()
        self.deadline = deadline or Deadline(None)
        self.eval_cache = eval_cache
        self.emitter = emitter

    # -- quantifier pools ------------------------------------------------------------

    def _pool(self, concrete_type: Type, quantifiers: int) -> List[Value]:
        """The values a quantified variable of the given type ranges over."""
        if quantifiers <= 1:
            max_count = self.bounds.max_structures_single
            max_size = self.bounds.max_nodes_single
        else:
            max_count = self.bounds.max_structures_multi
            max_size = self.bounds.max_nodes_multi
        return list(self.enumerator.enumerate(concrete_type, max_size=max_size, max_count=max_count))

    def _assignments(self, signature: Tuple[Type, ...],
                     skip: int = 0) -> Iterator[Tuple[Value, ...]]:
        """The sufficiency enumeration over one pool per quantifier.

        Section 4.3 caps the total number of data *structures* processed
        (30000 at paper bounds), and a multi-quantifier assignment processes
        one structure per quantifier, so the assignment budget is the
        structure cap divided by the quantifier count.
        """
        quantifiers = len(signature)
        pools = [self._pool(t, quantifiers) for t in signature]
        return checked_product(pools, max(1, self.bounds.max_total // max(1, quantifiers)),
                               self.deadline, self.stats, quantifiers, skip)

    # -- sufficiency ------------------------------------------------------------------

    def check_sufficiency(self, invariant: Callable[[Value], bool]) -> CheckResult:
        """Check ``forall v. I(v) => phi(v)`` by bounded enumeration.

        The specification may quantify over several abstract values and over
        base-type values (Section 2.2); every quantifier is enumerated.  A
        counterexample reports the abstract-type witnesses only - they are
        what the Hanoi loop adds to V- (or reports as a specification bug when
        they are all known constructible).
        """
        with self.emitter.span("sufficiency-check"):
            with self.stats.verification():
                return self._check_sufficiency(invariant)

    def _check_sufficiency(self, invariant: Callable[[Value], bool]) -> CheckResult:
        interface_signature = self.instance.definition.spec_signature
        concrete_signature = self.instance.spec_concrete_signature()

        abstract_positions = [
            index for index, ty in enumerate(interface_signature) if mentions_abstract(ty)
        ]

        if self.eval_cache is not None:
            return self._check_sufficiency_cached(
                invariant, concrete_signature, abstract_positions)

        for assignment in self._assignments(concrete_signature):
            witnesses = tuple(assignment[i] for i in abstract_positions)
            if not all(invariant(w) for w in witnesses):
                continue
            result = self.instance.call_spec(*assignment)
            if not bool_of_value(result):
                return SufficiencyCounterexample(witnesses)
        return VALID

    def _check_sufficiency_cached(self, invariant: Callable[[Value], bool],
                                  concrete_signature: Tuple[Type, ...],
                                  abstract_positions: List[int]) -> CheckResult:
        """Sufficiency with the spec-verdict stream of the evaluation cache.

        The spec's verdict per assignment is candidate-independent, so the
        stream materializes the enumeration once and holds one verdict slot
        per assignment.  Verdicts are computed lazily - the spec runs only
        when the current candidate accepts the assignment's witnesses, the
        exact condition the uncached check evaluates under - and replayed by
        every later check: spec-true assignments are skipped outright,
        spec-falsifying ones reduce to predicate evaluations over their
        recorded witnesses.  Verdict and counterexample are identical to the
        uncached enumeration: both scan the same diagonal order and report
        the first falsifying assignment whose witnesses the candidate
        accepts.
        """
        cache = self.eval_cache

        for scanned, entry in enumerate(cache.entries, 1):
            if scanned % DEADLINE_POLL == 0:
                self.deadline.check()
            if entry.verdict is True:
                self.stats.eval_cache_hits += 1
                continue
            if entry.verdict is False:
                self.stats.eval_cache_hits += 1
                if all(invariant(w) for w in entry.witnesses):
                    if entry.error is not None:
                        # The uncached path evaluates the spec only on
                        # accepted assignments; surface the crash at the
                        # same point.
                        raise entry.error
                    return SufficiencyCounterexample(entry.witnesses)
                continue
            # Verdict still unknown: this assignment's witnesses were
            # rejected by every candidate checked so far.
            if not all(invariant(w) for w in entry.witnesses):
                continue
            outcome = self._resolve_spec_entry(entry)
            if outcome is not None:
                return outcome
        if cache.exhausted:
            return VALID

        if cache.iterator is None:
            # Entries restored from a persistent snapshot (serve/diskcache)
            # occupy the first positions of this fresh enumeration; the walk
            # passes over them so the frontier resumes where the snapshot
            # stopped.  The enumeration is deterministic, so position i of a
            # fresh walk is exactly the assignment entry i recorded.  In a
            # cold run entries is empty here and nothing is skipped.
            cache.iterator = self._assignments(concrete_signature, skip=len(cache.entries))

        for assignment in cache.iterator:
            witnesses = tuple(assignment[i] for i in abstract_positions)
            entry = SpecEntry(assignment, witnesses)
            cache.entries.append(entry)
            if not all(invariant(w) for w in witnesses):
                continue
            outcome = self._resolve_spec_entry(entry)
            if outcome is not None:
                return outcome
        cache.exhausted = True
        cache.iterator = None
        return VALID

    def _resolve_spec_entry(self, entry: SpecEntry) -> Optional[CheckResult]:
        """Evaluate the spec on an accepted assignment and record the verdict.

        Returns the counterexample when the assignment falsifies the spec
        (the caller's candidate accepts its witnesses, so it is the check's
        result), or ``None`` when the spec holds.
        """
        self.stats.eval_cache_misses += 1
        witnesses = entry.witnesses
        error: Optional[LangError] = None
        try:
            holds = bool_of_value(self.instance.call_spec(*entry.assignment))
        except LangError as exc:
            holds = False
            error = exc
        entry.resolve(holds, error)
        if holds:
            return None
        if error is not None:
            raise error
        return SufficiencyCounterexample(witnesses)

    # -- generic predicate checking ------------------------------------------------------

    def check_predicate(self, predicate: Callable[[Value], bool],
                        concrete_type: Optional[Type] = None) -> CheckResult:
        """Check that ``predicate`` holds on every enumerated value of a type.

        This is the plain ``Verify P`` of Section 3.3; the Hanoi loop itself
        only needs sufficiency and inductiveness, but tests and reports use
        this to compare an inferred invariant against an oracle.
        """
        with self.stats.verification():
            target = concrete_type or self.instance.concrete_type
            pool = self._pool(target, 1)
            for value, in checked_product([pool], len(pool), self.deadline, self.stats, 1):
                if not predicate(value):
                    return SufficiencyCounterexample((value,))
            return VALID
