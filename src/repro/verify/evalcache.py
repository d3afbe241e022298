"""Cross-iteration caching of the specification's verdicts.

Section 4.4's principle - never throw away work the loop will redo - is
applied by the seed reproduction to *synthesis* (result caching, trace
caching) but not to *verification*, even though the Hanoi loop calls
``Verify`` dozens of times per run and most of each call's work is
candidate-independent.

In a sufficiency check (Definition 3.4), the specification's truth value on a
quantifier assignment does not depend on the candidate invariant, so it is
worth computing at most once per run.  :class:`EvaluationCache` materializes
the quantifier enumeration (suspending wherever a check stopped) and holds one
verdict slot per assignment.  Verdicts stay *lazy* - the spec runs only when
some candidate accepts the assignment's witnesses, exactly as in the uncached
check, so a short run never pays for verdicts no check needed.  Once known, a
verdict is final: spec-true assignments are skipped by every later check
without touching the candidate at all, and spec-falsifying ones reduce to
predicate evaluations over their recorded witnesses.

Inductiveness checks (Figure 3) keep no store of their own: every check
applies the operations afresh, and the evaluator's per-run memo table
(:mod:`repro.lang.eval`) answers the first-order calls inside them.

One cache is created per run by :class:`~repro.core.hanoi.HanoiInference`
when ``HanoiConfig.evaluation_caching`` is enabled (the default) and read by
its :class:`~repro.verify.tester.Verifier`.  The cache changes no verdict: a
cached check returns exactly the counterexample (or ``VALID``) the uncached
enumeration would, in the same order - see ``tests/verify/test_evalcache.py``
for the end-to-end equivalence test.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from ..lang.errors import LangError
from ..lang.values import Value, is_first_order

__all__ = ["EvaluationCache", "SpecEntry", "SPEC_TRUE"]


class SpecEntry:
    """One materialized quantifier assignment and its (lazy) spec verdict.

    ``verdict`` is ``None`` while unknown, then ``True``/``False`` forever
    (the spec is pure).  Once known, the fields later checks cannot need are
    dropped: a spec-true assignment keeps nothing, a spec-falsifying one
    keeps its abstract-type ``witnesses`` (what a counterexample reports) and
    the evaluation ``error`` if the application crashed rather than returning
    ``false`` - re-raised only when a candidate accepts the witnesses,
    mirroring the uncached order of evaluation, where the spec runs only on
    accepted assignments.
    """

    __slots__ = ("assignment", "witnesses", "verdict", "error")

    def __init__(self, assignment: Tuple[Value, ...], witnesses: Tuple[Value, ...]) -> None:
        self.assignment: Optional[Tuple[Value, ...]] = assignment
        self.witnesses: Optional[Tuple[Value, ...]] = witnesses
        self.verdict: Optional[bool] = None
        self.error: Optional[LangError] = None

    def resolve(self, verdict: bool, error: Optional[LangError] = None) -> None:
        """Record the spec's verdict and drop what no later check can need."""
        self.verdict = verdict
        self.error = error
        self.assignment = None
        if verdict:
            self.witnesses = None

    def export(self) -> Tuple[object, object, Optional[bool]]:
        """The entry as a plain ``(assignment, witnesses, verdict)`` tuple.

        Every field is a first-order value tuple or a primitive, so the
        export pickles and unpickles across processes and hash seeds.  The
        stored ``error`` of a crashed resolution is deliberately *not*
        exported (see :meth:`EvaluationCache.export_entries`).
        """
        return (self.assignment, self.witnesses, self.verdict)

    @classmethod
    def restore(cls, exported: Tuple[object, object, Optional[bool]]) -> "SpecEntry":
        """Rebuild an entry from :meth:`export` output."""
        assignment, witnesses, verdict = exported
        entry = cls.__new__(cls)
        entry.assignment = assignment
        entry.witnesses = witnesses
        entry.verdict = verdict
        entry.error = None
        return entry


#: The one resolved spec-true entry that every restored spec-true entry
#: is: it keeps nothing, and a known verdict is never resolved again.
SPEC_TRUE = SpecEntry.restore((None, None, True))


class EvaluationCache:
    """The sufficiency enumeration of one run, materialized at most once.

    ``entries`` holds one :class:`SpecEntry` per assignment in enumeration
    (diagonal) order; ``iterator`` is the suspended bounded walk
    (:func:`~repro.enumeration.ordering.checked_product`) positioned at the
    frontier, past ``entries``; ``exhausted`` is set once the enumeration's
    budget ran dry.  A deadline that fires inside the walk ends it, which is
    safe because it ends the run too, and a cache lives for one run.
    The :class:`~repro.verify.tester.Verifier` owns the replay/resume logic;
    this class is deliberately dumb storage so the enumeration semantics stay
    in one place.  Ablation modes simply never create one.  Hit/miss counters
    live in :class:`~repro.core.stats.InferenceStats` (``eval_cache_hits`` /
    ``eval_cache_misses``), incremented by the verifier so the cache itself
    stays a pure store.
    """

    def __init__(self) -> None:
        self.entries: List[SpecEntry] = []
        self.iterator: Optional[Iterator[Tuple[Value, ...]]] = None
        self.exhausted = False

    def export_entries(self) -> Tuple[List[Tuple[object, object, Optional[bool]]], bool]:
        """A picklable ``(entries, exhausted)`` snapshot of the stream.

        Entries are exported in enumeration order up to (but excluding) the
        first entry that cannot round-trip: an error-bearing resolution
        (language errors carry positional constructors that do not all
        survive pickling, and a resolved entry has already dropped the
        assignment needed to re-derive its error lazily) or an assignment
        containing function values (identity-hashed, meaningless in another
        process).  Truncating is always safe - a warm run re-enumerates the
        suffix from the suspended iterator exactly as a cold run would - and
        a truncated snapshot is never marked exhausted.
        """
        exported: List[Tuple[object, object, Optional[bool]]] = []
        for entry in self.entries:
            if entry.error is not None:
                return exported, False
            if entry.assignment is not None and \
                    not all(is_first_order(v) for v in entry.assignment):
                return exported, False
            if entry.witnesses is not None and \
                    not all(is_first_order(v) for v in entry.witnesses):
                return exported, False
            exported.append(entry.export())
        return exported, self.exhausted

    def restore_entries(self,
                        exported: List[Tuple[object, object, Optional[bool]]],
                        exhausted: bool) -> None:
        """Adopt an :meth:`export_entries` snapshot into an empty stream.

        Only valid before the stream has been touched (fresh per-run cache):
        restored entries must occupy the positions the enumeration would
        assign them, so the verifier's walk can skip ``len(entries)``
        assignments and resume at the frontier.  Every spec-true entry is
        :data:`SPEC_TRUE`: it holds nothing, and only an entry whose verdict
        is unknown is ever resolved.
        """
        if self.entries or self.iterator is not None:
            raise ValueError("EvaluationCache.restore_entries on a non-empty stream")
        self.entries = [SPEC_TRUE if item[2] is True else SpecEntry.restore(item)
                        for item in exported]
        self.exhausted = bool(exhausted)

    def snapshot(self) -> Dict[str, object]:
        """Deterministic occupancy counts, stamped on ``cache-snapshot`` trace
        events so ``repro trace`` can report cache growth per run."""
        return {"spec_entries": len(self.entries),
                "spec_exhausted": self.exhausted}
