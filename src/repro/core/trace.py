"""Counterexample list caching (Section 4.4, Figures 5 and 6).

Without the optimization, every time a new positive example is discovered the
algorithm resets V- to the empty set and rebuilds it one negative
counterexample at a time, re-synthesizing and re-verifying the same sequence
of candidate invariants.  The optimization caches the *trace* of
(synthesized candidate, negative counterexamples added) pairs of the current
strengthening phase.  When new positive examples arrive, the trace is
replayed: candidates that still accept every new positive keep their negative
counterexamples (those verification and synthesis rounds are skipped), and
the trace is truncated at the first candidate that rejects a new positive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, List, Set

from ..lang.values import Value, value_order
from .predicate import Predicate

__all__ = ["TraceEntry", "CounterexampleTrace"]


@dataclass(frozen=True)
class TraceEntry:
    """One strengthening step: the candidate and the negatives it produced."""

    candidate: Predicate
    negatives: FrozenSet[Value]


class CounterexampleTrace:
    """The trace of synthesis/verification rounds of the current phase."""

    def __init__(self) -> None:
        self.entries: List[TraceEntry] = []

    def __len__(self) -> int:
        return len(self.entries)

    def record(self, candidate: Predicate, negatives: Iterable[Value]) -> None:
        """Append a strengthening step to the trace."""
        self.entries.append(TraceEntry(candidate, frozenset(negatives)))

    def replay(self, new_positives: Iterable[Value]) -> Set[Value]:
        """Replay the trace against newly discovered positive examples.

        Returns the set of negative examples that remain valid (those added by
        the longest prefix of candidates that accept every new positive), and
        truncates the trace to that prefix.  This is the computation depicted
        in Figure 6: candidates on which the new positive evaluates to true
        need not be revisited.  The positives are tried in
        :func:`~repro.lang.values.value_order`, so the evaluations a rejected
        candidate runs before it stops do not follow set order.
        """
        new_positives = sorted(new_positives, key=value_order)
        kept: Set[Value] = set()
        keep_entries: List[TraceEntry] = []
        for entry in self.entries:
            if all(entry.candidate(p) for p in new_positives):
                kept |= set(entry.negatives)
                keep_entries.append(entry)
            else:
                break
        self.entries = keep_entries
        return kept

    def clear(self) -> None:
        self.entries.clear()
