"""Synthesis result caching (Section 4.4).

"When synthesizing, Myth often finds multiple possible solutions for a given
set of input/output examples.  Instead of throwing the unchosen solutions
away, we store them for future synthesis calls.  When given a set of
input/output examples, before making a call to Myth, we check if any of the
previously synthesized invariants satisfy the input/output example set.  If
one does, that invariant is used instead of a freshly synthesized one."

:class:`SynthesisResultCache` implements exactly that policy.  The Hanoi loop
consults it before every synthesis call; the Hanoi-SRC ablation simply never
installs a cache.

A lookup is a plain first-match scan: stored candidates in the order they
were stored, each checked with :meth:`Predicate.consistent_with`.  Every
predicate memoizes its verdicts, so a candidate pays for a value only the
first time any lookup tries it.  The loop keeps V+ and V- as Python sets,
whose iteration order follows memory addresses; it sorts them by
:func:`~repro.lang.values.value_order` once per synthesis request and hands
the sorted tuples to the lookup, so which values a lookup evaluates does not
depend on the hash seed.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence

from ..core.predicate import Predicate
from ..lang.ast import FunDecl
from ..lang.values import Value

__all__ = ["SynthesisResultCache"]


class SynthesisResultCache:
    """Stores every candidate invariant ever produced by the synthesizer."""

    def __init__(self) -> None:
        self._candidates: Dict[FunDecl, Predicate] = {}

    def __len__(self) -> int:
        return len(self._candidates)

    @property
    def candidates(self) -> Sequence[Predicate]:
        return tuple(self._candidates.values())

    def store(self, predicates: Iterable[Predicate]) -> None:
        """Remember candidates (deduplicated by their definition)."""
        for predicate in predicates:
            self._candidates.setdefault(predicate.decl, predicate)

    def lookup(self, positives: Sequence[Value],
               negatives: Sequence[Value]) -> Optional[Predicate]:
        """The first stored candidate consistent with the example sets, if
        any; each candidate tries the values in the order given."""
        for predicate in self._candidates.values():
            if predicate.consistent_with(positives, negatives):
                return predicate
        return None
