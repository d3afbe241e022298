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

Lookups are *incremental*: in the Hanoi loop V+ only ever grows and V- grows
within one strengthening phase, so instead of rescanning every example
against every stored candidate on every call, the cache keeps an append-only
log of the examples it has seen and, per candidate, how far into each log it
has already been checked.  A candidate that rejects a positive is marked dead
for as long as that positive remains (positives are monotone, so in practice
forever); only the examples added since the previous lookup are newly
evaluated.  When a queried example set turns out *not* to contain everything
seen so far (V- is reset on weakening; arbitrary callers may shrink either
set), the log restarts under a new generation and candidates are re-checked
from scratch - correctness never depends on the monotonicity, only the
speedup does.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Set, Tuple

from ..core.predicate import Predicate
from ..lang.values import Value, value_order

__all__ = ["SynthesisResultCache"]


class _Entry:
    """One stored candidate plus its progress through the example logs."""

    __slots__ = ("predicate", "pos_gen", "pos_index", "dead", "neg_gen", "neg_index")

    def __init__(self, predicate: Predicate) -> None:
        self.predicate = predicate
        self.pos_gen = -1
        self.pos_index = 0
        self.dead = False
        self.neg_gen = -1
        self.neg_index = 0


class _ExampleLog:
    """An append-only, generation-stamped view of one example set.

    ``sync`` brings the log in line with the set a lookup was given: new
    examples are appended; a query that dropped previously seen examples
    restarts the log under a fresh generation (entries then re-check from
    index 0, which is cheap because predicates memoize their evaluations).
    """

    __slots__ = ("values", "known", "generation")

    def __init__(self) -> None:
        self.values: List[Value] = []
        self.known: Set[Value] = set()
        self.generation = 0

    def sync(self, given: Iterable[Value]) -> None:
        given_set = set(given)
        if self.known <= given_set:
            fresh = given_set - self.known
            if fresh:
                # Deterministic extension order: ``fresh`` is a set, and its
                # iteration order follows memory addresses.
                self.values.extend(sorted(fresh, key=value_order))
                self.known |= fresh
        else:
            self.generation += 1
            self.values = sorted(given_set, key=value_order)
            self.known = given_set


class SynthesisResultCache:
    """Stores every candidate invariant ever produced by the synthesizer."""

    def __init__(self) -> None:
        self._entries: List[_Entry] = []
        self._keys = set()
        self._positives = _ExampleLog()
        self._negatives = _ExampleLog()

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def candidates(self) -> Sequence[Predicate]:
        return tuple(entry.predicate for entry in self._entries)

    def store(self, predicates: Iterable[Predicate]) -> None:
        """Remember candidates (deduplicated by their definition)."""
        for predicate in predicates:
            key = predicate.decl
            if key not in self._keys:
                self._keys.add(key)
                self._entries.append(_Entry(predicate))

    def lookup(self, positives: Iterable[Value], negatives: Iterable[Value]) -> Optional[Predicate]:
        """The first cached candidate consistent with the example sets, if any."""
        self._positives.sync(positives)
        self._negatives.sync(negatives)
        for entry in self._entries:
            if self._accepts_positives(entry) and self._rejects_negatives(entry):
                return entry.predicate
        return None

    # -- per-entry incremental checks ---------------------------------------------

    def _accepts_positives(self, entry: _Entry) -> bool:
        log = self._positives
        if entry.pos_gen != log.generation:
            entry.pos_gen = log.generation
            entry.pos_index = 0
            entry.dead = False
        if entry.dead:
            return False
        while entry.pos_index < len(log.values):
            if not entry.predicate(log.values[entry.pos_index]):
                # Rejecting a positive is fatal for as long as that positive
                # remains in the queried set (i.e. until a generation bump).
                entry.dead = True
                return False
            entry.pos_index += 1
        return True

    def _rejects_negatives(self, entry: _Entry) -> bool:
        log = self._negatives
        if entry.neg_gen != log.generation:
            entry.neg_gen = log.generation
            entry.neg_index = 0
        while entry.neg_index < len(log.values):
            if entry.predicate(log.values[entry.neg_index]):
                # Leave the index on the offending negative: while it remains,
                # re-lookups fail in O(1); once V- resets, the generation
                # bumps and the scan restarts.
                return False
            entry.neg_index += 1
        return True

    # -- introspection (tests / debugging) ---------------------------------------

    def progress(self) -> List[Tuple[int, int, bool]]:
        """Per stored candidate: positives checked, negatives checked, dead flag."""
        return [(entry.pos_index, entry.neg_index, entry.dead) for entry in self._entries]
