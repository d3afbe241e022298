"""Fair (diagonal) enumeration of assignments to several quantifiers.

A naive ``itertools.product`` over the quantifier pools explores the last
pool exhaustively before the first pool ever advances; under a bounded total
budget (Section 4.3 caps the verifier at 30000 structures) that would leave
the first quantifier effectively constant.  The verifier, the inductiveness
checker and the synthesizer's match-skeleton combiner instead enumerate
assignments in order of *total index sum* - a diagonal sweep that grows
every quantifier together, the same smallest-first discipline the paper's
enumerative tester uses.

The sweep is output-sensitive, in the manner of SmallCheck's depth-layered
enumeration (Runciman, Naylor & Lindblad, Haskell 2008): within one index-sum
layer, each position only takes the indices from which the positions after
it can still make up the rest of the sum, so no step of the walk is spent on
a branch that yields nothing.  One and two pools, the common shapes, run as
plain loops.
"""

from __future__ import annotations

from itertools import islice
from typing import TYPE_CHECKING, Iterator, List, Sequence, Tuple, TypeVar

if TYPE_CHECKING:
    from ..core.config import Deadline
    from ..core.stats import InferenceStats

__all__ = ["DEADLINE_POLL", "checked_product", "diagonal_product"]

T = TypeVar("T")

#: How many assignments a bounded walk hands out between deadline polls.
DEADLINE_POLL = 128


def diagonal_product(pools: Sequence[Sequence[T]], max_total: int) -> Iterator[Tuple[T, ...]]:
    """Yield up to ``max_total`` assignments drawn fairly from every pool.

    Assignments are produced in non-decreasing order of the sum of pool
    indices (lexicographically by index within one sum), so small values of
    *every* quantifier are explored before large values of any single one.
    A budget of zero or less still yields the first assignment.  No
    assignment is yielded when there are no pools or one of them is empty.
    """
    if not pools or any(len(pool) == 0 for pool in pools):
        return
    budget = max(max_total, 1)
    if len(pools) == 1:
        pool = pools[0]
        for index in range(min(len(pool), budget)):
            yield (pool[index],)
        return
    # reach[k]: the largest index sum that positions k, k+1, ... can make.
    reach = [0] * (len(pools) + 1)
    for k in range(len(pools) - 1, -1, -1):
        reach[k] = reach[k + 1] + len(pools[k]) - 1
    first, second = pools[-2], pools[-1]
    first_top, second_top = len(first) - 1, len(second) - 1
    produced = 0
    for total in range(reach[0] + 1):
        # The last two positions are one pair loop per head: the values of
        # the positions before them, with the index sum they leave over.
        if len(pools) == 2:
            heads = [((), total)]
        else:
            heads = _prefixes(pools, reach, 0, len(pools) - 2, total)
        for head, left in heads:
            for i in range(max(0, left - second_top), min(first_top, left) + 1):
                yield head + (first[i], second[left - i])
                produced += 1
                if produced >= budget:
                    return


def checked_product(pools: Sequence[Sequence[T]], max_total: int, deadline: Deadline,
                    stats: InferenceStats, structures: int,
                    skip: int = 0) -> Iterator[Tuple[T, ...]]:
    """The Section 4.3 tester's walk: :func:`diagonal_product` past its first
    ``skip`` assignments, polling ``deadline`` before every
    ``DEADLINE_POLL``-th one and adding ``structures`` to
    ``stats.structures_tested`` for each one it yields."""
    assignments = islice(diagonal_product(pools, max_total), skip, None)
    for count, assignment in enumerate(assignments, 1):
        if count % DEADLINE_POLL == 0:
            deadline.check()
        stats.structures_tested += structures
        yield assignment


def _prefixes(pools: Sequence[Sequence[T]], reach: List[int], k: int, stop: int,
              total: int) -> Iterator[Tuple[Tuple[T, ...], int]]:
    """Values for positions ``k .. stop-1`` whose indices sum to at most
    ``total``, each with the sum left for positions ``stop ..`` - which those
    positions can always make, so every prefix yields at least one
    assignment."""
    pool = pools[k]
    low, high = max(0, total - reach[k + 1]), min(len(pool) - 1, total)
    if k + 1 == stop:
        for i in range(low, high + 1):
            yield (pool[i],), total - i
        return
    for i in range(low, high + 1):
        value = (pool[i],)
        for rest, left in _prefixes(pools, reach, k + 1, stop, total - i):
            yield value + rest, left
