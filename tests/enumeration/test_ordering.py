"""The diagonal enumerator: the same assignments as the plain recursive
sweep, in the same order, at a cost proportional to what it yields; and the
tester's bounded walk over it, which only adds deadline polls and
structure counts."""

import math
import os
import random
import sys

import pytest

import repro.enumeration.ordering as ordering
from repro.core.config import Deadline, InferenceTimeout
from repro.core.stats import InferenceStats
from repro.enumeration.ordering import DEADLINE_POLL, checked_product, diagonal_product


def _reference_product(pools, max_total):
    """The straightforward recursive sweep, kept as the oracle: every first
    index of every index-sum layer is visited, reachable or not."""
    if not pools or any(len(pool) == 0 for pool in pools):
        return
    counts = [len(pool) for pool in pools]
    produced = 0
    for total in range(0, sum(c - 1 for c in counts) + 1):
        for combo in _reference_combos(counts, total):
            yield tuple(pools[i][j] for i, j in enumerate(combo))
            produced += 1
            if produced >= max_total:
                return


def _reference_combos(counts, total):
    if len(counts) == 1:
        if total < counts[0]:
            yield (total,)
        return
    for first in range(0, min(counts[0] - 1, total) + 1):
        for rest in _reference_combos(counts[1:], total - first):
            yield (first,) + rest


def _pools(sizes):
    return [[(position, index) for index in range(size)]
            for position, size in enumerate(sizes)]


@pytest.mark.parametrize("seed", range(40))
def test_matches_the_reference_sweep_on_random_shapes(seed):
    rng = random.Random(seed)
    for _ in range(25):
        sizes = [rng.randint(0, 9) for _ in range(rng.randint(1, 5))]
        budget = rng.choice([-1, 0, 1, rng.randint(2, 500)])
        pools = _pools(sizes)
        assert list(diagonal_product(pools, budget)) == \
            list(_reference_product(pools, budget)), (sizes, budget)


@pytest.mark.parametrize("sizes", [(1,), (9,), (3, 1), (1, 1, 1), (2, 9, 1, 4),
                                   (9, 9, 9, 9, 9), (0,), (4, 0, 3)])
@pytest.mark.parametrize("budget", [-1, 0, 1, 7, 10_000])
def test_matches_the_reference_sweep_on_edge_shapes(sizes, budget):
    pools = _pools(sizes)
    assert list(diagonal_product(pools, budget)) == \
        list(_reference_product(pools, budget))


def test_no_pools_yield_nothing():
    assert list(diagonal_product([], 5)) == []


def _calls_per_assignment(sizes, budget):
    """Python ``call`` events (calls and generator resumptions) inside the
    enumerator's module, per assignment it yields."""
    source = os.path.normcase(os.path.abspath(ordering.__file__))
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and \
                os.path.normcase(os.path.abspath(frame.f_code.co_filename)) == source:
            calls += 1

    pools = _pools(sizes)
    sys.setprofile(profile)
    try:
        produced = sum(1 for _ in diagonal_product(pools, budget))
    finally:
        sys.setprofile(None)
    assert produced == min(budget, math.prod(sizes))
    return calls / produced


def test_two_pools_cost_at_most_two_calls_per_assignment():
    # The inductiveness checker's usual shape at quick bounds.  The plain
    # recursive sweep makes 15.7 calls per assignment here.
    assert _calls_per_assignment((120, 7), 900) <= 2


def test_three_pools_cost_at_most_six_calls_per_assignment():
    # The plain recursive sweep makes 10.3 calls per assignment here.
    assert _calls_per_assignment((120, 7, 7), 900) <= 6


def _walk(pools, budget, skip=0, structures=1, deadline=None):
    stats = InferenceStats()
    walk = checked_product(pools, budget, deadline or Deadline(None), stats,
                           structures, skip)
    return walk, stats


@pytest.mark.parametrize("seed", range(10))
def test_walk_yields_the_diagonal_assignments_past_the_skip(seed):
    rng = random.Random(seed)
    for _ in range(25):
        sizes = [rng.randint(0, 9) for _ in range(rng.randint(1, 5))]
        budget = rng.choice([-1, 0, 1, rng.randint(2, 500)])
        pools = _pools(sizes)
        expected = list(diagonal_product(pools, budget))
        for skip in (0, 1, rng.randint(0, len(expected) + 1)):
            walk, _ = _walk(pools, budget, skip)
            assert list(walk) == expected[skip:], (sizes, budget, skip)


def test_walk_polls_an_expired_deadline_at_the_poll_interval():
    assert DEADLINE_POLL == 128
    expired = Deadline(0.0, started_at=0.0)
    walk, _ = _walk(_pools((40, 40)), 10_000, deadline=expired)
    for _ in range(DEADLINE_POLL - 1):
        next(walk)
    with pytest.raises(InferenceTimeout):
        next(walk)


def test_walk_counts_structures_per_yielded_assignment_only():
    walk, stats = _walk(_pools((9, 9, 9)), 300, skip=50, structures=3)
    assert stats.structures_tested == 0
    for produced in range(1, 101):
        next(walk)
        assert stats.structures_tested == 3 * produced
    rest = sum(1 for _ in walk)
    assert rest == 300 - 50 - 100
    assert stats.structures_tested == 3 * (300 - 50)
