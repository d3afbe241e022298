"""Golden work counts of term-pool construction.

Pool construction may get faster, but it must do the same work: the same
CEGIS iterations, and the same per-environment component applications,
answered by the application memo (hits) or evaluated (misses) in the same
split.  The counts below do not depend on the machine or the hash seed
(they agree under ``PYTHONHASHSEED`` 0, 1 and 42), so any drift means the
candidate stream or the memo's keying changed.
"""

import pytest

from repro.experiments.runner import quick_config, run_module
from repro.suite.registry import get_benchmark

#: built-in -> (iterations, pool_cache_hits, pool_cache_misses) at the quick
#: profile.
GOLDEN = {
    "/coq/sorted-list-::-set": (11, 8317, 104),
    "/coq/maxfirst-list-::-heap": (10, 12868, 140),
    "/other/stutter-list": (7, 6627, 100),
    "/coq/rbtree-::-set*": (9, 26974, 185),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_pool_work_counts_match_the_golden_values(name):
    result = run_module(get_benchmark(name), "hanoi", quick_config())
    assert result.succeeded
    counts = (result.iterations, result.stats.pool_cache_hits,
              result.stats.pool_cache_misses)
    assert counts == GOLDEN[name]
