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
from repro.lang.types import TAbstract, TArrow, TData, TProd
from repro.lang.values import nat_of_int, v_list
from repro.suite.registry import get_benchmark
from repro.synth.bottomup import TermPool, TypedComponent

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


def test_type_hashes_per_application_build_do_not_grow_with_applications(monkeypatch):
    # The pool probes its seen-vectors through a dict fetched once per
    # component and argument sizes: each build hashes a type per argument
    # pool, one for the result type and one per entry it adds, however many
    # combinations it tries.  Types hash by identity, in C, but the count
    # still pins how often a build probes a type-keyed table.
    program = get_benchmark("/coq/unique-list-::-set").instantiate().program
    components = [TypedComponent(name, program.global_type(name), program.global_value(name))
                  for name in ("nat_eq", "lookup", "nat_leq", "plus")]
    context = [("x", TData("list"))] + [(name, TData("nat")) for name in "nmk"]
    environments = [{"x": v_list([nat_of_int(i) for i in range(k)]), "n": nat_of_int(k % 3),
                     "m": nat_of_int(k), "k": nat_of_int(3 - k)} for k in range(4)]
    TermPool(program, components, context, environments, max_size=7)  # generates the code
    hashes = [0]
    for cls in (TData, TProd, TArrow, TAbstract):
        monkeypatch.setattr(cls, "__hash__", lambda self, original=cls.__hash__:
                            hashes.__setitem__(0, hashes[0] + 1) or original(self))
    builds = []
    build = TermPool._build_applications

    def counted(pool, component, arg_sizes, size):
        before = (hashes[0], len(pool._order), pool._applications)
        build(pool, component, arg_sizes, size)
        builds.append((hashes[0] - before[0], len(arg_sizes),
                       len(pool._order) - before[1], pool._applications - before[2]))

    monkeypatch.setattr(TermPool, "_build_applications", counted)
    TermPool(program, components, context, environments, max_size=7)
    assert max(applications for _, _, _, applications in builds) >= 16
    for hashed, arity, added, _ in builds:
        assert hashed <= arity + 1 + added
