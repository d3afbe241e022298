"""Tests for the synthesis result cache (Section 4.4).

``lookup`` returns the first stored candidate consistent with the given
example sets, trying each set's values in the order given; the loop hands it
V+ and V- sorted by ``value_order``, so which values a lookup evaluates does
not depend on the hash seed.
"""

from repro.core.predicate import Predicate
from repro.lang.values import nat_of_int, v_list
from repro.suite.registry import get_benchmark
from repro.synth.cache import SynthesisResultCache


def L(*ints):
    return v_list([nat_of_int(i) for i in ints])


def _nodup_predicate(cls=Predicate):
    definition = get_benchmark("/coq/unique-list-::-set")
    program = definition.instantiate().program
    return cls.from_source(definition.expected_invariant, program)


def _never_predicate(cls=Predicate):
    definition = get_benchmark("/coq/unique-list-::-set")
    program = definition.instantiate().program
    return cls.from_source("let never (l : list) : bool = False", program)


def test_lookup_returns_first_consistent_candidate():
    cache = SynthesisResultCache()
    never, nodup = _never_predicate(), _nodup_predicate()
    cache.store([never, nodup])
    assert len(cache) == 2
    assert cache.candidates == (never, nodup)

    # never rejects the positive; nodup separates the sets.
    found = cache.lookup([L(1)], [L(2, 2)])
    assert found is nodup
    # With no positives, never (stored first) is consistent with anything.
    assert cache.lookup([], []) is never


def test_store_deduplicates_by_definition():
    cache = SynthesisResultCache()
    nodup = _nodup_predicate()
    cache.store([nodup])
    cache.store([nodup])
    assert len(cache) == 1


class CountingPredicate(Predicate):
    """Counts evaluations below the predicate's memo: the values a candidate
    actually pays for."""

    def __init__(self, decl, program):
        super().__init__(decl, program)
        self.calls = 0

    def _evaluate(self, value):
        self.calls += 1
        return super()._evaluate(value)


def test_monotone_growth_checks_only_new_examples():
    cache = SynthesisResultCache()
    counting = _nodup_predicate(CountingPredicate)
    cache.store([counting])

    assert cache.lookup([L(), L(1)], [L(2, 2)]) is counting
    calls_first = counting.calls
    assert calls_first == 3

    # Same sets again: nothing new to evaluate.
    assert cache.lookup([L(), L(1)], [L(2, 2)]) is counting
    assert counting.calls == calls_first

    # One new positive, one new negative: exactly two fresh evaluations.
    assert cache.lookup([L(), L(1), L(3)], [L(2, 2), L(4, 4)]) is counting
    assert counting.calls == calls_first + 2


def test_dead_candidates_are_not_reevaluated_while_positives_persist():
    cache = SynthesisResultCache()
    counting = _never_predicate(CountingPredicate)
    cache.store([counting])

    assert cache.lookup([L(1)], []) is None
    calls_first = counting.calls
    assert calls_first == 1

    # Still dead, no matter how much the sets grow: the offending positive
    # sorts first and its verdict is memoized, so zero further evaluations.
    assert cache.lookup([L(1), L(2), L(3)], [L(4, 4)]) is None
    assert counting.calls == calls_first


def test_shrinking_example_sets_resets_and_stays_correct():
    """Correctness never depends on monotonicity: V- resets on weakening, and
    arbitrary callers may shrink either set."""
    cache = SynthesisResultCache()
    never, nodup = _never_predicate(), _nodup_predicate()
    cache.store([never, nodup])

    # never dies against a positive ...
    assert cache.lookup([L(1)], []) is nodup
    # ... but revives once the offending positive is gone.
    assert cache.lookup([], [L(5)]) is never

    # nodup accepts the negative [1] here, so it is inconsistent ...
    assert cache.lookup([L(2, 2)], [L(1)]) is None
    # ... yet consistent again after V- resets (the Hanoi weakening step).
    assert cache.lookup([L(2, 2)], []) is None  # [2,2] is a rejected positive
    assert cache.lookup([L(1)], []) is nodup


# -- deterministic lookup order (regression: hash-seed dependence) ------------------


def test_lookup_tries_values_in_the_order_given():
    """Positives first, then negatives, each in the order given; a candidate
    stops at the first value that decides."""
    tried = []

    class Recording(Predicate):
        def __call__(self, value):
            tried.append((self.name, value))
            return super().__call__(value)

    never, nodup = _never_predicate(Recording), _nodup_predicate(Recording)
    cache = SynthesisResultCache()
    cache.store([never, nodup])
    positives = (L(2), L(), L(1))
    negatives = (L(3, 3), L(1, 1), L(2, 2))
    assert cache.lookup(positives, negatives) is nodup
    ordered = positives + negatives
    assert tried == [("never", ordered[0])] + [(nodup.name, value) for value in ordered]


def test_next_candidate_scan_order_is_reproducible_across_hash_seeds():
    """The loop sorts V+ and V- by ``value_order`` before the scan, so the
    values a candidate is evaluated on, and their order, do not follow
    PYTHONHASHSEED (which reorders Python set iteration)."""
    import os
    import subprocess
    import sys

    repo = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    script = (
        "from repro.lang.values import nat_of_int, v_list\n"
        "from repro.core.hanoi import HanoiInference\n"
        "from repro.synth.cache import SynthesisResultCache\n"
        "from repro.core.predicate import Predicate\n"
        "from repro.suite.registry import get_benchmark\n"
        "tried = []\n"
        "class Counting(Predicate):\n"
        "    def __call__(self, value):\n"
        "        tried.append((self.name, str(value)))\n"
        "        return super().__call__(value)\n"
        "definition = get_benchmark('/coq/unique-list-::-set')\n"
        "run = HanoiInference(definition)\n"
        "program = run.instance.program\n"
        "nodup = Counting.from_source(definition.expected_invariant, program)\n"
        "never = Counting.from_source('let never (l : list) : bool = False', program)\n"
        "def L(*ints):\n"
        "    return v_list([nat_of_int(i) for i in ints])\n"
        "run.cache = SynthesisResultCache()\n"
        "run.cache.store([never, nodup])\n"
        "print(run._next_candidate({L(), L(1), L(2)}, {L(1, 1), L(2, 2), L(3, 3)}).render())\n"
        "print(run._next_candidate({L(3), L(0), L(2, 1)}, {L(4, 4), L(0, 0)}).render())\n"
        "print(tried)\n"
    )

    outputs = []
    for seed in ("0", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.path.join(repo, "src"))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, check=True)
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert "('never', '[]')" in outputs[0]
