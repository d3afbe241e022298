"""Unit and property tests for example oracles and trace completeness."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.predicate import Predicate
from repro.lang.types import TData
from repro.lang.values import nat_of_int, v_list
from repro.suite.registry import get_benchmark
from repro.synth.base import SynthesisFailure
from repro.synth.examples import ExampleOracle, subvalues_at_type


@pytest.fixture(scope="module")
def listset():
    return get_benchmark("/coq/unique-list-::-set").instantiate()


def L(*ints):
    return v_list([nat_of_int(i) for i in ints])


def test_subvalues_of_list_are_its_suffixes(listset):
    value = L(3, 1, 2)
    subs = subvalues_at_type(value, TData("list"), TData("list"), listset.program.types)
    assert len(subs) == 4  # [3;1;2], [1;2], [2], []
    assert value in subs
    assert L() in subs


def test_oracle_maps_examples_and_pads_subvalues(listset):
    oracle = ExampleOracle.build([L()], [L(1, 1)], TData("list"), listset.program.types)
    assert oracle.expected(L()) is True
    assert oracle.expected(L(1, 1)) is False
    # Trace completeness: the sub-list [1] was added and defaults to false.
    assert L(1) in oracle
    assert oracle.expected(L(1)) is False


def test_existing_entries_are_not_overridden_by_padding(listset):
    oracle = ExampleOracle.build([L(), L(1)], [L(1, 1)], TData("list"), listset.program.types)
    assert oracle.expected(L(1)) is True


def test_overlapping_examples_rejected(listset):
    with pytest.raises(SynthesisFailure):
        ExampleOracle.build([L(1)], [L(1)], TData("list"), listset.program.types)


def test_consistency_uses_original_examples_only(listset):
    oracle = ExampleOracle.build([L()], [L(1, 1)], TData("list"), listset.program.types)
    # Trace completeness pads [1], the tail of [1; 1], as false.  nodup
    # accepts it, yet is consistent with the original examples, which are
    # all the synthesizer re-validates candidates against (padding is
    # internal to the synthesizer).
    nodup = Predicate.from_source(
        get_benchmark("/coq/unique-list-::-set").expected_invariant, listset.program)
    assert oracle.expected(L(1)) is False and nodup(L(1))
    assert (oracle.positives, oracle.negatives) == ((L(),), (L(1, 1),))
    assert nodup.consistent_with(oracle.positives, oracle.negatives)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.lists(st.integers(min_value=0, max_value=3), max_size=4), min_size=1, max_size=4))
def test_oracle_is_trace_complete(lists):
    """Property: every sub-list (at the concrete type) of every example value
    has an entry in the oracle."""
    instance = get_benchmark("/coq/unique-list-::-set").instantiate()
    values = [v_list([nat_of_int(i) for i in xs]) for xs in lists]
    oracle = ExampleOracle.build(values, [], TData("list"), instance.program.types)
    for value in values:
        for sub in subvalues_at_type(value, TData("list"), TData("list"), instance.program.types):
            assert sub in oracle


def test_oracle_orders_equal_size_examples_deterministically(listset):
    """Regression: sorting by size alone left equal-size values in the input
    set's hash-seed-dependent iteration order, which reached the example
    environments (and therefore the candidate stream)."""
    from repro.lang.values import value_order

    positives = [L(3, 1), L(1, 3), L(2, 4), L(4, 2), L(0, 5)]
    negatives = [L(1, 1), L(2, 2), L(3, 3)]
    oracle = ExampleOracle.build(set(positives), set(negatives),
                                 TData("list"), listset.program.types)
    assert list(oracle.positives) == sorted(positives, key=value_order)
    assert list(oracle.negatives) == sorted(negatives, key=value_order)


def test_oracle_order_is_reproducible_across_hash_seeds():
    """The oracle's example order (and hence everything downstream of it)
    must not vary with PYTHONHASHSEED."""
    import os
    import subprocess
    import sys

    repo = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    script = (
        "from repro.lang.types import TData\n"
        "from repro.lang.values import nat_of_int, v_list\n"
        "from repro.suite.registry import get_benchmark\n"
        "from repro.synth.examples import ExampleOracle\n"
        "def L(*ints):\n"
        "    return v_list([nat_of_int(i) for i in ints])\n"
        "types = get_benchmark('/coq/unique-list-::-set').instantiate().program.types\n"
        "oracle = ExampleOracle.build(\n"
        "    {L(3, 1), L(1, 3), L(2, 4), L(4, 2)}, {L(1, 1), L(2, 2)},\n"
        "    TData('list'), types)\n"
        "print([str(v) for v in oracle.positives])\n"
        "print([str(v) for v in oracle.negatives])\n"
        "print([str(v) for v in oracle.mapping])\n"
    )
    outputs = []
    for seed in ("1", "7"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.path.join(repo, "src"))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, check=True)
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
