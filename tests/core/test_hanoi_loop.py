"""Integration-level tests of the Hanoi CEGIS loop itself."""

import pytest

from repro.core.hanoi import HanoiInference, infer_invariant
from repro.core.result import Status
from repro.experiments.report import FIGURE7_HEADERS, figure7_rows
from repro.lang.values import nat_of_int, v_list
from repro.suite.registry import get_benchmark


def L(*ints):
    return v_list([nat_of_int(i) for i in ints])


def test_motivating_example_infers_no_duplicates(fast_config):
    result = infer_invariant(get_benchmark("/coq/unique-list-::-set"), fast_config)
    assert result.succeeded
    invariant = result.invariant
    assert invariant(L()) and invariant(L(2, 1)) and invariant(L(5, 3, 0))
    assert not invariant(L(1, 1)) and not invariant(L(2, 0, 2))
    assert result.invariant_size >= 5
    assert result.stats.verification_calls > 0
    assert result.stats.synthesis_calls > 0


def test_result_row_contains_figure7_columns(fast_config):
    result = infer_invariant(get_benchmark("/coq/unique-list-::-set"), fast_config)
    [cells] = figure7_rows([result])
    row = dict(zip(FIGURE7_HEADERS, cells))
    for column in ("Name", "Status", "Size", "Time (s)", "TVT (s)", "TVC", "MVT (s)",
                   "TST (s)", "TSC", "MST (s)"):
        assert column in row
    assert row["Status"] == Status.SUCCESS
    assert row["Size"] == result.invariant_size


def test_events_record_cegis_progress(fast_config):
    engine = HanoiInference(get_benchmark("/coq/unique-list-::-set"), config=fast_config)
    result = engine.infer()
    kinds = [event["event"] for event in result.events]
    assert "synthesized" in kinds
    assert "success" in kinds
    # The motivating example requires both weakening and strengthening steps.
    assert any(k in ("visible-counterexample", "late-visible-counterexample") for k in kinds)
    assert any(k in ("sufficiency-counterexample", "inductiveness-counterexample") for k in kinds)


def test_spec_violation_is_detected(fast_config):
    """A module that genuinely violates its specification terminates with the
    Figure-4 "Counterexample" outcome instead of looping forever."""
    definition = get_benchmark("/coq/unique-list-::-set")
    broken_source = definition.source.replace(
        "let insert (l : list) (x : nat) : list =\n  if lookup l x then l else Cons (x, l)",
        "let insert (l : list) (x : nat) : list = l",
    )
    assert broken_source != definition.source
    from dataclasses import replace as dc_replace
    broken = dc_replace(definition, name="broken-listset", source=broken_source)
    result = infer_invariant(broken, fast_config)
    assert result.status == Status.SPEC_VIOLATION
    assert "specification" in result.message


def test_spec_violation_lists_its_witnesses_in_value_order(fast_config):
    """The witnesses of a violation form a set, which iterates in address
    order; the log and the message list them in ``value_order`` instead,
    so every run reports the same violation the same way."""
    definition = get_benchmark("/coq/unique-list-::-set+binfuncs")
    broken_source = definition.source.replace(
        "  | Cons (hd, tl) -> insert (union tl b) hd\n", "  | Cons (hd, tl) -> b\n")
    assert broken_source != definition.source
    from dataclasses import replace as dc_replace
    broken = dc_replace(definition, name="broken-union", source=broken_source)
    runs = [infer_invariant(broken, fast_config) for _ in range(2)]
    for result in runs:
        assert result.status == Status.SPEC_VIOLATION
        assert result.message == "constructible specification violation: [], [0]"
        (event,) = [e for e in result.events if e["event"] == "spec-violation"]
        assert event["witnesses"] == ["[]", "[0]"]
    assert runs[0].events == runs[1].events


@pytest.mark.parametrize("name", [
    "/coq/unique-list-::-set",
    "/coq/sorted-list-::-set",
    "/other/stutter-list",
    "/coq/maxfirst-list-::-heap",
    "/other/sized-list",
])
def test_caching_flags_affect_behaviour(fast_config, name):
    """The Hanoi-SRC and Hanoi-CLC ablations of Figure 8: each switch turns
    its cache off, and counterexample list caching saves verification calls
    and iterations."""
    baseline = HanoiInference(get_benchmark(name), config=fast_config).infer()
    no_src = HanoiInference(
        get_benchmark(name),
        config=fast_config.without_synthesis_result_caching(),
    ).infer()
    no_clc = HanoiInference(
        get_benchmark(name),
        config=fast_config.without_counterexample_list_caching(),
    ).infer()
    assert baseline.succeeded and no_src.succeeded and no_clc.succeeded
    assert no_src.stats.synthesis_cache_hits == 0
    assert no_clc.stats.trace_replays == 0
    assert baseline.stats.verification_calls <= no_clc.stats.verification_calls
    assert baseline.iterations <= no_clc.iterations


def test_positive_examples_only_grow_and_negatives_reset(fast_config):
    """The executable content of the termination argument (Theorem 3.10): V+
    grows monotonically across weakening steps."""
    engine = HanoiInference(get_benchmark("/coq/unique-list-::-set"), config=fast_config)
    result = engine.infer()
    assert result.succeeded
    positive_total = sum(
        len(event.get("added", [])) for event in result.events
        if event["event"] in ("visible-counterexample", "late-visible-counterexample")
    )
    assert positive_total == result.stats.positives_added
    assert result.stats.positives_added >= 1
