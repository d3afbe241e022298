"""Unit tests for the core model: modules, predicates, stats, config, traces."""

import time

import pytest

from repro.core.config import Deadline, HanoiConfig, InferenceTimeout
from repro.core.module import ModuleDefinition, Operation
from repro.core.predicate import Predicate, always_true
from repro.core.stats import InferenceStats
from repro.core.trace import CounterexampleTrace
from repro.lang.types import TAbstract, TData, arrow
from repro.lang.values import nat_of_int, v_list
from repro.suite.registry import get_benchmark


def L(*ints):
    return v_list([nat_of_int(i) for i in ints])


# -- Operation / ModuleDefinition -------------------------------------------------


def test_operation_signature_queries():
    op = Operation("insert", arrow(TAbstract(), TData("nat"), TAbstract()))
    assert op.argument_types == (TAbstract(), TData("nat"))
    assert op.result_type == TAbstract()
    assert op.produces_abstract
    lookup = Operation("lookup", arrow(TAbstract(), TData("nat"), TData("bool")))
    assert not lookup.produces_abstract


def test_module_definition_classification():
    definition = get_benchmark("/coq/unique-list-::-set+binfuncs")
    hofs = get_benchmark("/coq/unique-list-::-set+hofs")
    assert definition.spec_abstract_arity == 2
    assert hofs.spec_abstract_arity == 1


def test_instance_validates_missing_operation():
    definition = get_benchmark("/coq/unique-list-::-set")
    broken = ModuleDefinition(
        name="broken", group="other", source=definition.source,
        concrete_type=definition.concrete_type,
        operations=definition.operations + (Operation("nonexistent", TAbstract()),),
        spec_name=definition.spec_name, spec_signature=definition.spec_signature,
        synthesis_components=definition.synthesis_components,
    )
    with pytest.raises(ValueError):
        broken.instantiate()


# -- Predicate ------------------------------------------------------------------------


def test_predicate_from_source_and_call(listset_instance):
    nodup = Predicate.from_source(
        get_benchmark("/coq/unique-list-::-set").expected_invariant, listset_instance.program
    )
    assert nodup(L()) and nodup(L(2, 1))
    assert not nodup(L(1, 1))
    assert nodup.size > 1
    assert "match" in nodup.render()


def test_predicate_consistency_helpers(listset_instance):
    nodup = Predicate.from_source(
        get_benchmark("/coq/unique-list-::-set").expected_invariant, listset_instance.program
    )
    assert nodup.consistent_with([L(), L(1)], [L(2, 2)])
    assert not nodup.consistent_with([L(1, 1)], [])
    assert not nodup.consistent_with([], [L(3)])
    assert nodup.consistent_with([], [])


def test_predicate_evaluation_failure_counts_as_rejection(listset_instance):
    partial = Predicate.from_source("""
let partial (l : list) : bool =
  match l with
  | Nil -> True
""", listset_instance.program)
    # Match failure on a non-empty list is treated as "rejects".
    assert partial(L())
    assert not partial(L(1))


def test_always_true_predicate(listset_instance):
    trivial = always_true(TData("list"), listset_instance.program)
    assert trivial(L()) and trivial(L(1, 1))
    assert trivial.size == 3


def test_predicate_requires_single_parameter(listset_instance):
    with pytest.raises(ValueError):
        Predicate.from_source("let two (a : nat) (b : nat) : bool = True",
                              listset_instance.program)


# -- Stats ------------------------------------------------------------------------------


def test_stats_timers_and_derived_columns():
    stats = InferenceStats()
    with stats.verification():
        time.sleep(0.01)
    with stats.synthesis():
        pass
    stats.finish()
    assert stats.verification_calls == 1 and stats.synthesis_calls == 1
    assert stats.verification_time > 0
    assert stats.mean_verification_time == stats.verification_time
    row = stats.as_dict()
    assert set(["time", "tvt", "tvc", "mvt", "tst", "tsc", "mst"]) <= set(row)
    assert row["time"] >= row["tvt"]


def test_stats_mean_is_none_without_calls():
    stats = InferenceStats()
    assert stats.mean_verification_time is None
    assert stats.mean_synthesis_time is None


# -- Config / Deadline -----------------------------------------------------------------------


def test_config_ablation_helpers():
    config = HanoiConfig()
    assert config.synthesis_result_caching and config.counterexample_list_caching
    assert not config.without_synthesis_result_caching().synthesis_result_caching
    assert not config.without_counterexample_list_caching().counterexample_list_caching


def test_deadline_expiry():
    deadline = Deadline(None)
    deadline.check()  # no budget, never expires
    assert deadline.remaining() is None
    expired = Deadline(0.0)
    expired.started_at -= 1.0
    assert expired.expired()
    with pytest.raises(InferenceTimeout):
        expired.check()
    assert expired.remaining() == 0.0


# -- Counterexample trace ---------------------------------------------------------------------


def test_trace_replay_keeps_prefix(listset_instance):
    """Figure 6: candidates accepting the new positive keep their negatives."""
    program = listset_instance.program
    accepts_all = Predicate.from_source("let p1 (l : list) : bool = True", program)
    rejects_singletons = Predicate.from_source("""
let p2 (l : list) : bool =
  match l with
  | Nil -> True
  | Cons (hd, tl) -> (match tl with | Nil -> False | Cons (h2, t2) -> True)
""", program)
    trace = CounterexampleTrace()
    trace.record(accepts_all, [L(1, 1)])
    trace.record(rejects_singletons, [L(2, 2)])
    kept = trace.replay([L(3)])  # new positive: a singleton list
    assert kept == {L(1, 1)}
    assert len(trace) == 1  # truncated at the first rejecting candidate


def test_trace_replay_keeps_everything_when_all_accept(listset_instance):
    program = listset_instance.program
    accepts_all = Predicate.from_source("let p (l : list) : bool = True", program)
    trace = CounterexampleTrace()
    trace.record(accepts_all, [L(1, 1)])
    trace.record(accepts_all, [L(2, 2)])
    kept = trace.replay([L(0)])
    assert kept == {L(1, 1), L(2, 2)}
    assert len(trace) == 2
    trace.clear()
    assert len(trace) == 0
