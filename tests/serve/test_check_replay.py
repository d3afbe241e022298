"""The persistent store's ``checks`` section: inductiveness verdicts
replayed across processes.

A warm run answers each conditional-inductiveness check (visible, full and
the synthesis-recovery closure) from the store instead of running the
checker, and must leave the run exactly as a cold run leaves it: the same
loop log, the same fingerprint, the same Figure-7 call count and the same
number of structures tested.
"""

import glob
import hashlib
import json
import os
import shutil
from dataclasses import replace

import pytest

from repro.core.config import FAST_VERIFIER_BOUNDS, HanoiConfig
from repro.core.stats import InferenceStats
from repro.experiments.runner import run_module
from repro.gen.diff import outcome_fingerprint
from repro.inductive.relation import ConditionalInductivenessChecker
from repro.lang.values import VCtor, VTuple, nat_of_int, v_list
from repro.serve import diskcache
from repro.serve.diskcache import (
    CHECKS_FORMAT,
    DiskCacheStore,
    PersistentCacheBinding,
)
from repro.spec.loader import load_module_file, load_module_text
from repro.suite.registry import get_benchmark
from repro.synth.folds import FoldSynthesizer
from repro.synth.myth import MythSynthesizer
from repro.verify.result import VALID, InductivenessCounterexample

CONFIG = HanoiConfig(verifier_bounds=FAST_VERIFIER_BOUNDS, timeout_seconds=60)
EXAMPLE = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                       "examples", "modules", "bounded-stack.hanoi")
STARRED = "/coq/unique-list-::-set+hofs"


@pytest.fixture
def checks(monkeypatch):
    """Every ``ConditionalInductivenessChecker.check`` call, in call order:
    whether it was given V+, its verdict and the structures it tested."""
    calls = []
    original = ConditionalInductivenessChecker.check

    def recording(self, p, q, p_pool=None, operations=None):
        tested = self.stats.structures_tested
        result = original(self, p, q, p_pool, operations)
        verdict = "valid"
        if isinstance(result, InductivenessCounterexample):
            verdict = [result.operation, [str(v) for v in result.inputs],
                       [str(v) for v in result.outputs]]
        calls.append([p_pool is not None, verdict,
                      self.stats.structures_tested - tested])
        return result

    monkeypatch.setattr(ConditionalInductivenessChecker, "check", recording)
    return calls


def _run(definition, root=None, mode="hanoi", config=CONFIG):
    if root is not None:
        config = config.with_cache_dir(root)
    return run_module(definition, mode=mode, config=config)


def _without_warnings(events):
    return [event for event in events if event["event"] != "disk-cache-warning"]


def _checks_section(root):
    """The key and entries of the store's one ``checks`` section."""
    path, = glob.glob(os.path.join(root, "v*", "checks", "*", "*.bin"))
    key = os.path.basename(path)[:-len(".bin")]
    return key, DiskCacheStore(root).get("checks", key)


def test_a_warm_run_runs_no_check_and_keeps_the_cold_loop_log(tmp_path, checks):
    root = str(tmp_path / "cache")
    cold = _run(load_module_file(EXAMPLE), root)
    assert cold.succeeded and checks
    assert cold.stats.inductiveness_checks == len(checks)
    assert cold.stats.inductiveness_replays == 0

    del checks[:]
    warm = _run(load_module_file(EXAMPLE), root)
    assert checks == []
    assert warm.events == cold.events
    assert outcome_fingerprint(warm) == outcome_fingerprint(cold)
    # Figure 7's TVC is the same cold and warm.
    assert warm.stats.verification_calls == cold.stats.verification_calls
    assert warm.stats.inductiveness_checks == cold.stats.inductiveness_checks
    assert warm.stats.inductiveness_replays == warm.stats.inductiveness_checks
    assert warm.stats.disk_cache_misses == 0

    # The structures a replayed check counts are the ones it tested: a run
    # whose only miss is the checks section tests as many as a warm run.
    shutil.rmtree(os.path.join(root, f"v{diskcache.STORE_VERSION}", "checks"))
    rechecked = _run(load_module_file(EXAMPLE), root)
    assert rechecked.stats.disk_cache_misses == 1
    assert rechecked.stats.inductiveness_replays == 0
    assert rechecked.stats.structures_tested == warm.stats.structures_tested
    assert rechecked.events == cold.events


def test_a_stored_verdict_replays_as_stored(tmp_path):
    root = str(tmp_path / "cache")
    _run(load_module_file(EXAMPLE), root)
    key, entries = _checks_section(root)
    assert any(len(entry) == 4 for entry in entries.values())

    definition = load_module_file(EXAMPLE)
    instance = definition.instantiate()
    binding = PersistentCacheBinding(DiskCacheStore(root), definition, instance,
                                     CONFIG, MythSynthesizer(instance))
    assert binding.checks_key() == key
    binding.restore(None, None, InferenceStats())
    stats = InferenceStats()
    for entry_key, entry in entries.items():
        verdict = binding.replay_check(entry_key, stats)
        if len(entry) == 1:
            assert verdict is VALID
        else:
            assert (verdict.operation,
                    " ".join(map(binding._code, verdict.inputs)),
                    " ".join(map(binding._code, verdict.outputs))) == entry[1:]
    assert stats.verification_calls == stats.inductiveness_replays == len(entries)
    assert stats.structures_tested == sum(int(entry[0]) for entry in entries.values())

    for code in ("Nil", "Cons((O,Nil))", "Cons((S(S(O)),Cons((O,Nil))))"):
        assert binding._code(binding._decode(code)) == code
    assert binding._decode("Cons((S(O),Nil))") is v_list([nat_of_int(1)])
    assert binding._decode("()") is VTuple(())


def test_the_value_decoder_does_not_recurse():
    definition = load_module_file(EXAMPLE)
    instance = definition.instantiate()
    binding = PersistentCacheBinding(DiskCacheStore("/nonexistent"), definition,
                                     instance, CONFIG, MythSynthesizer(instance))
    depth = 100_000
    value = binding._decode("Cons((O," * depth + "Nil" + "))" * depth)
    for _ in range(depth):
        assert value.ctor == "Cons"
        head, value = value.payload.items
        assert head is VCtor("O")
    assert value is VCtor("Nil")


@pytest.mark.parametrize("forge", [
    lambda entry: 42,                                    # not a verdict
    lambda entry: ("1", "push"),                         # wrong arity
    lambda entry: ("many",),                             # not a count
    lambda entry: (entry[0], "push", "Nil", "Bogus"),    # unknown constructor
    lambda entry: (entry[0], "push", "Nil", "Nil(O)"),   # payload on a constant
    lambda entry: (entry[0], "push", "Nil", "Cons((O,Nil)"),  # truncated code
    lambda entry: (entry[0], "push", "Nil", ""),         # no outputs
    lambda entry: (entry[0], "frobnicate", "Nil", "Nil"),  # unknown operation
], ids=["wrong-type", "wrong-arity", "not-a-count", "unknown-constructor",
        "wrong-payload", "truncated-code", "no-outputs", "unknown-operation"])
def test_a_forged_verdict_is_a_warned_miss(tmp_path, forge):
    root = str(tmp_path / "cache")
    cold = _run(load_module_file(EXAMPLE), root)
    key, entries = _checks_section(root)
    # A valid checksum over a damaged verdict: only the entry can tell.
    assert DiskCacheStore(root).put(
        "checks", key, {entry: forge(verdict) for entry, verdict in entries.items()})

    forged = _run(load_module_file(EXAMPLE), root)
    assert outcome_fingerprint(forged) == outcome_fingerprint(cold)
    warnings = [event for event in forged.events
                if event["event"] == "disk-cache-warning"]
    assert warnings and all(w["section"] == "checks" for w in warnings)
    assert _without_warnings(forged.events) == cold.events
    assert forged.stats.inductiveness_replays == 0
    assert forged.stats.verification_calls == cold.stats.verification_calls

    # The misses were checked and written back: the next run replays.
    mended = _run(load_module_file(EXAMPLE), root)
    assert mended.events == cold.events
    assert mended.stats.inductiveness_replays == mended.stats.inductiveness_checks


# -- the section key -----------------------------------------------------------


def _checks_key(text, synthesizer=MythSynthesizer, config=CONFIG):
    definition = load_module_text(text, path=EXAMPLE)
    instance = definition.instantiate()
    binding = PersistentCacheBinding(DiskCacheStore("/nonexistent"), definition,
                                     instance, config, synthesizer(instance))
    return binding.checks_key()


@pytest.fixture(scope="module")
def stack_text():
    with open(EXAMPLE, encoding="utf-8") as handle:
        return handle.read()


@pytest.mark.parametrize("old, new", [
    ("| Nil -> Nil", "| Nil -> empty"),                       # pop
    ("type list = Nil | Cons of nat * list",
     "type list = Cons of nat * list | Nil"),                 # the concrete type
    ("nat_leq (size s) 3\n\nlet push", "nat_leq (size s) 4\n\nlet push"),  # helper
], ids=["pop", "concrete-type", "helper"])
def test_editing_an_operation_or_the_concrete_type_moves_the_checks_key(
        stack_text, old, new):
    edited = stack_text.replace(old, new, 1)
    assert edited != stack_text
    assert _checks_key(edited) != _checks_key(stack_text)


def test_editing_only_the_spec_keeps_the_checks_key(stack_text):
    edited = stack_text.replace("(optionN_eq (peek (push s x)) (SomeN x)))",
                                "(optionN_eq (SomeN x) (peek (push s x))))", 1)
    assert edited != stack_text
    assert _checks_key(edited) == _checks_key(stack_text)


def test_bounds_fuel_and_synthesizer_are_part_of_the_checks_key(stack_text,
                                                                monkeypatch):
    key = _checks_key(stack_text)
    wider = replace(FAST_VERIFIER_BOUNDS,
                    max_abstract_values=FAST_VERIFIER_BOUNDS.max_abstract_values + 1)
    assert _checks_key(stack_text, config=replace(CONFIG, verifier_bounds=wider)) != key
    assert _checks_key(stack_text, FoldSynthesizer) != key

    class Fake:
        def __init__(self, instance):
            pass

    # The section exists exactly when the synth section does.
    assert _checks_key(stack_text, Fake) is None
    monkeypatch.setattr(diskcache, "DEFAULT_FUEL", diskcache.DEFAULT_FUEL + 1)
    assert _checks_key(stack_text) != key


# -- one store shared by every Hanoi-loop mode ---------------------------------


def test_hanoi_loop_modes_replay_verdicts_a_hanoi_run_stored(tmp_path):
    root = str(tmp_path / "cache")
    modules = [lambda: load_module_file(EXAMPLE), lambda: get_benchmark(STARRED)]
    for load in modules:
        assert _run(load(), root).succeeded

    for mode in ("hanoi-src", "hanoi-clc", "hanoi-fold"):
        for load in modules:
            plain = _run(load(), mode=mode)
            shared = _run(load(), root, mode=mode)
            assert outcome_fingerprint(shared) == outcome_fingerprint(plain), mode
            assert _without_warnings(shared.events) == plain.events, mode
            assert shared.stats.verification_calls == plain.stats.verification_calls
            if mode == "hanoi-fold":
                # Its own section: a fold run never replays a Myth run's check.
                assert shared.stats.inductiveness_replays == 0
            else:
                assert shared.stats.inductiveness_replays > 0, mode


# -- staleness guard -------------------------------------------------------------

#: Stored verdicts are only valid for the checker that produced them.  If
#: this digest changes, what an inductiveness check returns or counts
#: changed: bump ``CHECKS_FORMAT`` in serve/diskcache.py, then re-pin both here.
PINNED_VERDICTS = ("checks2", "8603638e247e2f6343e52b7e19f80251f11bd08972f21a51d89d8cec196b6459")


def test_checks_format_tag_pins_the_checker_output(checks):
    for name in ("/other/sized-list", "/coq/unique-list-::-set",
                 "/vfa/assoc-list-::-table"):
        assert _run(get_benchmark(name)).succeeded
    digest = hashlib.sha256(json.dumps(checks).encode("utf-8")).hexdigest()
    assert (CHECKS_FORMAT, digest) == PINNED_VERDICTS
