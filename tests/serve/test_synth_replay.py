"""The persistent store's ``synth`` section: synthesizer answers replayed
across processes.

A warm run answers each synthesis call from the store instead of running the
synthesizer, and must leave the run exactly as a cold run leaves it: the
same loop log, the same fingerprint, the same Figure-7 call count.
"""

import glob
import hashlib
import json
import os

import pytest

from repro.core.config import FAST_VERIFIER_BOUNDS, HanoiConfig
from repro.core.stats import InferenceStats
from repro.experiments.runner import run_module
from repro.gen.diff import outcome_fingerprint
from repro.serve.diskcache import (
    SYNTH_FORMAT,
    DiskCacheStore,
    PersistentCacheBinding,
)
from repro.spec.loader import load_module_file, load_module_text
from repro.suite.registry import get_benchmark
from repro.synth.base import SynthesisFailure
from repro.synth.folds import FoldSynthesizer
from repro.synth.myth import MythSynthesizer

CONFIG = HanoiConfig(verifier_bounds=FAST_VERIFIER_BOUNDS, timeout_seconds=60)
EXAMPLE = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                       "examples", "modules", "bounded-stack.hanoi")
STARRED = "/coq/unique-list-::-set+hofs"


@pytest.fixture
def synthesize_calls(monkeypatch):
    """Every ``MythSynthesizer.synthesize`` call's answer, in call order: the
    rendered candidates, or the ``SynthesisFailure`` message."""
    answers = []
    original = MythSynthesizer.synthesize

    def recording(self, positives, negatives):
        try:
            candidates = original(self, positives, negatives)
        except SynthesisFailure as failure:
            answers.append(str(failure))
            raise
        answers.append([candidate.render() for candidate in candidates])
        return candidates

    monkeypatch.setattr(MythSynthesizer, "synthesize", recording)
    return answers


def _run(definition, root=None, mode="hanoi"):
    config = CONFIG if root is None else CONFIG.with_cache_dir(root)
    return run_module(definition, mode=mode, config=config)


def _without_warnings(events):
    return [event for event in events if event["event"] != "disk-cache-warning"]


def test_a_warm_run_calls_no_synthesizer_and_keeps_the_cold_loop_log(
        tmp_path, synthesize_calls):
    root = str(tmp_path / "cache")
    definition = load_module_file(EXAMPLE)
    cold = _run(definition, root)
    assert cold.succeeded and synthesize_calls
    assert cold.stats.synthesis_replays == 0

    del synthesize_calls[:]
    warm = _run(load_module_file(EXAMPLE), root)
    assert synthesize_calls == []
    assert warm.events == cold.events
    assert outcome_fingerprint(warm) == outcome_fingerprint(cold)
    # Figure 7's TSC is the same cold and warm.
    assert warm.stats.synthesis_calls == cold.stats.synthesis_calls
    assert warm.stats.synthesis_replays == warm.stats.synthesis_calls
    assert warm.stats.disk_cache_misses == 0


def test_a_synthesis_failure_is_replayed_with_its_message(tmp_path, monkeypatch):
    original = MythSynthesizer.synthesize
    failed = []

    def fail_once(self, positives, negatives):
        if not failed:
            failed.append((tuple(positives), tuple(negatives)))
            raise SynthesisFailure("forced failure of the first call")
        return original(self, positives, negatives)

    root = str(tmp_path / "cache")
    with monkeypatch.context() as patch:
        patch.setattr(MythSynthesizer, "synthesize", fail_once)
        cold = _run(load_module_file(EXAMPLE), root)
    assert failed and cold.succeeded
    assert any(event["event"] == "synthesis-recovery" for event in cold.events)

    warm = _run(load_module_file(EXAMPLE), root)
    assert warm.events == cold.events
    assert warm.stats.synthesis_replays == warm.stats.synthesis_calls

    # Asked directly, the store raises the stored failure again.
    definition = load_module_file(EXAMPLE)
    instance = definition.instantiate()
    binding = PersistentCacheBinding(DiskCacheStore(root), definition, instance,
                                     CONFIG, MythSynthesizer(instance))
    binding.restore(None, None, InferenceStats())
    positives, negatives = failed[0]
    with pytest.raises(SynthesisFailure, match="^forced failure of the first call$"):
        binding.replay(positives, negatives, InferenceStats())


@pytest.mark.parametrize("forged", [
    ("let inv (x : list) : bool = (andb",),   # does not parse
    ("let inv : bool = True",),               # parses, but takes no argument
    (),                                       # no candidate
    42,                                       # not an answer at all
], ids=["unparsable", "not-a-predicate", "empty", "wrong-type"])
def test_a_forged_answer_is_a_warned_miss(tmp_path, forged):
    root = str(tmp_path / "cache")
    cold = _run(load_module_file(EXAMPLE), root)
    store = DiskCacheStore(root)
    path, = glob.glob(os.path.join(root, "v*", "synth", "*", "*.bin"))
    key = os.path.basename(path)[:-len(".bin")]
    answers = store.get("synth", key)
    # A valid checksum over a damaged answer: only the entry itself can tell.
    assert store.put("synth", key, {entry: forged for entry in answers})

    forged_run = _run(load_module_file(EXAMPLE), root)
    assert outcome_fingerprint(forged_run) == outcome_fingerprint(cold)
    warnings = [event for event in forged_run.events
                if event["event"] == "disk-cache-warning"]
    assert warnings and all(w["section"] == "synth" for w in warnings)
    assert _without_warnings(forged_run.events) == cold.events
    assert forged_run.stats.synthesis_replays == 0
    assert forged_run.stats.synthesis_calls == cold.stats.synthesis_calls

    # The misses were synthesized and written back: the next run replays.
    mended = _run(load_module_file(EXAMPLE), root)
    assert mended.events == cold.events
    assert mended.stats.synthesis_replays == mended.stats.synthesis_calls


# -- the section key -----------------------------------------------------------


def _synth_key(text, synthesizer=MythSynthesizer):
    definition = load_module_text(text, path=EXAMPLE)
    instance = definition.instantiate()
    binding = PersistentCacheBinding(DiskCacheStore("/nonexistent"), definition,
                                     instance, CONFIG, synthesizer(instance))
    return binding.synth_key()


@pytest.fixture(scope="module")
def stack_text():
    with open(EXAMPLE, encoding="utf-8") as handle:
        return handle.read()


@pytest.mark.parametrize("old, new", [
    ("| Nil -> Nil", "| Nil -> empty"),                     # pop
    ("| Nil -> NoneN",
     "| Nil -> (match s with | Nil -> NoneN | Cons (a, b) -> NoneN)"),  # peek
], ids=["pop", "peek"])
def test_editing_an_operation_keeps_the_synth_key(stack_text, old, new):
    assert _synth_key(stack_text.replace(old, new, 1)) == _synth_key(stack_text)


@pytest.mark.parametrize("old, new", [
    ("nat_leq (size s) 3\n\nlet push", "nat_leq (size s) 4\n\nlet push"),  # within_bound
    ("type list = Nil | Cons of nat * list",
     "type list = Cons of nat * list | Nil"),                 # the concrete type
], ids=["component", "concrete-type"])
def test_editing_a_component_or_the_concrete_type_moves_the_synth_key(
        stack_text, old, new):
    edited = stack_text.replace(old, new, 1)
    assert edited != stack_text
    assert _synth_key(edited) != _synth_key(stack_text)


def test_the_synthesizer_class_is_part_of_the_key(stack_text):
    assert _synth_key(stack_text, FoldSynthesizer) != _synth_key(stack_text)

    class Fake:
        def __init__(self, instance):
            pass

    assert _synth_key(stack_text, Fake) is None


# -- one store shared by every Hanoi-loop mode ---------------------------------


def test_hanoi_loop_modes_share_one_store_soundly(tmp_path):
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
            if mode == "hanoi-fold":
                # Its own section: a fold run is never served a Myth answer.
                assert shared.stats.synthesis_replays == 0
                assert _run(load(), root, mode=mode).stats.synthesis_replays > 0
            else:
                assert shared.stats.synthesis_replays > 0, mode


# -- staleness guard -------------------------------------------------------------

#: Stored answers are only valid for the search code that produced them.  If
#: this digest changes, the synthesizer's output changed: bump
#: ``SYNTH_FORMAT`` in serve/diskcache.py, then re-pin both here.
PINNED_ANSWERS = ("synth1", "9382c85195e71a0809ed8037a5e6a6e85b36aa6956d6c9fb9203c0ed1ef3a539")


def test_synth_format_tag_pins_the_synthesizer_output(synthesize_calls):
    for name in ("/other/sized-list", "/coq/unique-list-::-set",
                 "/vfa/assoc-list-::-table"):
        assert _run(get_benchmark(name)).succeeded
    _run(get_benchmark("/other/sized-list"), mode="hanoi-fold")
    digest = hashlib.sha256(json.dumps(synthesize_calls).encode("utf-8")).hexdigest()
    assert (SYNTH_FORMAT, digest) == PINNED_ANSWERS
