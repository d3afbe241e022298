"""Every mode reports how its loop stopped as a typed status, not a traceback.

Each of the 7 modes runs one small built-in four ways: with a zero time
budget, with a synthesizer that raises ``SynthesisFailure``, with an
iteration budget of one, and with a synthesizer that raises
``NotImplementedError``.  Each result's ``status``, ``iterations`` and
``message`` are pinned, and a result that is not a success carries no
invariant.

``/other/nat-nat-option-::-range`` is the built-in where Hanoi's synthesis
recovery runs out of new positives quickly (after 30 iterations), so a
synthesizer that always fails ends every Hanoi mode in a synthesis failure
rather than at the iteration limit.
"""

from dataclasses import replace

import pytest

from repro.experiments.runner import MODES, quick_config, run_module
from repro.suite.registry import get_benchmark
from repro.synth.base import SynthesisFailure
from repro.synth.myth import MythSynthesizer

BENCHMARK = "/other/nat-nat-option-::-range"

HANOI_MODES = ("hanoi", "hanoi-src", "hanoi-clc", "hanoi-fold")
BASELINES = ("conj-str", "linear-arbitrary", "oneshot")

TIMED_OUT = ("timeout", 1, "exceeded time budget of 0.0s")
LIMIT = ("failure", 1, "iteration limit reached")
UNSUPPORTED = ("failure", 1, "unsupported (test)")

#: scenario -> mode -> (status, iterations, message)
EXPECTED = {
    "timeout": {mode: TIMED_OUT for mode in MODES},
    "synthesis-failure": {
        **{mode: ("synthesis-failure", 30, "no candidate (test)") for mode in HANOI_MODES},
        **{mode: ("synthesis-failure", 1, "no candidate (test)") for mode in BASELINES},
    },
    "one-iteration": {
        **{mode: LIMIT for mode in MODES},
        # OneShot keeps its fixed count of one synthesis call.
        "oneshot": ("success", 1, ""),
    },
    "not-implemented": {mode: UNSUPPORTED for mode in MODES},
}


def _fail_synthesis(self, positives, negatives, *args, **kwargs):
    raise SynthesisFailure("no candidate (test)")


def _unsupported(self, positives, negatives, *args, **kwargs):
    raise NotImplementedError("unsupported (test)")


def test_every_mode_is_covered():
    assert set(MODES) == set(HANOI_MODES) | set(BASELINES)


@pytest.mark.parametrize("scenario", sorted(EXPECTED))
@pytest.mark.parametrize("mode", sorted(MODES))
def test_status_iterations_and_message(mode, scenario, monkeypatch):
    config = quick_config(60)
    if scenario == "timeout":
        config = replace(config, timeout_seconds=0.0)
    elif scenario == "one-iteration":
        config = replace(config, max_iterations=1)
    elif scenario == "synthesis-failure":
        # The fold synthesizer inherits ``synthesize``, so one patch covers
        # every mode's synthesizer.
        monkeypatch.setattr(MythSynthesizer, "synthesize", _fail_synthesis)
    else:
        monkeypatch.setattr(MythSynthesizer, "synthesize", _unsupported)
    result = run_module(get_benchmark(BENCHMARK), mode=mode, config=config)
    assert (result.status, result.iterations, result.message) == EXPECTED[scenario][mode]
    assert result.mode == mode
    if result.status != "success":
        assert result.invariant is None
