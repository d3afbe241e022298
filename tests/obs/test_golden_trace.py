"""End-to-end trace guarantees on the motivating ListSet benchmark.

Two contracts are pinned here:

* **Loop-log byte-compatibility** — a traced run's ``InferenceResult.events``
  is byte-identical to an untraced run's, so every existing consumer
  (Figure 5 rendering, the fuzzer's stored rows) is unaffected by tracing.
* **Trace determinism** — under the injectable :class:`CountingClock` the
  whole JSONL trace is byte-identical across repeated runs *and* across
  ``PYTHONHASHSEED`` values (nothing in a record depends on wall time, pids,
  or set/dict iteration order).
"""

import json
import os
import subprocess
import sys
import textwrap

import pytest

from repro.core.hanoi import HanoiInference
from repro.obs.analyze import validate_trace
from repro.obs.events import CountingClock, Emitter
from repro.obs.sinks import InMemorySink, JsonlTraceSink, read_trace
from repro.suite.registry import get_benchmark
from repro.synth.folds import FoldSynthesizer
from repro.synth.myth import MythSynthesizer

LIST_SET_NAME = "/coq/unique-list-::-set"

#: Source of one traced ListSet run, also executed as a subprocess under
#: varying hash seeds.  Keep it in sync with `traced_run` below.
RUN_SCRIPT = textwrap.dedent("""
    import sys
    from repro.core.config import FAST_VERIFIER_BOUNDS, HanoiConfig
    from repro.core.hanoi import HanoiInference
    from repro.obs.events import CountingClock, Emitter
    from repro.obs.sinks import JsonlTraceSink
    from repro.suite.registry import get_benchmark

    config = HanoiConfig(verifier_bounds=FAST_VERIFIER_BOUNDS, timeout_seconds=90)
    with JsonlTraceSink(sys.argv[2]) as sink:
        emitter = Emitter(sinks=[sink], run="listset/hanoi", clock=CountingClock())
        HanoiInference(get_benchmark(sys.argv[1]), config,
                       emitter=emitter).infer()
""")


def traced_run(fast_config, path):
    with JsonlTraceSink(str(path)) as sink:
        emitter = Emitter(sinks=[sink], run="listset/hanoi",
                          clock=CountingClock())
        return HanoiInference(get_benchmark(LIST_SET_NAME), fast_config,
                              emitter=emitter).infer()


def test_traced_events_byte_compatible_with_untraced(fast_config):
    untraced = HanoiInference(get_benchmark(LIST_SET_NAME), fast_config).infer()
    sink = InMemorySink()
    emitter = Emitter(sinks=[sink], run="listset/hanoi", clock=CountingClock())
    traced = HanoiInference(get_benchmark(LIST_SET_NAME), fast_config,
                            emitter=emitter).infer()

    assert traced.succeeded and untraced.succeeded
    assert json.dumps(traced.events) == json.dumps(untraced.events)
    # The trace itself is a strict superset of the loop log.
    assert len(sink.records) > len(traced.events)


def test_trace_is_well_formed_and_spans_nest(fast_config, tmp_path):
    result = traced_run(fast_config, tmp_path / "trace.jsonl")
    records = read_trace(str(tmp_path / "trace.jsonl"))

    assert result.succeeded
    assert validate_trace(records) == []
    names = {r["name"] for r in records}
    assert {"run", "run-start", "run-end", "iteration", "synthesis"} <= names
    assert {"sufficiency-check", "inductiveness-check"} & names
    # Every iteration span is enclosed by the run span.
    run_id = next(r["id"] for r in records
                  if r["kind"] == "span-start" and r["name"] == "run")
    for record in records:
        if record["kind"] == "span-start" and record["name"] == "iteration":
            assert record["span"] == run_id
    # run-end carries the integer stats counters (and never the timers,
    # which would break determinism).
    run_end = next(r for r in records if r["name"] == "run-end")
    assert run_end["data"]["iterations"] == result.iterations
    stats = run_end["data"]["stats"]
    assert stats["synthesis_calls"] == result.stats.synthesis_calls
    assert not any(key.endswith("_time") for key in stats)


@pytest.mark.parametrize("factory", [MythSynthesizer, FoldSynthesizer])
def test_the_synthesizer_traces_to_the_run_emitter(fast_config, factory):
    # Both synthesizers take the run's emitter when built, so the
    # hanoi-fold mode's synthesis spans land in the run's trace too.
    emitter = Emitter(sinks=[InMemorySink()], run="listset/hanoi", clock=CountingClock())
    inference = HanoiInference(get_benchmark(LIST_SET_NAME), fast_config,
                               synthesizer_factory=factory, emitter=emitter)
    assert inference.synthesizer.emitter is emitter


def test_golden_trace_byte_identical_across_runs(fast_config, tmp_path):
    first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    traced_run(fast_config, first)
    traced_run(fast_config, second)
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize("hash_seed", ["0", "1", "42"])
def test_golden_trace_byte_identical_across_hash_seeds(
        fast_config, tmp_path, hash_seed):
    # The in-process reference run (this interpreter's own hash seed) ...
    reference = tmp_path / "reference.jsonl"
    traced_run(fast_config, reference)

    # ... must match a subprocess pinned to an explicit PYTHONHASHSEED.
    out = tmp_path / f"seed-{hash_seed}.jsonl"
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    subprocess.run([sys.executable, "-c", RUN_SCRIPT, LIST_SET_NAME, str(out)],
                   env=env, check=True, timeout=300)

    assert out.read_bytes() == reference.read_bytes()
