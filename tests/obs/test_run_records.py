"""Every inference mode records its run the same way, and Hanoi's loop log
is one list, mirrored into the trace when tracing is on."""

import json

import pytest

from repro.core.hanoi import HanoiInference
from repro.experiments.runner import quick_config, run_module
from repro.obs.analyze import validate_trace
from repro.obs.events import NULL_EMITTER, CountingClock, Emitter
from repro.obs.sinks import InMemorySink, install_sink, reset_sinks
from repro.suite.registry import get_benchmark

LIST_SET_NAME = "/coq/unique-list-::-set"
FAST_BENCHMARK = "/other/sized-list"


@pytest.fixture(autouse=True)
def clean_registry():
    reset_sinks()
    yield
    reset_sinks()


def test_loop_log_does_not_depend_on_the_emitter(fast_config):
    def events(emitter):
        return HanoiInference(get_benchmark(LIST_SET_NAME), fast_config,
                              emitter=emitter).infer().events

    default = events(None)
    live = Emitter(sinks=[InMemorySink()], run="listset/hanoi",
                   clock=CountingClock())
    assert default
    assert json.dumps(events(NULL_EMITTER)) == json.dumps(default)
    assert json.dumps(events(live)) == json.dumps(default)


def test_loop_records_mirror_the_loop_log(fast_config):
    sink = InMemorySink()
    emitter = Emitter(sinks=[sink], run="listset/hanoi", clock=CountingClock())
    result = HanoiInference(get_benchmark(LIST_SET_NAME), fast_config,
                            emitter=emitter).infer()

    mirrored = [{"event": r["name"], **(r.get("data") or {})}
                for r in sink.records if r["cat"] == "loop"]
    assert result.events and mirrored == result.events
    # `event` first, detail keys after in insertion order: the stored
    # layout every events consumer reads.
    for entry in result.events:
        assert next(iter(entry)) == "event"
    visible = next(e for e in result.events if e["event"] == "visible-counterexample")
    assert list(visible) == ["event", "candidate_size", "operation", "added"]


@pytest.mark.parametrize("mode", ["hanoi", "conj-str", "linear-arbitrary", "oneshot"])
def test_every_mode_records_one_run_span(mode):
    sink = install_sink(InMemorySink())
    result = run_module(get_benchmark(FAST_BENCHMARK), mode=mode,
                        config=quick_config())
    records = sink.records

    assert validate_trace(records) == []
    runs = [r for r in records if r["kind"] == "span-start" and r["name"] == "run"]
    assert len(runs) == 1
    run_id = runs[0]["id"]
    start = [r for r in records if r["name"] == "run-start"]
    end = [r for r in records if r["name"] == "run-end"]
    assert len(start) == len(end) == 1
    assert start[0]["span"] == end[0]["span"] == run_id
    assert start[0]["data"] == {"benchmark": FAST_BENCHMARK, "mode": mode}
    assert end[0]["data"] == {"status": result.status,
                              "iterations": result.iterations,
                              "stats": result.stats.counters()}
    # The run span encloses both records.
    names = [(r["kind"], r["name"]) for r in records]
    assert names[0] == ("span-start", "run")
    assert names[-1] == ("span-end", "run")
