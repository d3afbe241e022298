"""Tests for the parallel experiment runner and the CLI's resume path."""

import multiprocessing
import time

import pytest

from repro import cli
from repro.core.config import FAST_VERIFIER_BOUNDS, HanoiConfig
from repro.core.result import Status
from repro.experiments import parallel
from repro.experiments.parallel import ParallelRunner
from repro.experiments.runner import ExperimentTask, execute_tasks, expand_tasks
from repro.experiments.store import ResultStore
from repro.suite import registry

CONFIG = HanoiConfig(verifier_bounds=FAST_VERIFIER_BOUNDS, timeout_seconds=60)
#: A config whose hard pool budget (timeout plus the monkeypatched grace) is
#: short enough for a hung worker to be killed within the test.
SHORT = HanoiConfig(verifier_bounds=FAST_VERIFIER_BOUNDS, timeout_seconds=0.5)
SMALL = ["/coq/unique-list-::-set", "/other/sized-list"]


def _has_fork() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


def test_parallel_matches_serial_results():
    tasks = expand_tasks(SMALL, modes=["hanoi"], config=CONFIG)
    parallel = ParallelRunner(jobs=2).run(tasks)
    serial = execute_tasks(tasks)

    assert len(parallel) == len(serial) == len(tasks)
    for par, ser, task in zip(parallel, serial, tasks):
        # Results come back in task order regardless of completion order.
        assert par.key == task.key
        assert par.status == ser.status == Status.SUCCESS
        assert par.invariant_size == ser.invariant_size
        assert par.iterations == ser.iterations
        assert par.render_invariant() == ser.render_invariant()


def test_parallel_reports_progress_and_persists(tmp_path):
    tasks = expand_tasks(SMALL, modes=["hanoi"], config=CONFIG)
    store = ResultStore(str(tmp_path / "sweep.jsonl"))
    seen = []
    ParallelRunner(jobs=2).run(tasks, progress=seen.append, store=store)
    assert {r.key for r in seen} == {t.key for t in tasks}
    assert {r.key for r in store.load()} == {t.key for t in tasks}


@pytest.mark.skipif(not _has_fork(), reason="hanging-benchmark fixture needs fork")
def test_timeout_isolation_kills_hung_worker_without_stalling_sweep(monkeypatch):
    def hanging_factory():
        time.sleep(300)

    monkeypatch.setattr(parallel, "DEFAULT_TIMEOUT_GRACE", 1.5)
    registry.BENCHMARKS["/test/hang"] = hanging_factory
    try:
        # The hung task carries a pack tag: the row the pool fabricates for
        # it must carry the tag too, or --resume would not match it.
        tasks = [ExperimentTask("/test/hang", "hanoi", SHORT, pack_name="hang-pack"),
                 ExperimentTask(SMALL[0], "hanoi", CONFIG)]
        started = time.monotonic()
        results = ParallelRunner(jobs=2).run(tasks)
        elapsed = time.monotonic() - started
    finally:
        del registry.BENCHMARKS["/test/hang"]

    assert results[0].status == Status.TIMEOUT
    assert "killed by the pool" in results[0].message
    assert "hard budget 2.0s" in results[0].message
    assert results[0].key == tasks[0].key == ("/test/hang", "hanoi", "hang-pack", None)
    # The healthy task completed normally alongside the hung one.
    assert results[1].status == Status.SUCCESS
    # The sweep did not wait out the hung worker's 300s sleep.
    assert elapsed < 60


def test_worker_crash_is_reported_not_fatal():
    def crashing_factory():
        raise RuntimeError("boom")

    registry.BENCHMARKS["/test/crash"] = crashing_factory
    try:
        results = ParallelRunner(jobs=2).run(
            [ExperimentTask("/test/crash", "hanoi", CONFIG),
             ExperimentTask(SMALL[1], "hanoi", CONFIG)])
    finally:
        del registry.BENCHMARKS["/test/crash"]

    assert results[0].status == Status.FAILURE
    assert "boom" in results[0].message
    assert results[1].status == Status.SUCCESS


def test_parallel_workers_stream_events_to_parent():
    from repro.obs.sinks import InMemorySink, install_sink, reset_sinks

    tasks = expand_tasks(SMALL, modes=["hanoi"], config=CONFIG)
    reset_sinks()
    sink = install_sink(InMemorySink())
    try:
        results = ParallelRunner(jobs=2).run(tasks)
    finally:
        reset_sinks()

    assert all(r.status == Status.SUCCESS for r in results)
    # Every record that crossed the queue carries its worker's task label.
    labels = {r.get("task") for r in sink.records}
    assert labels == {t.label for t in tasks}
    # Each task streamed a complete run: start and end both made it across.
    for task in tasks:
        names = [r["name"] for r in sink.records if r.get("task") == task.label]
        assert "run-start" in names and "run-end" in names
        assert "iteration" in names  # spans stream too, not just run markers
    # Within one worker the stream stays ordered even after the merge.
    for task in tasks:
        seqs = [r["seq"] for r in sink.records
                if r.get("task") == task.label and r.get("cat") != "stream"]
        assert seqs == sorted(seqs)


def test_parallel_without_sinks_does_not_stream():
    from repro.obs.sinks import installed_sinks

    assert installed_sinks() == []
    tasks = expand_tasks([SMALL[0]], modes=["hanoi"], config=CONFIG)
    runner = ParallelRunner(jobs=1)
    assert runner.run(tasks)[0].status == Status.SUCCESS


@pytest.mark.skipif(not _has_fork(), reason="hanging-benchmark fixture needs fork")
def test_timeout_report_names_last_streamed_event(monkeypatch):
    from repro.obs.sinks import InMemorySink, install_sink, reset_sinks

    def hanging_factory():
        time.sleep(300)

    monkeypatch.setattr(parallel, "DEFAULT_TIMEOUT_GRACE", 0.5)
    monkeypatch.setattr(parallel, "DEFAULT_HEARTBEAT_INTERVAL", 0.2)
    registry.BENCHMARKS["/test/hang"] = hanging_factory
    # An installed sink is what makes workers stream.
    reset_sinks()
    install_sink(InMemorySink())
    try:
        results = ParallelRunner(jobs=1).run(
            [ExperimentTask("/test/hang", "hanoi", SHORT)])
    finally:
        reset_sinks()
        del registry.BENCHMARKS["/test/hang"]

    result = results[0]
    assert result.status == Status.TIMEOUT
    assert "killed by the pool" in result.message
    # The factory hangs before any phase runs, so the heartbeat is the last
    # (and only) streamed record - the report says so, with its timestamp.
    assert "; last event: heartbeat at t=" in result.message


def test_cli_resume_skips_completed_pairs(tmp_path, capsys):
    output = str(tmp_path / "results.jsonl")
    argv = ["run", "--jobs", "2", "--profile", "quick", "--output", output,
            "--benchmarks", *SMALL]

    assert cli.main(argv) == 0
    first = capsys.readouterr().out
    assert f"running {len(SMALL)} task(s)" in first

    assert cli.main(argv + ["--resume"]) == 0
    second = capsys.readouterr().out
    assert f"resume: skipping {len(SMALL)} completed pair(s)" in second
    assert "running 0 task(s)" in second
    # The report still covers the full stored sweep.
    assert all(name in second for name in SMALL)


def test_cli_retry_failed_reruns_only_stored_failures(tmp_path, capsys):
    from repro.core.result import InferenceResult
    from repro.core.stats import InferenceStats

    output = str(tmp_path / "results.jsonl")
    store = ResultStore(output)
    solved, failed = SMALL
    for name, status in ((solved, Status.SUCCESS), (failed, Status.TIMEOUT)):
        store.append(InferenceResult(benchmark=name, mode="hanoi", status=status,
                                     invariant=None,
                                     stats=InferenceStats.from_dict({})))

    assert cli.main(["run", "--jobs", "1", "--profile", "quick", "--output", output,
                     "--benchmarks", *SMALL, "--resume", "--retry-failed"]) == 0
    out = capsys.readouterr().out
    assert "resume: skipping 1 completed pair(s)" in out
    assert "running 1 task(s)" in out
    statuses = {r.benchmark: r.status for r in ResultStore(output).load()}
    assert statuses == {solved: Status.SUCCESS, failed: Status.SUCCESS}
    # The stored success was skipped, not re-run: its row carries no invariant.
    assert [r.invariant for r in ResultStore(output).load()
            if r.benchmark == solved] == [None]


def test_cli_retry_failed_without_resume_is_a_diagnostic(tmp_path):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["run", "--output", str(tmp_path / "results.jsonl"),
                  "--benchmarks", SMALL[0], "--retry-failed"])
    assert "--retry-failed" in str(exit_info.value.code)
    assert not (tmp_path / "results.jsonl").exists()
