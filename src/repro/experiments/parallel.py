"""Parallel experiment execution: a process pool with hard per-task timeouts.

The serial runner relies on the cooperative :class:`~repro.core.config.Deadline`
polled inside the verifier and synthesizer hot loops.  That is usually enough,
but a sweep at paper bounds cannot afford a single wedged worker (a pathological
evaluation that never reaches a deadline check) stalling the whole run.  The
:class:`ParallelRunner` therefore runs every
:class:`~repro.experiments.runner.ExperimentTask` in its own worker process and
enforces a wall-clock deadline *from the parent*: a worker that outlives its
budget is terminated and its task recorded as a timeout, while the rest of the
sweep continues unaffected.

Results cross the process boundary as ``InferenceResult.to_dict()`` payloads -
the same JSON-safe representation the result store persists - so workers never
need to pickle live :class:`~repro.core.predicate.Predicate` closures.

Workers also *stream*: each worker replaces any sinks it inherited from the
parent (it must not write the parent's trace file directly) with a
:class:`~repro.obs.sinks.QueueSink` over a shared event queue, plus a
heartbeat thread for long-silent phases.  The parent drains the queue on
every poll tick, forwards the records to its own installed sinks (the
``--trace`` file, the live renderer), and remembers each task's last record -
so a worker killed on timeout reports *where* it hung (last phase and
timestamp) instead of just "timeout".
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from collections import deque
from multiprocessing.connection import wait as connection_wait
from queue import Empty
from typing import Callable, Dict, List, Optional, Sequence

from ..core.result import InferenceResult, Status
from ..core.stats import InferenceStats
from ..obs.events import SCHEMA_VERSION
from ..obs.sinks import QueueSink, install_sink, installed_sinks, reset_sinks
from .runner import ExperimentTask, execute_task, quick_config

__all__ = ["ParallelRunner", "WorkerHandle", "DEFAULT_TIMEOUT_GRACE",
           "DEFAULT_HEARTBEAT_INTERVAL"]

#: Seconds granted beyond a task's cooperative timeout before the parent kills
#: the worker: the cooperative deadline should fire first, the pool-level kill
#: is the backstop for workers stuck somewhere that never polls it.  A task
#: whose config has no timeout gets no hard budget.
DEFAULT_TIMEOUT_GRACE = 30.0

#: Seconds between a worker's heartbeat records.  Heartbeats ride the same
#: event queue as trace records, so even a worker wedged inside one long
#: evaluation keeps telling the parent it is alive (and when it last spoke).
DEFAULT_HEARTBEAT_INTERVAL = 15.0

#: Seconds the parent waits for worker output before it checks budgets again.
POLL_INTERVAL = 0.05


def _result_payload(task: ExperimentTask, status: str, message: str,
                    elapsed: float = 0.0) -> dict:
    """A ``to_dict``-shaped payload for a task that produced no result itself."""
    stats = InferenceStats()
    stats.started_at = 0.0
    stats.finished_at = elapsed
    return InferenceResult(
        benchmark=task.benchmark,
        mode=task.mode,
        status=status,
        invariant=None,
        stats=stats,
        message=message,
        pack=task.pack_name,
        variant=task.variant,
    ).to_dict()


def _heartbeat_loop(sink: QueueSink, label: str, stop: threading.Event) -> None:
    """Emit one ``stream``-category heartbeat record per interval until told
    to stop.  Runs on a daemon thread, so a worker wedged inside one long
    evaluation (never returning to Python-level instrumentation) still
    reports liveness.  Heartbeats carry their own sequence counter - they are
    runner-level records, not part of any emitter's ordered stream."""
    start = time.monotonic()
    seq = 0
    while not stop.wait(DEFAULT_HEARTBEAT_INTERVAL):
        seq += 1
        sink.handle({
            "v": SCHEMA_VERSION,
            "seq": seq,
            "ts": round(time.monotonic() - start, 3),
            "run": label,
            "kind": "event",
            "cat": "stream",
            "name": "heartbeat",
            "span": None,
        })


def _worker(task: ExperimentTask, conn, events=None) -> None:
    """Worker entry point: run one task, send its dict payload, exit.

    When an event queue is supplied the worker streams: it drops any sinks
    inherited from the parent (under ``fork`` that includes the parent's open
    trace file, which only the parent may write) and installs a single
    :class:`QueueSink`, so every trace record crosses the queue tagged with
    this task's label.
    """
    stop = None
    if events is not None:
        reset_sinks()
        sink = install_sink(QueueSink(events, task=task.label))
        stop = threading.Event()
        threading.Thread(
            target=_heartbeat_loop,
            args=(sink, task.label, stop),
            daemon=True,
        ).start()
    try:
        payload = execute_task(task).to_dict()
    except BaseException as exc:  # noqa: BLE001 - report, don't crash silently
        payload = _result_payload(task, Status.FAILURE, f"worker error: {exc!r}")
    finally:
        if stop is not None:
            stop.set()
    try:
        conn.send(payload)
    finally:
        conn.close()


# Prefer ``fork`` (workers inherit the loaded benchmark registry for free);
# fall back to the platform default where fork is unavailable.
try:
    _CONTEXT = multiprocessing.get_context("fork")
except ValueError:  # pragma: no cover - non-POSIX platforms
    _CONTEXT = multiprocessing.get_context()


class WorkerHandle:
    """One spawned worker process executing a single :class:`ExperimentTask`.

    Owns the process, the result pipe, and the start timestamp, and
    centralizes the delicate lifecycle steps of :class:`ParallelRunner` -
    last-chance payload polling, termination, reaping.
    """

    def __init__(self, process, conn, started: float) -> None:
        self.process = process
        self.conn = conn
        self.started = started

    @classmethod
    def spawn(cls, task: ExperimentTask, events=None) -> "WorkerHandle":
        """Start a worker for ``task``."""
        parent_conn, child_conn = _CONTEXT.Pipe(duplex=False)
        process = _CONTEXT.Process(target=_worker, args=(task, child_conn, events),
                                   daemon=True)
        process.start()
        child_conn.close()
        return cls(process, parent_conn, time.monotonic())

    @property
    def elapsed(self) -> float:
        return time.monotonic() - self.started

    @property
    def exitcode(self):
        return self.process.exitcode

    def is_alive(self) -> bool:
        return self.process.is_alive()

    def poll_payload(self) -> Optional[dict]:
        """The worker's result payload if one is buffered, else ``None``.

        Also called right before fabricating a timeout/failure payload: a
        worker may deliver its real result (and even exit) between poll
        ticks, and that result must win over a fabricated one.  EOF (the
        pipe closed with nothing buffered - e.g. right after a terminate)
        counts as no payload.
        """
        if not self.conn.poll():
            return None
        try:
            return self.conn.recv()
        except EOFError:
            return None

    def terminate(self) -> None:
        self.process.terminate()

    def reap(self) -> None:
        """Close the pipe and join the process, escalating to kill."""
        try:
            self.conn.close()
        except OSError:  # pragma: no cover - already closed
            pass
        self.process.join(timeout=5.0)
        if self.process.is_alive():  # pragma: no cover - stubborn worker
            self.process.kill()
            self.process.join(timeout=5.0)


class ParallelRunner:
    """Fan ``(benchmark, mode)`` tasks out over ``jobs`` worker processes
    (default: ``os.cpu_count()``).

    Each task's hard wall-clock budget is its config's cooperative
    ``timeout_seconds`` plus :data:`DEFAULT_TIMEOUT_GRACE`.  Workers stream
    their trace records to the parent exactly when the parent has sinks
    installed, so a sweep without ``--trace``/``--live`` keeps workers at
    zero-cost tracing.
    """

    def __init__(self, jobs: Optional[int] = None):
        self.jobs = max(1, jobs if jobs is not None else (os.cpu_count() or 1))

    @staticmethod
    def _budget_for(task: ExperimentTask) -> Optional[float]:
        # Tasks without an explicit config run under execute_task's
        # quick_config() fallback; derive the backstop from the same default.
        config = task.config if task.config is not None else quick_config()
        if config.timeout_seconds is not None:
            return config.timeout_seconds + DEFAULT_TIMEOUT_GRACE
        return None

    def run(self, tasks: Sequence[ExperimentTask],
            progress: Optional[Callable[[InferenceResult], None]] = None,
            store=None) -> List[InferenceResult]:
        """Run every task; return results in task order.

        Results are appended to ``store`` and reported to ``progress`` in
        *completion* order, the moment each worker finishes; the returned list
        matches the input task order so callers can zip them.
        """
        tasks = list(tasks)
        results: List[Optional[InferenceResult]] = [None] * len(tasks)
        queue = deque(enumerate(tasks))
        live: Dict[int, WorkerHandle] = {}
        events = _CONTEXT.Queue() if installed_sinks() else None
        last_event: Dict[str, dict] = {}

        def finish(index: int, payload: dict) -> None:
            result = InferenceResult.from_dict(payload)
            results[index] = result
            if store is not None:
                store.append(result)
            if progress is not None:
                progress(result)

        try:
            while queue or live:
                while queue and len(live) < self.jobs:
                    index, task = queue.popleft()
                    live[index] = WorkerHandle.spawn(task, events)

                # Sleep until some worker has output ready (or a short poll
                # tick passes, so timeout enforcement stays responsive).
                connection_wait([handle.conn for handle in live.values()],
                                timeout=POLL_INTERVAL)
                self._drain_events(events, last_event)

                for index in list(live):
                    handle = live[index]
                    task = tasks[index]
                    elapsed = handle.elapsed

                    payload = handle.poll_payload()
                    if payload is not None:
                        live.pop(index).reap()
                        finish(index, payload)
                        continue

                    budget = self._budget_for(task)
                    if budget is not None and elapsed > budget:
                        handle.terminate()
                        payload = handle.poll_payload() or _result_payload(
                            task, Status.TIMEOUT,
                            f"killed by the pool after {elapsed:.1f}s "
                            f"(hard budget {budget:.1f}s)"
                            f"{self._last_event_suffix(last_event, task)}",
                            elapsed)
                        live.pop(index).reap()
                        finish(index, payload)
                        continue

                    if not handle.is_alive():
                        payload = handle.poll_payload() or _result_payload(
                            task, Status.FAILURE,
                            f"worker died with exit code {handle.exitcode}"
                            f"{self._last_event_suffix(last_event, task)}",
                            elapsed)
                        live.pop(index).reap()
                        finish(index, payload)
        finally:
            for handle in live.values():
                handle.terminate()
                handle.reap()
            # One last drain: records buffered before the workers exited
            # still belong in the parent's sinks.
            self._drain_events(events, last_event)
            if events is not None:
                events.close()
                # The feeder thread may hold undelivered records from workers
                # we just terminated; don't let interpreter shutdown block on
                # them.
                events.cancel_join_thread()

        return list(results)

    def _drain_events(self, events, last_event: Dict[str, dict]) -> None:
        """Forward queued worker records to the parent's installed sinks and
        remember the freshest record per task label."""
        if events is None:
            return
        sinks = installed_sinks()
        while True:
            try:
                record = events.get_nowait()
            except Empty:
                return
            except (OSError, ValueError):  # pragma: no cover - queue closed
                return
            label = record.get("task")
            if label is not None:
                # Heartbeats prove liveness but say nothing about *where* the
                # worker is; only let one stand in when no real record exists.
                if record.get("cat") != "stream" or label not in last_event:
                    last_event[label] = record
            for sink in sinks:
                sink.handle(record)

    @staticmethod
    def _last_event_suffix(last_event: Dict[str, dict],
                           task: ExperimentTask) -> str:
        """``; last event: ...`` for a killed task, naming the phase (event or
        span name) the worker last reported and when - empty when the task
        never streamed anything."""
        record = last_event.get(task.label)
        if record is None:
            return ""
        return f"; last event: {record.get('name')} at t={record.get('ts')}"
