"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload builtins-quick --seed 1 --seconds 20 --trace 0

Each run sets up its workload, then runs timed passes over its modules until
their times add up to ``--seconds`` (at least ``MIN_PASSES``), serially in
this process.  Before each module the pass times a fixed yardstick
(``perfbench/calibrate.py``), and each module's latency is divided by the
median of the yardstick times taken nearest it: times are reported in
yardstick units (``cal``), which cancels most of the slowdown that other
tenants' load puts on every computation of a shared machine.  ``wall_norm``
is one pass with every module at its fastest across the passes; the module
latency percentiles are taken over every module latency of every pass, pooled
(their count goes to standard error).  The raw seconds go to standard error
and to the ``--out`` record.
With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
also makes one pass with every layer's entry points wrapped and reports the
per-layer metrics instead.  Outcomes are checked after the timed passes:
each module must succeed with an invariant that a fresh bounded tester finds
sufficient and inductive, and its outcome fingerprint is compared with the
committed reference (``outcome_match``).  The process re-executes itself under a pinned
``PYTHONHASHSEED`` first (see ``perfbench.HASH_SEED``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; progress goes to
standard error.  ``--out FILE`` appends a fuller record (each module's
fastest latency in seconds, every pass's module latencies in yardstick
units, the corpus digest) for ``perfbench/compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench import WORKLOADS, pin_hash_seed  # noqa: E402

SOURCE = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".bench_work")

#: Every run makes at least this many timed passes, and keeps making them
#: until they add up to ``--seconds``.  Each module's latency is its fastest
#: over the run's passes: the passes do identical work, so the fastest one
#: is the one least disturbed by short bursts of other load.  Longer spells
#: of load (on a shared 2-vCPU machine a builtins-quick pass takes 13 s when
#: quiet and 25-32 s when a neighbour is busy, for minutes at a time) slow
#: the yardstick too, and dividing by it cancels most of them.
MIN_PASSES = 2

#: A module's latency is divided by the median of this many yardstick times:
#: the one taken just before it and those before its nearest neighbours.
#: Changes of load within a pass are followed, and one yardstick time that a
#: burst of load disturbed is outvoted.
YARDSTICK_SPAN = 5

#: Building a workload's inputs is repeated this many times (the median is
#: reported); the warm-up and the warm-cache fill are inference passes and
#: run once.  All of them count as set-up.
SETUP_REPEATS = 3


def _log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def _quantile(values, q: int) -> float:
    """The ``q``-th percentile, interpolated between order statistics."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _normalized(run) -> list:
    """A calibrated pass's module latencies in yardstick units."""
    half = YARDSTICK_SPAN // 2
    times = run.calibrations
    return [latency / statistics.median(times[max(0, index - half):index + half + 1])
            for index, latency in enumerate(run.latencies)]


def _median_timed(build):
    """Build a workload's inputs SETUP_REPEATS times; (inputs, median seconds)."""
    times = []
    for _ in range(SETUP_REPEATS):
        began = perf_counter()
        built = build()
        times.append(perf_counter() - began)
    return built, statistics.median(times)


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    from perfbench import workloads
    from perfbench.layers import Tracer, layer_metrics

    checker = workloads.OutcomeChecker(workloads.load_reference())
    record: dict = {"workload": workload, "seed": seed, "trace": int(trace)}
    store = None
    try:
        if workload == "builtins-quick":
            inputs, setup_s = _median_timed(workloads.builtin_inputs)
            config = workloads.quick_config()
        elif workload == "corpus-quick":
            (inputs, digest), setup_s = _median_timed(
                lambda: workloads.corpus_inputs(seed))
            record["corpus_digest"] = digest
            config = workloads.quick_config()
        else:
            # The cold fill is this workload's warm-up.
            began = perf_counter()
            inputs = workloads.builtin_inputs() + workloads.example_inputs(ROOT)
            store = workloads.WarmStore(WORK_DIR, inputs)
            setup_s = perf_counter() - began
            config = store.config
        if store is None:
            began = perf_counter()
            workloads.warm_up()
            setup_s += perf_counter() - began
        _log(f"{workload}: set-up {setup_s:.3f}s, {len(inputs)} modules")

        # Each pass is checked (untimed) and dropped as soon as it ends, so
        # memory does not grow with the number of passes.
        warm = store is not None
        best = best_norm = fingerprints = None
        samples = []
        iterations = []
        yardsticks = []
        measured = 0.0
        while len(iterations) < MIN_PASSES or measured < seconds:
            run = workloads.run_pass(inputs, config, calibrated=True)
            measured += run.wall_s
            yardstick = statistics.median(run.calibrations)
            norm = _normalized(run)
            samples.extend(zip((item.label for item in inputs), norm))
            _log(f"  pass {len(iterations) + 1}: {sum(run.latencies):.3f}s, "
                 f"yardstick {yardstick * 1e3:.2f}ms, {sum(norm):.1f}cal")
            checker.check(run, count_disk_misses=warm)
            if best is None:
                best, best_norm = run.latencies, norm
            else:
                best = list(map(min, best, run.latencies))
                best_norm = list(map(min, best_norm, norm))
            fingerprints = fingerprints or run.fingerprints
            iterations.append(run.iterations)
            yardsticks.append(yardstick)
            del run
        wall_s = sum(best)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        traced = tracer = None
        if trace:
            tracer = Tracer()
            with tracer:
                traced = workloads.run_pass(inputs, config)
            _log(f"  traced pass: {traced.wall_s:.3f}s")
            checker.check(traced, count_disk_misses=warm)
            if traced.fingerprints != fingerprints:
                checker.problems.append("traced fingerprints differ from untraced ones")
            if tracer.total_self_s() > traced.wall_s:
                checker.problems.append("layer self times exceed the traced wall time")
    finally:
        if store is not None:
            store.close()

    attempted = checker.attempted
    if trace:
        metrics = layer_metrics(tracer, traced.results, traced.wall_s, wall_s)
    else:
        metrics = {
            "wall_norm": sum(best_norm),
            "module_p50_norm": _quantile([value for _, value in samples], 50),
            "module_p90_norm": _quantile([value for _, value in samples], 90),
            "solve_rate": checker.solved / attempted,
            "outcome_match": checker.matched / attempted,
            "cegis_iterations": statistics.median(iterations),
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
        }
    for problem in checker.problems[:20]:
        _log(f"  problem: {problem}")
    for drifted in checker.drifted[:20]:
        _log(f"  drifted: {drifted}")
    _log(f"  {len(iterations)} passes, {len(samples)} module samples, "
         f"fastest pass {wall_s:.3f}s = {sum(best_norm):.1f}cal, "
         f"outcome drift {checker.drift}")
    record.update({
        "correct": not checker.problems and checker.failed == 0,
        "attempted": attempted,
        "failed": checker.failed,
        "outcome_drift": checker.drift,
        "metrics": metrics,
        "wall_s": wall_s,
        "yardstick_s": statistics.median(yardsticks),
        "module_latencies": [[item.label, latency] for item, latency in zip(inputs, best)],
        "module_norm": [list(sample) for sample in samples],
    })
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the full run record to this JSONL file")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SOURCE, "repro")):
        _log(f"no program source at {SOURCE}; run from a repository checkout")
        return 2
    sys.path.insert(0, SOURCE)
    pin_hash_seed(os.path.abspath(__file__), sys.argv[1:] if argv is None else argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    units = {entry["name"]: entry["unit"]
             for entry in spec["end_to_end"] + spec["per_layer"]}

    record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    if args.out:
        with open(args.out, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in record["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
