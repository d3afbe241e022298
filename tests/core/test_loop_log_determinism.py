"""The CEGIS loop's log does not follow memory layout or the hash seed.

Constructor and tuple values hash by identity, so a set of them iterates in
an order that follows memory addresses.  Nothing the loop logs, counts or
decides may depend on that order.  Each built-in here runs twice in one
process (the values land at new addresses) and once in a process under
another ``PYTHONHASHSEED``, in every mode; the loop's events, the status,
iteration count, message and rendered invariant, and the counters of
:data:`COUNTERS` must be identical.

Run as a script, the file does the in-process half for the built-ins named
on the command line (all 28 when none are) under the modes named by
``--modes`` (``hanoi`` by default; ``all`` for every mode; name built-ins
before it) and prints the record as JSON, so two processes under different
seeds can be compared::

    PYTHONPATH=src python tests/core/test_loop_log_determinism.py --modes all > a.json
    PYTHONPATH=src PYTHONHASHSEED=1 \
        python tests/core/test_loop_log_determinism.py --modes all > b.json
    cmp a.json b.json
"""

import argparse
import json
import os
import subprocess
import sys

from repro.experiments.runner import MODES, PROFILES, run_module
from repro.suite.registry import all_benchmark_names, get_benchmark

SMALL = ("/other/sized-list", "/coq/unique-list-::-set", "/other/stutter-list")

#: The ``InferenceStats.as_dict`` counters each record prints.  The list is
#: fixed, not every counter, so that the output of two commits stays
#: byte-comparable when one of them adds a counter; extending it changes
#: every record.
COUNTERS = ("tvc", "tsc", "synthesis_cache_hits", "synthesis_replays",
            "trace_replays", "eval_cache_hits", "eval_cache_misses",
            "pool_cache_hits", "pool_cache_misses", "positives_added",
            "negatives_added", "candidates_proposed", "structures_tested",
            "disk_cache_hits", "disk_cache_misses")

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)))), "src")


def loop_log(names, modes):
    """``benchmark/mode`` -> the run's outcome, loop events and
    :data:`COUNTERS`, as JSON data, from one quick-profile run of each pair."""
    config = PROFILES["quick"](None)
    record = {}
    for mode in modes:
        for name in names:
            result = run_module(get_benchmark(name), mode=mode, config=config)
            report = result.stats.as_dict()
            stats = {key: report[key] for key in COUNTERS}
            record[f"{name}/{mode}"] = {
                "status": result.status, "iterations": result.iterations,
                "message": result.message, "invariant": result.render_invariant(),
                "events": result.events, "stats": stats,
            }
    return json.loads(json.dumps(record, default=str))


def repeated_loop_log(names, modes):
    """The record of :func:`loop_log`, after checking that a second run in
    this process gives it again."""
    first = loop_log(names, modes)
    second = loop_log(names, modes)
    for key in first:
        assert second[key] == first[key], f"{key}: the loop log differs between runs"
    return first


def test_loop_log_is_the_same_in_every_run():
    modes = sorted(MODES)
    record = repeated_loop_log(SMALL, modes)
    env = dict(os.environ, PYTHONHASHSEED="1", PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), *SMALL,
                           "--modes", *modes],
                          capture_output=True, text=True, env=env, timeout=600, check=True)
    other_seed = json.loads(proc.stdout)
    assert set(other_seed) == set(record)
    for key in record:
        assert other_seed[key] == record[key], \
            f"{key}: the loop log differs under PYTHONHASHSEED=1"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--modes", nargs="+", default=["hanoi"], metavar="MODE",
                        help="modes to run, or 'all' (default: hanoi)")
    parser.add_argument("names", nargs="*", metavar="BENCHMARK",
                        help="built-ins to run (default: all 28)")
    args = parser.parse_args(argv)
    modes = sorted(MODES) if args.modes == ["all"] else args.modes
    names = args.names or all_benchmark_names()
    print(json.dumps(repeated_loop_log(names, modes), indent=1, sort_keys=True))


if __name__ == "__main__":
    main()
