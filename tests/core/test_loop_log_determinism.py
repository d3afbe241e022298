"""The CEGIS loop's log does not follow memory layout or the hash seed.

Constructor and tuple values hash by identity, so a set of them iterates in
an order that follows memory addresses.  Nothing the loop logs, counts or
decides may depend on that order.  Each built-in here runs twice in one
process (the values land at new addresses) and once in a process under
another ``PYTHONHASHSEED``; the loop's events and every statistic except
the timings must be identical.

Run as a script, the file does the in-process half for the built-ins named
on the command line (all 28 when none are) and prints the record as JSON,
so two processes under different seeds can be compared::

    PYTHONPATH=src python tests/core/test_loop_log_determinism.py > a.json
    PYTHONPATH=src PYTHONHASHSEED=1 python tests/core/test_loop_log_determinism.py > b.json
    cmp a.json b.json
"""

import json
import os
import subprocess
import sys

from repro.experiments.runner import PROFILES, run_module
from repro.suite.registry import all_benchmark_names, get_benchmark

SMALL = ("/other/sized-list", "/coq/unique-list-::-set", "/other/stutter-list")

#: The ``InferenceStats.as_dict`` entries that are wall-clock timings.
TIMINGS = ("time", "tvt", "mvt", "tst", "mst")

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)))), "src")


def loop_log(names):
    """Benchmark -> the loop's events and non-timing statistics, as JSON
    data, from one quick-profile run of each."""
    config = PROFILES["quick"](None)
    record = {}
    for name in names:
        result = run_module(get_benchmark(name), mode="hanoi", config=config)
        stats = result.stats.as_dict()
        for key in TIMINGS:
            del stats[key]
        record[name] = {"status": result.status, "events": result.events, "stats": stats}
    return json.loads(json.dumps(record, default=str))


def repeated_loop_log(names):
    """The record of :func:`loop_log`, after checking that a second run in
    this process gives it again."""
    first = loop_log(names)
    second = loop_log(names)
    for name in names:
        assert second[name] == first[name], f"{name}: the loop log differs between runs"
    return first


def test_loop_log_is_the_same_in_every_run():
    record = repeated_loop_log(SMALL)
    env = dict(os.environ, PYTHONHASHSEED="1", PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), *SMALL],
                          capture_output=True, text=True, env=env, timeout=600, check=True)
    other_seed = json.loads(proc.stdout)
    for name in SMALL:
        assert other_seed[name] == record[name], \
            f"{name}: the loop log differs under PYTHONHASHSEED=1"


if __name__ == "__main__":
    names = sys.argv[1:] or all_benchmark_names()
    print(json.dumps(repeated_loop_log(names), indent=1, sort_keys=True))
