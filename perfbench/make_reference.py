"""Regenerate ``perfbench/reference.json``, the committed outcome fingerprints.

Usage (from the repository root)::

    python3 perfbench/make_reference.py

Runs every module any workload can time - the built-ins, the example modules
and the whole generated pool the corpus is drawn from - under the same
pinned hash seed as the benchmark, and records
``repro.gen.diff.outcome_fingerprint`` per module name.

Even with the hash seed pinned, some modules' CEGIS trajectories depend on
what the process ran before them: ``/gen/bounded-2020006151`` takes 24
iterations alone in a fresh process, 18 after one spare allocation, and 22
after the built-ins.  So each module is run in several contexts, each in a
fresh process: as the benchmark's workloads run it (including corpora drawn
by a few seeds), in reverse order, one by one after spare allocations, and
with the benchmark's tracer installed.  Modules whose fingerprint differs
between contexts are listed under ``layout_sensitive`` and left out of the
corpus; a built-in or example among them stops the script, because those
workloads cannot leave it out.

The script refuses to write when a module fails or its invariant is not
sufficient and inductive on a fresh re-check.  Regenerate the reference
only for a change that is meant to alter outcomes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Contexts, each run in its own process: (name, inputs, how, re-check).
CONTEXTS = (
    ("fixed", "fixed", "in order", True),
    ("fixed traced", "fixed", "traced", False),
    ("fixed one by one", "fixed", "each after 7", False),
    ("pool", "pool", "in order", True),
    ("pool reversed", "pool", "reversed", False),
    ("pool one by one", "pool", "each after 1", False),
    ("pool one by one, more spare", "pool", "each after 300", False),
    ("pool traced", "pool", "traced", False),
    ("corpus of seed 1", "corpus 1", "in order", False),
    ("corpus of seed 2", "corpus 2", "in order", False),
    ("corpus of seed 3", "corpus 3", "in order", False),
)


def run_context(inputs_name: str, how: str, recheck: bool) -> dict:
    """One context in this process: fingerprints and any unsolved module."""
    from perfbench import workloads
    from perfbench.layers import Tracer

    if inputs_name == "fixed":
        inputs = workloads.builtin_inputs() + workloads.example_inputs(ROOT)
    else:
        pool = workloads.generated_pool()
        if inputs_name.startswith("corpus "):
            pool = workloads.corpus_modules(int(inputs_name.split()[1]), pool)
        inputs = [workloads.ModuleInput(m.name, m.text) for m in pool]
    config = workloads.quick_config()
    if how == "reversed":
        inputs = inputs[::-1]
    if how == "traced":
        with Tracer():
            runs = [workloads.run_pass(inputs, config)]
    elif how.startswith("each after "):
        spare = int(how.split()[-1])
        runs = []
        for item in inputs:
            ballast = [object() for _ in range(spare)]
            runs.append(workloads.run_pass([item], config))
            del ballast
    else:
        runs = [workloads.run_pass(inputs, config)]
    fingerprints = {name: fp for run in runs for name, fp in run.fingerprints.items()}
    problems = []
    if recheck:
        # An empty reference makes every outcome a drift, so each is re-checked.
        checker = workloads.OutcomeChecker(reference={})
        for run in runs:
            checker.check(run)
        problems = checker.problems
    return {"fingerprints": fingerprints, "problems": problems,
            "fixed": sorted(fingerprints) if inputs_name == "fixed" else []}


def main(argv) -> int:
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench import pin_hash_seed

    pin_hash_seed(os.path.abspath(__file__), argv)
    if argv:
        print(json.dumps(run_context(*json.loads(argv[0]))))
        return 0

    from perfbench import workloads

    seen = {}
    problems = []
    fixed = set()
    for name, inputs_name, how, recheck in CONTEXTS:
        child = subprocess.run(
            [sys.executable, os.path.abspath(__file__),
             json.dumps([inputs_name, how, recheck])],
            capture_output=True, text=True, check=True)
        outcome = json.loads(child.stdout.splitlines()[-1])
        print(f"{name}: {len(outcome['fingerprints'])} modules", file=sys.stderr, flush=True)
        problems.extend(outcome["problems"])
        fixed.update(outcome["fixed"])
        for module, fingerprint in outcome["fingerprints"].items():
            seen.setdefault(module, [])
            if fingerprint not in seen[module]:
                seen[module].append(fingerprint)

    sensitive = {module: fps for module, fps in seen.items() if len(fps) > 1}
    stable = {module: fps[0] for module, fps in seen.items() if len(fps) == 1}
    problems += [f"{module}: layout-sensitive but always timed"
                 for module in sorted(fixed & set(sensitive))]
    if problems:
        for problem in problems:
            print(problem, file=sys.stderr)
        print("reference not written", file=sys.stderr)
        return 1
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump({"fingerprints": stable, "layout_sensitive": sensitive},
                  handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(stable)} fingerprints ({len(sensitive)} layout-sensitive "
          f"modules left out) to {workloads.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
