"""Workload inputs, timed passes, and outcome checks.

Every timed module goes through the public path a user takes: its ``.hanoi``
text is loaded with ``repro.spec.loader.load_module_text`` and inferred with
``repro.experiments.runner.run_module`` in ``hanoi`` mode at the quick
profile.  The profile's wall-clock timeout is switched off so that an
outcome never depends on how busy the machine is.

Workloads:

``builtins-quick``
    The 28 built-in benchmarks, exported to ``.hanoi`` text, in registry
    order.  The paper's suite; interpreter-bound.
``warm-cache``
    The built-ins plus ``examples/modules/*.hanoi`` against a persistent
    cache store that one cold pass filled during set-up.
``corpus-quick`` (run on request; not in ``BENCHMARK.json``)
    About 100 modules from ``repro.gen.modgen``.  They are drawn by the
    run's seed from a fixed pool of generated modules, with the same number
    from each generator family every time, so every module has a committed
    reference outcome and the corpus's cost barely depends on the seed.
"""

from __future__ import annotations

import glob
import json
import os
import random
import shutil
import tempfile
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

from perfbench.calibrate import calibrate
from repro.core.predicate import Predicate
from repro.experiments import runner
from repro.gen.diff import outcome_fingerprint
from repro.gen.modgen import FAMILIES, corpus_digest, generate_corpus
from repro.inductive.relation import ConditionalInductivenessChecker
from repro.spec import loader
from repro.spec.export import render_module
from repro.suite.registry import all_benchmark_names, get_benchmark
from repro.verify.result import Valid
from repro.verify.tester import Verifier

__all__ = [
    "ModuleInput",
    "Pass",
    "OutcomeChecker",
    "builtin_inputs",
    "example_inputs",
    "corpus_inputs",
    "quick_config",
    "run_pass",
    "warm_up",
    "WarmStore",
]

#: The generated pool the corpus is drawn from, and the corpus size.
POOL_SEED = 2020
POOL_SIZE = 125
CORPUS_SIZE = 100

#: Two fast built-ins run once before timing, so the first timed pass does
#: not also pay the interpreter's first-call costs.
WARM_UP = ("/other/sized-list", "/coq/unique-list-::-set")

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")


@dataclass(frozen=True)
class ModuleInput:
    """One module as a user hands it over: a label and its ``.hanoi`` text."""

    label: str
    text: str


def quick_config(cache_dir: Optional[str] = None):
    """The quick profile without a timeout, optionally with a disk store."""
    return runner.PROFILES["quick"](None).with_cache_dir(cache_dir)


def builtin_inputs() -> List[ModuleInput]:
    return [ModuleInput(name, render_module(get_benchmark(name)))
            for name in all_benchmark_names()]


def warm_up() -> None:
    run_pass([item for item in builtin_inputs() if item.label in WARM_UP], quick_config())


def example_inputs(root: str) -> List[ModuleInput]:
    inputs = []
    for path in sorted(glob.glob(os.path.join(root, "examples", "modules", "*.hanoi"))):
        with open(path, encoding="utf-8") as handle:
            inputs.append(ModuleInput(os.path.relpath(path, root), handle.read()))
    if not inputs:
        raise FileNotFoundError(f"no examples/modules/*.hanoi under {root}")
    return inputs


def generated_pool() -> list:
    """Every module the generator makes for the pool seed."""
    return generate_corpus(POOL_SEED, POOL_SIZE)


def corpus_pool() -> list:
    """The generated modules with a committed reference outcome.

    Modules whose outcome depends on memory layout are left out (see
    ``make_reference.py``): their fingerprint cannot be pinned.
    """
    reference = load_reference()
    return [module for module in generated_pool() if module.name in reference]


def corpus_modules(seed: int, pool: Optional[Sequence] = None) -> list:
    """The corpus of one seed: the same count per family, pool order kept."""
    pool = list(pool if pool is not None else corpus_pool())
    rng = random.Random(seed)
    by_family: Dict[str, List[int]] = {}
    for index, module in enumerate(pool):
        by_family.setdefault(module.family, []).append(index)
    chosen: List[int] = []
    for family in FAMILIES:
        members = by_family.get(family, [])
        quota = round(len(members) * CORPUS_SIZE / len(pool))
        chosen.extend(rng.sample(members, quota))
    return [pool[index] for index in sorted(chosen)]


def corpus_inputs(seed: int) -> Tuple[List[ModuleInput], str]:
    """The corpus of one seed as inputs, with its content digest."""
    modules = corpus_modules(seed)
    return ([ModuleInput(module.name, module.text) for module in modules],
            corpus_digest(modules))


# -- timed passes --------------------------------------------------------------


@dataclass
class Pass:
    """One pass over a workload's modules."""

    wall_s: float
    latencies: List[float]
    definitions: list
    results: list
    #: One yardstick time before each module, when the pass was calibrated.
    calibrations: List[float] = field(default_factory=list)

    @property
    def fingerprints(self) -> Dict[str, dict]:
        return {result.benchmark: outcome_fingerprint(result) for result in self.results}

    @property
    def iterations(self) -> int:
        return sum(result.iterations for result in self.results)

    @property
    def disk_misses(self) -> int:
        return sum(result.stats.disk_cache_misses for result in self.results)


def run_pass(inputs: Sequence[ModuleInput], config, calibrated: bool = False) -> Pass:
    """Load and infer every module once; each module is timed on its own.

    With ``calibrated``, the yardstick of :mod:`perfbench.calibrate` is timed
    just before each module; ``wall_s`` still covers the whole pass.
    ``loader`` and ``runner`` are looked up on every call, so a tracer's
    wrappers around them are seen.
    """
    latencies: List[float] = []
    calibrations: List[float] = []
    definitions = []
    results = []
    start = perf_counter()
    for item in inputs:
        if calibrated:
            calibrations.append(calibrate())
        began = perf_counter()
        definition = loader.load_module_text(item.text, path=item.label)
        result = runner.run_module(definition, mode="hanoi", config=config)
        latencies.append(perf_counter() - began)
        definitions.append(definition)
        results.append(result)
    return Pass(perf_counter() - start, latencies, definitions, results, calibrations)


# -- outcome checks ------------------------------------------------------------


def load_reference() -> Dict[str, dict]:
    """Module name -> committed outcome fingerprint."""
    with open(REFERENCE_PATH, encoding="utf-8") as handle:
        return json.load(handle)["fingerprints"]


def reverified(definition, rendered: str, bounds) -> bool:
    """Whether an inferred invariant is sufficient for the specification and
    inductive, re-checked by a fresh bounded tester without any caches.

    For generated modules, whose specification leads with the expected
    invariant, sufficiency means the inferred invariant implies it.  For
    nine built-ins the quick profile infers a weaker invariant than the
    expected one that still meets the specification, so implication alone
    is not the test of a solved module.
    """
    instance = definition.instantiate()
    inferred = Predicate.from_source(rendered, instance.program)
    if not isinstance(Verifier(instance, bounds=bounds).check_sufficiency(inferred), Valid):
        return False
    checker = ConditionalInductivenessChecker(instance, bounds=bounds)
    return isinstance(checker.check(inferred, inferred), Valid)


@dataclass
class OutcomeChecker:
    """Solve and drift bookkeeping over every pass of a run (untimed).

    A module run *drifts* when its outcome fingerprint differs from the
    reference.  The reference holds only outcomes that succeeded and passed
    :func:`reverified`, so a run that matches it is solved; a drifted run is
    solved when it succeeded and its own invariant passes
    :func:`reverified`, and *fails* otherwise.  A solved drift is still a
    correct output - the trajectory changed, not the answer - so drift is a
    metric, not a failure.
    """

    reference: Dict[str, dict]
    attempted: int = 0
    solved: int = 0
    matched: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    drifted: List[str] = field(default_factory=list)
    _verified: Dict[Tuple[str, str], bool] = field(default_factory=dict)

    def check(self, run: Pass, count_disk_misses: bool = False) -> None:
        bounds = quick_config().verifier_bounds
        pass_failed = 0
        for definition, result in zip(run.definitions, run.results):
            self.attempted += 1
            fingerprint = outcome_fingerprint(result)
            if fingerprint == self.reference.get(result.benchmark):
                self.matched += 1
                self.solved += 1
                continue
            self.drifted.append(f"{result.benchmark}: {fingerprint}")
            key = (result.benchmark, fingerprint["invariant"])
            if result.status == "success" and key not in self._verified:
                self._verified[key] = reverified(
                    definition, fingerprint["invariant"], bounds)
            if result.status == "success" and self._verified[key]:
                self.solved += 1
            else:
                pass_failed += 1
                self.problems.append(f"{result.benchmark}: not solved ({result.status})")
        if count_disk_misses and run.disk_misses:
            self.problems.append(f"warm pass missed the store {run.disk_misses} time(s)")
            pass_failed = len(run.results)
        self.failed += pass_failed

    @property
    def drift(self) -> int:
        return self.attempted - self.matched


# -- the warm-cache store ------------------------------------------------------


class WarmStore:
    """A fresh persistent store under ``work_dir``, filled by one cold pass
    and deleted, with ``work_dir`` when that is left empty, on close."""

    def __init__(self, work_dir: str, inputs: Sequence[ModuleInput]) -> None:
        os.makedirs(work_dir, exist_ok=True)
        self.work_dir = work_dir
        self.path = tempfile.mkdtemp(prefix="warm-store-", dir=work_dir)
        self.config = quick_config(self.path)
        try:
            run_pass(inputs, self.config)
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            os.rmdir(self.work_dir)
        except OSError:
            pass  # another run's store is still there
