"""Differential fuzzing: every transparent layer must leave outcomes unchanged.

One harness, :func:`differential`, runs a module under an ordered tuple of
named *variants* for each inference mode and requires one outcome
*fingerprint* (status, rendered invariant, size, iteration count, message)
per ``(module, mode)``.  A variant is a ``(tag, prepare)`` pair: ``prepare``
maps the base ``(definition, config)`` to what that variant runs.  Two
variant tuples hold the layers that advertise "identical outcomes, less
work" to it:

* :data:`CACHE_MATRIX` - the 2x2 matrix of the verification evaluation
  cache (``--no-eval-cache``) and the synthesis term-pool cache
  (``--no-pool-cache``);
* :data:`PERSISTENCE_VARIANTS` - no persistence, then a cold, a warm, and a
  corrupted disk-cache store (:mod:`repro.serve.diskcache`, docs/service.md).

The runs are judged by :func:`compare_stored`, the same code that judges the
rows a parallel sweep persisted.  Besides agreement it checks:

* **Ground-truth agreement** - for generated modules the expected invariant
  is known by construction (:mod:`repro.gen.modgen`); the bounded tester
  checks it is sufficient and inductive (a generator self-check), and that
  every *inferred* invariant implies it (inference may find a stronger
  invariant than the ground truth, never an incomparable one, because the
  generated specification's leading conjunct is the ground truth itself).
* **Mode success** - modes listed in ``require_success`` (by default just
  ``hanoi``) must solve every generated module: the invariant is a single
  application of a helper the synthesizer is handed as a component, so a
  failure is a real regression, not an unlucky search.

Mismatches are reported as :class:`DifferentialMismatch` records; the CLI
hands them to :mod:`repro.gen.shrink` to minimize into reproducers.
"""

from __future__ import annotations

import json
import os
import tempfile
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

from ..core.config import HanoiConfig
from ..core.module import ModuleDefinition
from ..core.predicate import Predicate
from ..core.result import InferenceResult
from ..inductive.relation import ConditionalInductivenessChecker
from ..lang.errors import LangError
from ..verify.result import Valid
from ..verify.tester import Verifier

__all__ = [
    "CACHE_MATRIX",
    "PERSISTENCE_VARIANTS",
    "DEFAULT_FUZZ_MODES",
    "FAULT_ENV_VAR",
    "Variants",
    "outcome_fingerprint",
    "DifferentialMismatch",
    "OracleFailure",
    "FuzzReport",
    "differential",
    "compare_stored",
]

#: The modes the fuzzer exercises by default: Hanoi plus the three baselines.
DEFAULT_FUZZ_MODES: Tuple[str, ...] = (
    "hanoi", "conj-str", "linear-arbitrary", "oneshot")

#: Test-only fault injection (see docs/fuzzing.md): when this environment
#: variable names a module operation, fingerprints of the ``no-caches``
#: variant are corrupted for every module defining that operation.  It exists
#: so the shrinker pipeline can be exercised end to end without a real bug.
FAULT_ENV_VAR = "REPRO_FUZZ_FAULT_OPERATION"

#: What one variant runs, given the base module and configuration.
Prepare = Callable[[ModuleDefinition, HanoiConfig],
                   Tuple[ModuleDefinition, HanoiConfig]]


class Variants(NamedTuple):
    """An ordered tuple of ``(tag, prepare)`` variants that must agree.

    The first variant is the reference: success and the ground truth are
    judged on its run.  ``kind`` names the layer in mismatch reports.  With
    ``disk_store``, each mode's variants share a fresh scratch directory as
    ``config.cache_dir``; only the Hanoi-loop modes open the store, so only
    they run.
    """

    kind: str
    members: Tuple[Tuple[str, Prepare], ...]
    disk_store: bool = False

    @property
    def tags(self) -> Tuple[str, ...]:
        return tuple(tag for tag, _ in self.members)

    def applies_to(self, mode: str) -> bool:
        return not self.disk_store or mode.startswith("hanoi")


def _same(definition: ModuleDefinition, config: HanoiConfig):
    return definition, config


def _configured(change: Callable[[HanoiConfig], HanoiConfig]) -> Prepare:
    return lambda definition, config: (definition, change(config))


def _corrupt_store(directory: str) -> int:
    """Flip one mid-payload byte in every disk-cache entry; returns count."""
    flipped = 0
    for root, _, files in os.walk(directory):
        for name in files:
            if not name.endswith(".bin"):
                continue
            path = os.path.join(root, name)
            with open(path, "r+b") as handle:
                blob = bytearray(handle.read())
                if not blob:
                    continue
                blob[len(blob) // 2] ^= 0xFF
                handle.seek(0)
                handle.write(blob)
            flipped += 1
    return flipped


def _corrupted(definition: ModuleDefinition, config: HanoiConfig):
    _corrupt_store(config.cache_dir)
    return definition, config


def _without_caches(config: HanoiConfig) -> HanoiConfig:
    return config.without_evaluation_caching().without_synthesis_evaluation_caching()


#: All caches on first, all off last; a parallel sweep runs each cell as one
#: task with the config its ``prepare`` yields.
CACHE_MATRIX = Variants("cache variants", (
    ("ec+pc", _same),
    ("ec-only", _configured(HanoiConfig.without_synthesis_evaluation_caching)),
    ("pc-only", _configured(HanoiConfig.without_evaluation_caching)),
    ("no-caches", _configured(_without_caches)),
))

#: Every damaged entry must be skipped with a warning, never crash the run
#: or change its outcome.
PERSISTENCE_VARIANTS = Variants("persistent cache", (
    ("no-persistence", _configured(lambda config: config.with_cache_dir(None))),
    ("cold-store", _same),
    ("warm-store", _same),
    ("corrupt-store", _corrupted),
), disk_store=True)


def outcome_fingerprint(result: InferenceResult) -> dict:
    """The cache-independent facts of one run, as a JSON-safe dict.

    Timing, cache counters, and event traces are deliberately excluded: they
    legitimately differ across cache configurations.  Everything else - the
    status, the invariant itself, the iteration count, and the failure
    message - must not.
    """
    return {
        "status": result.status,
        "invariant": (None if result.invariant is None
                      else result.render_invariant()),
        "size": result.invariant_size,
        "iterations": result.iterations,
        "message": result.message,
    }


def _fingerprint_bytes(fingerprint: dict) -> str:
    return json.dumps(fingerprint, sort_keys=True, separators=(",", ":"))


def _faulted_modules(definitions: Dict[str, ModuleDefinition]) -> Set[str]:
    """The modules whose ``no-caches`` fingerprints the test-only fault
    corrupts: those defining the operation :data:`FAULT_ENV_VAR` names."""
    operation = os.environ.get(FAULT_ENV_VAR)
    if not operation:
        return set()
    return {name for name, definition in definitions.items()
            if any(op.name == operation for op in definition.operations)}


@dataclass(frozen=True)
class DifferentialMismatch:
    """One ``(benchmark, mode)`` pair whose variants disagree."""

    benchmark: str
    mode: str
    #: variant tag -> fingerprint (missing runs are absent).
    fingerprints: Dict[str, dict]
    #: The variant tuple that disagreed, so a reproducer can re-run it.
    variants: Variants

    def describe(self) -> str:
        lines = [f"{self.benchmark} [{self.mode}]: {self.variants.kind} disagree"]
        for tag in self.variants.tags:
            if tag in self.fingerprints:
                lines.append(f"  {tag:10s} {_fingerprint_bytes(self.fingerprints[tag])}")
            else:
                lines.append(f"  {tag:10s} (missing)")
        return "\n".join(lines)


@dataclass(frozen=True)
class OracleFailure:
    """A ground-truth check that failed for one ``(benchmark, mode, variant)``."""

    benchmark: str
    mode: str
    variant: str
    reason: str

    def describe(self) -> str:
        return f"{self.benchmark} [{self.mode}/{self.variant}]: {self.reason}"


@dataclass
class FuzzReport:
    """The aggregated outcome of one differential sweep."""

    benchmarks: List[str] = field(default_factory=list)
    #: Every run judged, tagged with its ``variant``.
    results: List[InferenceResult] = field(default_factory=list)
    mismatches: List[DifferentialMismatch] = field(default_factory=list)
    oracle_failures: List[OracleFailure] = field(default_factory=list)

    @property
    def runs(self) -> int:
        return len(self.results)

    @property
    def ok(self) -> bool:
        return not self.mismatches and not self.oracle_failures

    def merge(self, other: "FuzzReport") -> None:
        """Fold ``other`` in; a module both reports cover is counted once."""
        self.benchmarks.extend(name for name in other.benchmarks
                               if name not in self.benchmarks)
        self.results.extend(other.results)
        self.mismatches.extend(other.mismatches)
        self.oracle_failures.extend(other.oracle_failures)

    def summary(self) -> str:
        status = "ok" if self.ok else "FAILED"
        return (f"differential fuzz {status}: {len(self.benchmarks)} module(s), "
                f"{self.runs} run(s), {len(self.mismatches)} mismatch(es), "
                f"{len(self.oracle_failures)} oracle failure(s)")

    def describe(self) -> str:
        """The summary line, then every oracle failure and mismatch."""
        lines = [self.summary()]
        lines.extend(f"  oracle: {failure.describe()}"
                     for failure in self.oracle_failures)
        for mismatch in self.mismatches:
            lines.extend(("", mismatch.describe()))
        return "\n".join(lines)


# -- the harness -----------------------------------------------------------------


def differential(definition: ModuleDefinition,
                 variants: Variants,
                 modes: Sequence[str] = DEFAULT_FUZZ_MODES,
                 config: Optional[HanoiConfig] = None,
                 require_success: Sequence[str] = (),
                 check_oracle: bool = False) -> FuzzReport:
    """Run ``definition`` under each of ``variants`` per mode, in process,
    and judge the runs with :func:`compare_stored`.

    Per mode the variants run in order, so a later one may depend on what an
    earlier one left behind (the warm store the cold run filled).  The report
    counts every run; by default it checks agreement only.
    """
    from ..experiments.runner import quick_config, run_module

    base = config or quick_config()
    results: List[InferenceResult] = []
    for mode in filter(variants.applies_to, modes):
        scratch = (tempfile.TemporaryDirectory(prefix="repro-fuzz-diskcache-")
                   if variants.disk_store else nullcontext())
        with scratch as store:
            start = base if store is None else base.with_cache_dir(store)
            for tag, prepare in variants.members:
                module, variant_base = prepare(definition, start)
                result = run_module(module, mode=mode, config=variant_base)
                result.variant = tag
                results.append(result)
    return compare_stored(results, {definition.name: definition}, modes,
                          variants=variants, require_success=require_success,
                          check_oracle=check_oracle, config=base)


def _check_ground_truth(definition: ModuleDefinition, bounds,
                        report: FuzzReport) -> Optional[Predicate]:
    """Validate the module's expected invariant; return it as a predicate.

    For generated modules this is a generator self-check: the invariant is
    sufficient and inductive *by construction*, so a failure here means the
    generator (not the inference stack) is wrong.
    """
    if not definition.expected_invariant:
        return None
    instance = definition.instantiate()
    oracle = Predicate.from_source(definition.expected_invariant, instance.program)
    verifier = Verifier(instance, bounds=bounds)
    if not isinstance(verifier.check_sufficiency(oracle), Valid):
        report.oracle_failures.append(OracleFailure(
            definition.name, "-", "-",
            "ground-truth invariant is not sufficient for the specification"))
        return None
    checker = ConditionalInductivenessChecker(instance, bounds=bounds)
    if not isinstance(checker.check(oracle, oracle), Valid):
        report.oracle_failures.append(OracleFailure(
            definition.name, "-", "-",
            "ground-truth invariant is not inductive"))
        return None
    return oracle


def _check_inferred_against_oracle(definition: ModuleDefinition,
                                   oracle: Optional[Predicate], bounds,
                                   mode: str, variant: str,
                                   rendered_invariant: Optional[str],
                                   report: FuzzReport) -> None:
    """Bounded check that an inferred invariant implies the ground truth."""
    if oracle is None or not rendered_invariant:
        return
    program = oracle.program  # the instantiated module's program
    try:
        inferred = Predicate.from_source(rendered_invariant, program)
    except (LangError, ValueError) as exc:
        report.oracle_failures.append(OracleFailure(
            definition.name, mode, variant,
            f"inferred invariant does not re-parse: {exc}"))
        return
    verifier = Verifier(definition.instantiate(), bounds=bounds)
    verdict = verifier.check_predicate(lambda v: (not inferred(v)) or oracle(v))
    if not isinstance(verdict, Valid):
        report.oracle_failures.append(OracleFailure(
            definition.name, mode, variant,
            "inferred invariant accepts a value the ground-truth invariant "
            f"rejects (witness: {verdict.witnesses[0]})"))


def compare_stored(results: Sequence[InferenceResult],
                   definitions: Dict[str, ModuleDefinition],
                   modes: Sequence[str],
                   variants: Variants = CACHE_MATRIX,
                   require_success: Sequence[str] = ("hanoi",),
                   check_oracle: bool = True,
                   config: Optional[HanoiConfig] = None) -> FuzzReport:
    """Judge variant-tagged runs: the one place runs are checked.

    The rows come from :func:`differential` or from a :class:`ResultStore`
    a parallel sweep persisted (each ``(benchmark, mode, variant)`` cell one
    task).  Per ``(benchmark, mode)`` every variant must be present with one
    fingerprint; success and the ground truth are judged on the reference
    (first) variant.  With ``check_oracle``, each module's ground truth is
    self-checked once.
    """
    from ..experiments.runner import quick_config

    bounds = (config or quick_config()).verifier_bounds
    report = FuzzReport(benchmarks=list(definitions), results=list(results))
    faulted = _faulted_modules(definitions)

    by_cell: Dict[Tuple[str, str], Dict[str, dict]] = {}
    for result in results:
        fingerprint = outcome_fingerprint(result)
        if result.variant == "no-caches" and result.benchmark in faulted:
            fingerprint = dict(fingerprint, status="fault-injected")
        by_cell.setdefault((result.benchmark, result.mode), {})[
            result.variant or ""] = fingerprint

    reference_tag = variants.tags[0]
    for name, definition in definitions.items():
        oracle = (_check_ground_truth(definition, bounds, report)
                  if check_oracle else None)
        for mode in filter(variants.applies_to, modes):
            fingerprints = by_cell.get((name, mode), {})
            rendered = {_fingerprint_bytes(fp) for fp in fingerprints.values()}
            if set(fingerprints) != set(variants.tags) or len(rendered) != 1:
                report.mismatches.append(DifferentialMismatch(
                    benchmark=name, mode=mode, fingerprints=dict(fingerprints),
                    variants=variants))
            reference = fingerprints.get(reference_tag)
            if reference is None:
                continue
            if mode in require_success and reference["status"] != "success":
                report.oracle_failures.append(OracleFailure(
                    name, mode, reference_tag,
                    f"expected success on a generated module, got "
                    f"{reference['status']!r}: {reference['message']}"))
            if reference["status"] == "success":
                _check_inferred_against_oracle(
                    definition, oracle, bounds, mode, reference_tag,
                    reference["invariant"], report)
    return report

