"""Differential fuzzing: cross-check modes and cache configurations.

Every module (generated or hand-written) is run through a set of inference
modes, each under all four cache configurations - the 2x2 matrix of the
verification evaluation cache (``--no-eval-cache``) and the synthesis
term-pool cache (``--no-pool-cache``).  Three properties are checked:

1. **Cache transparency** - per mode, the outcome *fingerprint* (status,
   rendered invariant, size, iteration count, message) is byte-identical
   across all four cache configurations.  The caches advertise "identical
   outcomes, less work"; this is the harness that holds them to it.
2. **Ground-truth agreement** - for generated modules the expected invariant
   is known by construction (:mod:`repro.gen.modgen`); the bounded tester
   checks it is sufficient and inductive (a generator self-check), and that
   every *inferred* invariant implies it (inference may find a stronger
   invariant than the ground truth, never an incomparable one, because the
   generated specification's leading conjunct is the ground truth itself).
3. **Mode success** - modes listed in ``require_success`` (by default just
   ``hanoi``) must solve every generated module: the invariant is a single
   application of a helper the synthesizer is handed as a component, so a
   failure is a real regression, not an unlucky search.
4. **Persistent-cache transparency** (``check_persistence``) - the disk
   cache tier (:mod:`repro.serve.diskcache`) must replay identically:
   no-persistence, cold-store, warm-store, and corrupted-store runs all
   produce the same fingerprint (see docs/service.md).

Mismatches are reported as :class:`DifferentialMismatch` records; the CLI
hands them to :mod:`repro.gen.shrink` to minimize into reproducers.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.config import HanoiConfig
from ..core.module import ModuleDefinition
from ..core.predicate import Predicate
from ..core.result import InferenceResult
from ..inductive.relation import ConditionalInductivenessChecker
from ..lang.errors import LangError
from ..verify.result import Valid
from ..verify.tester import Verifier

__all__ = [
    "CACHE_VARIANTS",
    "DEFAULT_FUZZ_MODES",
    "FAULT_ENV_VAR",
    "variant_config",
    "outcome_fingerprint",
    "DifferentialMismatch",
    "OracleFailure",
    "FuzzReport",
    "canonicalization_mismatches",
    "persistent_cache_mismatches",
    "fuzz_module",
    "fuzz_corpus",
    "compare_stored",
]

#: The 2x2 cache matrix: variant tag -> (eval cache on, pool cache on).
#: A tuple of pairs (not a dict comprehension over a set) so iteration order
#: is fixed: the all-on configuration first, the all-off one last.
CACHE_VARIANTS: Tuple[Tuple[str, Tuple[bool, bool]], ...] = (
    ("ec+pc", (True, True)),
    ("ec-only", (True, False)),
    ("pc-only", (False, True)),
    ("no-caches", (False, False)),
)

#: Variant tags in matrix order.
VARIANT_NAMES: Tuple[str, ...] = tuple(name for name, _ in CACHE_VARIANTS)

#: The modes the fuzzer exercises by default: Hanoi plus the three baselines.
DEFAULT_FUZZ_MODES: Tuple[str, ...] = (
    "hanoi", "conj-str", "linear-arbitrary", "oneshot")

#: Test-only fault injection (see docs/fuzzing.md): when this environment
#: variable names a module operation, fingerprints of the ``no-caches``
#: variant are corrupted for every module defining that operation.  It exists
#: so the shrinker pipeline can be exercised end to end without a real bug.
FAULT_ENV_VAR = "REPRO_FUZZ_FAULT_OPERATION"

#: Signature of a fault hook: (benchmark, mode, variant, fingerprint) -> fingerprint.
FaultHook = Callable[[str, str, str, dict], dict]


def variant_config(config: HanoiConfig, variant: str) -> HanoiConfig:
    """The base configuration with one cache matrix cell applied."""
    for name, (eval_on, pool_on) in CACHE_VARIANTS:
        if name == variant:
            if not eval_on:
                config = config.without_evaluation_caching()
            if not pool_on:
                config = config.without_synthesis_evaluation_caching()
            return config
    raise KeyError(f"unknown cache variant {variant!r}; known: {VARIANT_NAMES}")


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


def _env_fault_hook(definitions: Dict[str, ModuleDefinition]) -> Optional[FaultHook]:
    """The environment-driven fault hook, when the test-only variable is set."""
    operation = os.environ.get(FAULT_ENV_VAR)
    if not operation:
        return None

    def hook(benchmark: str, mode: str, variant: str, fingerprint: dict) -> dict:
        definition = definitions.get(benchmark)
        if (definition is not None and variant == "no-caches"
                and any(op.name == operation for op in definition.operations)):
            corrupted = dict(fingerprint)
            corrupted["status"] = "fault-injected"
            return corrupted
        return fingerprint

    return hook


@dataclass(frozen=True)
class DifferentialMismatch:
    """One ``(benchmark, mode)`` pair whose runs disagree.

    ``kind`` says which axis disagreed: the cache-variant matrix (the
    default) or the original-versus-canonicalized module comparison."""

    benchmark: str
    mode: str
    #: run tag -> fingerprint (missing runs are absent).  Cache-matrix
    #: mismatches use the variant tags; canonicalization mismatches use
    #: ``original`` / ``canonical``.
    fingerprints: Dict[str, dict]
    kind: str = "cache variants"

    def describe(self) -> str:
        lines = [f"{self.benchmark} [{self.mode}]: {self.kind} disagree"]
        keys = (VARIANT_NAMES if self.kind == "cache variants"
                else tuple(self.fingerprints))
        for key in keys:
            if key in self.fingerprints:
                lines.append(f"  {key:10s} {_fingerprint_bytes(self.fingerprints[key])}")
            else:
                lines.append(f"  {key:10s} (missing)")
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
    runs: int = 0
    mismatches: List[DifferentialMismatch] = field(default_factory=list)
    oracle_failures: List[OracleFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches and not self.oracle_failures

    def merge(self, other: "FuzzReport") -> None:
        self.benchmarks.extend(other.benchmarks)
        self.runs += other.runs
        self.mismatches.extend(other.mismatches)
        self.oracle_failures.extend(other.oracle_failures)

    def summary(self) -> str:
        status = "ok" if self.ok else "FAILED"
        return (f"differential fuzz {status}: {len(self.benchmarks)} module(s), "
                f"{self.runs} run(s), {len(self.mismatches)} mismatch(es), "
                f"{len(self.oracle_failures)} oracle failure(s)")


# -- canonicalization transparency ------------------------------------------------


def canonicalization_mismatches(definition: ModuleDefinition,
                                modes: Sequence[str] = DEFAULT_FUZZ_MODES,
                                config: Optional[HanoiConfig] = None,
                                ) -> List[DifferentialMismatch]:
    """Run the module and its canonicalized form through each mode.

    The canonicalizing rewrites (:mod:`repro.analysis.canon`) advertise
    behaviour preservation: constant folding, dead-branch elimination, and
    alpha-normalization must not change what inference concludes.  This is
    the harness that holds them to it - the outcome fingerprints of the
    original and the canonicalized module must be byte-identical per mode.
    """
    from ..analysis.canon import canonicalize_definition
    from ..experiments.runner import quick_config, run_module

    base = config or quick_config()
    canonical = canonicalize_definition(definition)
    mismatches: List[DifferentialMismatch] = []
    for mode in modes:
        fingerprints = {
            "original": outcome_fingerprint(
                run_module(definition, mode=mode, config=base)),
            "canonical": outcome_fingerprint(
                run_module(canonical, mode=mode, config=base)),
        }
        rendered = {_fingerprint_bytes(fp) for fp in fingerprints.values()}
        if len(rendered) != 1:
            mismatches.append(DifferentialMismatch(
                benchmark=definition.name, mode=mode,
                fingerprints=fingerprints, kind="canonicalization"))
    return mismatches


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


def persistent_cache_mismatches(definition: ModuleDefinition,
                                modes: Sequence[str] = DEFAULT_FUZZ_MODES,
                                config: Optional[HanoiConfig] = None,
                                cache_dir: Optional[str] = None,
                                ) -> List[DifferentialMismatch]:
    """Cold, warm, and corrupted persistent-store runs vs. no persistence.

    The disk cache tier (:mod:`repro.serve.diskcache`) advertises the same
    contract as the in-memory caches: identical outcomes, less work - now
    across *processes*.  Per Hanoi mode this runs the module four ways:
    without persistence, against an empty store (cold), against the store
    the cold run just wrote (warm), and against that store with one byte
    flipped in every entry (corruption tolerance: every entry must be
    skipped with a warning, never crash or change the outcome).  All four
    fingerprints must be byte-identical.  Baseline modes never create the
    caches, so only Hanoi-loop modes are compared.
    """
    import shutil
    import tempfile

    from ..experiments.runner import quick_config, run_module

    base = (config or quick_config()).with_cache_dir(None)
    mismatches: List[DifferentialMismatch] = []
    for mode in modes:
        if not mode.startswith("hanoi"):
            continue
        owns_dir = cache_dir is None
        directory = (tempfile.mkdtemp(prefix="repro-fuzz-diskcache-")
                     if owns_dir else os.path.join(cache_dir, mode.replace("/", "_")))
        try:
            persistent = base.with_cache_dir(directory)
            fingerprints = {
                "no-persistence": outcome_fingerprint(
                    run_module(definition, mode=mode, config=base)),
                "cold-store": outcome_fingerprint(
                    run_module(definition, mode=mode, config=persistent)),
                "warm-store": outcome_fingerprint(
                    run_module(definition, mode=mode, config=persistent)),
            }
            _corrupt_store(directory)
            fingerprints["corrupt-store"] = outcome_fingerprint(
                run_module(definition, mode=mode, config=persistent))
            rendered = {_fingerprint_bytes(fp) for fp in fingerprints.values()}
            if len(rendered) != 1:
                mismatches.append(DifferentialMismatch(
                    benchmark=definition.name, mode=mode,
                    fingerprints=fingerprints, kind="persistent cache"))
        finally:
            if owns_dir:
                shutil.rmtree(directory, ignore_errors=True)
    return mismatches


# -- in-process sweeps -----------------------------------------------------------


def _diff_variants(benchmark: str, mode: str,
                   fingerprints: Dict[str, dict]) -> Optional[DifferentialMismatch]:
    """A mismatch record when the variant fingerprints are not all identical."""
    rendered = {variant: _fingerprint_bytes(fp) for variant, fp in fingerprints.items()}
    if len(fingerprints) == len(VARIANT_NAMES) and len(set(rendered.values())) == 1:
        return None
    return DifferentialMismatch(benchmark=benchmark, mode=mode,
                                fingerprints=dict(fingerprints))


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


def fuzz_module(definition: ModuleDefinition,
                modes: Sequence[str] = DEFAULT_FUZZ_MODES,
                config: Optional[HanoiConfig] = None,
                require_success: Sequence[str] = ("hanoi",),
                fault: Optional[FaultHook] = None,
                check_oracle: bool = True,
                check_canonical: bool = False,
                check_persistence: bool = False) -> FuzzReport:
    """Run one module through ``modes`` x cache variants, in process.

    With ``check_canonical``, additionally re-run each mode on the
    canonicalized module and require byte-identical outcomes (doubles the
    per-mode work, so off by default).  With ``check_persistence``, re-run
    the Hanoi modes against a cold, a warm, and a corrupted persistent
    disk-cache store and require all four outcomes identical (see
    :func:`persistent_cache_mismatches`)."""
    from ..experiments.runner import quick_config, run_module

    base = config or quick_config()
    bounds = base.verifier_bounds
    report = FuzzReport(benchmarks=[definition.name])
    oracle = _check_ground_truth(definition, bounds, report) if check_oracle else None
    if fault is None:
        fault = _env_fault_hook({definition.name: definition})

    for mode in modes:
        fingerprints: Dict[str, dict] = {}
        for variant in VARIANT_NAMES:
            result = run_module(definition, mode=mode,
                                config=variant_config(base, variant))
            report.runs += 1
            fingerprint = outcome_fingerprint(result)
            if fault is not None:
                fingerprint = fault(definition.name, mode, variant, fingerprint)
            fingerprints[variant] = fingerprint
            if mode in require_success and fingerprint["status"] != "success":
                report.oracle_failures.append(OracleFailure(
                    definition.name, mode, variant,
                    f"expected success on a generated module, got "
                    f"{fingerprint['status']!r}: {fingerprint['message']}"))
            if check_oracle and fingerprint["status"] == "success":
                # One variant is enough: identical fingerprints mean an
                # identical invariant, and non-identical ones are already a
                # mismatch.
                if variant == VARIANT_NAMES[0]:
                    _check_inferred_against_oracle(
                        definition, oracle, bounds, mode, variant,
                        fingerprint["invariant"], report)
        mismatch = _diff_variants(definition.name, mode, fingerprints)
        if mismatch is not None:
            report.mismatches.append(mismatch)
    if check_canonical:
        report.mismatches.extend(
            canonicalization_mismatches(definition, modes=modes, config=base))
        report.runs += 2 * len(modes)
    if check_persistence:
        report.mismatches.extend(
            persistent_cache_mismatches(definition, modes=modes, config=base))
        report.runs += 4 * sum(1 for m in modes if m.startswith("hanoi"))
    return report


def fuzz_corpus(definitions: Sequence[ModuleDefinition],
                modes: Sequence[str] = DEFAULT_FUZZ_MODES,
                config: Optional[HanoiConfig] = None,
                require_success: Sequence[str] = ("hanoi",),
                fault: Optional[FaultHook] = None,
                check_oracle: bool = True,
                check_persistence: bool = False,
                progress: Optional[Callable[[str, FuzzReport], None]] = None,
                ) -> FuzzReport:
    """Run a corpus serially through :func:`fuzz_module`, merging reports.

    Accepts bare :class:`ModuleDefinition`\\ s or the generator's
    :class:`~repro.gen.modgen.GeneratedModule` wrappers.
    """
    total = FuzzReport()
    for definition in definitions:
        definition = getattr(definition, "definition", definition)
        report = fuzz_module(definition, modes=modes, config=config,
                             require_success=require_success, fault=fault,
                             check_oracle=check_oracle,
                             check_persistence=check_persistence)
        total.merge(report)
        if progress is not None:
            progress(definition.name, report)
    return total


# -- stored-result comparison (the parallel-runner path) -------------------------


def compare_stored(results: Sequence[InferenceResult],
                   definitions: Dict[str, ModuleDefinition],
                   modes: Sequence[str],
                   require_success: Sequence[str] = ("hanoi",),
                   fault: Optional[FaultHook] = None,
                   check_oracle: bool = True,
                   config: Optional[HanoiConfig] = None) -> FuzzReport:
    """Differential comparison over rows a :class:`ResultStore` persisted.

    This is the CLI path: the sweep itself ran through the parallel runner
    (each ``(benchmark, mode, variant)`` cell as one task), and the stored
    rows are grouped and compared here afterwards.
    """
    from ..experiments.runner import quick_config

    bounds = (config or quick_config()).verifier_bounds
    report = FuzzReport(benchmarks=list(definitions))
    if fault is None:
        fault = _env_fault_hook(definitions)

    by_cell: Dict[Tuple[str, str], Dict[str, dict]] = {}
    for result in results:
        fingerprint = outcome_fingerprint(result)
        if fault is not None:
            fingerprint = fault(result.benchmark, result.mode,
                                result.variant or "", fingerprint)
        by_cell.setdefault((result.benchmark, result.mode), {})[
            result.variant or ""] = fingerprint
    report.runs = len(results)

    oracles: Dict[str, Optional[Predicate]] = {}
    for name in definitions:
        for mode in modes:
            fingerprints = by_cell.get((name, mode), {})
            mismatch = _diff_variants(name, mode, fingerprints)
            if mismatch is not None:
                report.mismatches.append(mismatch)
            reference = fingerprints.get(VARIANT_NAMES[0])
            if reference is None:
                continue
            if mode in require_success and reference["status"] != "success":
                report.oracle_failures.append(OracleFailure(
                    name, mode, VARIANT_NAMES[0],
                    f"expected success on a generated module, got "
                    f"{reference['status']!r}: {reference['message']}"))
            if check_oracle and reference["status"] == "success":
                if name not in oracles:
                    oracles[name] = _check_ground_truth(
                        definitions[name], bounds, report)
                _check_inferred_against_oracle(
                    definitions[name], oracles[name], bounds, mode,
                    VARIANT_NAMES[0], reference["invariant"], report)
    return report
