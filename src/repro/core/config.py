"""Configuration of the inference pipeline.

Two concerns are configured here:

* :class:`VerifierBounds` - how hard the size-bounded enumerative verifier
  tries (Section 4.3 of the paper fixes 3000 structures of at most 30 AST
  nodes for single-quantifier properties, 3000 structures of at most 15 AST
  nodes per quantifier with a total cap of 30000 for multi-quantifier ones).
* :class:`HanoiConfig` - loop-level options: timeouts and the two
  optimizations of Section 4.4 (synthesis result caching and counterexample
  list caching), which the ablation modes Hanoi-SRC / Hanoi-CLC disable.

The paper runs its synthesizer, Myth, at one fixed setting, so the
synthesizer's bounds (match depth, per-branch term size, number of
conjuncts, candidates per call) are constants in :mod:`repro.synth.myth`,
not options.  So are the loop's iteration cap
(:data:`repro.core.run.MAX_ITERATIONS`) and the fuel of one evaluation
(:data:`repro.lang.eval.DEFAULT_FUEL`).

A :class:`Deadline` provides cooperative timeout checking; the verifier,
synthesizer, and Hanoi loop poll it inside their hot loops so a run never
exceeds its wall-clock budget by more than a single evaluation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Optional

__all__ = [
    "VerifierBounds",
    "HanoiConfig",
    "Deadline",
    "InferenceTimeout",
    "PAPER_VERIFIER_BOUNDS",
    "FAST_VERIFIER_BOUNDS",
]


class InferenceTimeout(Exception):
    """Raised when an inference run exceeds its wall-clock budget."""


@dataclass
class Deadline:
    """A cooperative wall-clock deadline.

    ``None`` as the budget means "no deadline".  ``check()`` raises
    :class:`InferenceTimeout` once the budget is exhausted.
    """

    seconds: Optional[float] = None
    started_at: float = field(default_factory=time.perf_counter)

    def expired(self) -> bool:
        return self.seconds is not None and (time.perf_counter() - self.started_at) > self.seconds

    def check(self) -> None:
        if self.expired():
            raise InferenceTimeout(f"exceeded time budget of {self.seconds:.1f}s")

    def remaining(self) -> Optional[float]:
        if self.seconds is None:
            return None
        return max(0.0, self.seconds - (time.perf_counter() - self.started_at))


@dataclass(frozen=True)
class VerifierBounds:
    """Bounds on the enumerative verifier (Section 4.3)."""

    #: Maximum structures tested for a single-quantifier property.
    max_structures_single: int = 3000
    #: Maximum AST nodes of a structure for a single-quantifier property.
    max_nodes_single: int = 30
    #: Maximum structures per quantifier for multi-quantifier properties.
    max_structures_multi: int = 3000
    #: Maximum AST nodes per structure for multi-quantifier properties.
    max_nodes_multi: int = 15
    #: Overall cap on structures processed in one verification call.
    max_total: int = 30000
    #: Cap on enumerated abstract values per operation in inductiveness checks.
    max_abstract_values: int = 300
    #: Cap on enumerated base-type values per argument position.
    max_base_values: int = 12
    #: Cap on enumerated function values per higher-order argument position.
    max_function_values: int = 6
    #: Cap on applications tried per module operation in one inductiveness check.
    max_applications_per_operation: int = 4000


#: The bounds reported in the paper (Section 4.3).
PAPER_VERIFIER_BOUNDS = VerifierBounds()

#: Much smaller bounds used by the test suite and the quick benchmark harness,
#: so CI runs stay fast.  The CEGIS dynamics are unchanged; the verifier is
#: simply a little more unsound.
FAST_VERIFIER_BOUNDS = VerifierBounds(
    max_structures_single=400,
    max_nodes_single=17,
    max_structures_multi=300,
    max_nodes_multi=13,
    max_total=4000,
    max_abstract_values=120,
    max_base_values=7,
    max_function_values=4,
    max_applications_per_operation=900,
)


@dataclass(frozen=True)
class HanoiConfig:
    """Options of the top-level inference loop."""

    verifier_bounds: VerifierBounds = FAST_VERIFIER_BOUNDS
    #: Wall-clock budget in seconds; ``None`` disables the timeout.
    timeout_seconds: Optional[float] = None
    #: Section 4.4: reuse previously synthesized candidates when consistent.
    synthesis_result_caching: bool = True
    #: Section 4.4: replay the synthesis/verification trace when V+ grows
    #: instead of resetting V- to the empty set.
    counterexample_list_caching: bool = True
    #: The same principle applied to Verify: cache the candidate-independent
    #: spec verdict of every sufficiency assignment across refinement
    #: iterations.  Off switch for the ablation; verdicts are identical
    #: either way.
    evaluation_caching: bool = True
    #: And applied to Synth's enumeration: memoize component applications and
    #: replay whole term-pool skeletons across synthesis calls
    #: (``--no-pool-cache`` is the ablation; candidate streams are identical
    #: either way).
    synthesis_evaluation_caching: bool = True
    #: Root directory of the persistent content-addressed cache tier
    #: (docs/service.md).  ``None`` (the default) disables persistence
    #: entirely: no disk I/O, no content hashing beyond what tracing already
    #: does.  When set, the eval-cache and pool-cache are restored from and
    #: snapshotted to ``cache_dir`` keyed by per-declaration dependency
    #: hashes, so unchanged declarations replay across processes.
    cache_dir: Optional[str] = None

    def deadline(self) -> Deadline:
        return Deadline(self.timeout_seconds)

    def with_cache_dir(self, path: Optional[str]) -> "HanoiConfig":
        """Enable the persistent cache tier rooted at ``path``
        (CLI ``--cache-dir``)."""
        return replace(self, cache_dir=path)

    def without_synthesis_result_caching(self) -> "HanoiConfig":
        """The Hanoi-SRC ablation configuration."""
        return replace(self, synthesis_result_caching=False)

    def without_counterexample_list_caching(self) -> "HanoiConfig":
        """The Hanoi-CLC ablation configuration."""
        return replace(self, counterexample_list_caching=False)

    def without_evaluation_caching(self) -> "HanoiConfig":
        """The evaluation-cache ablation configuration (``--no-eval-cache``)."""
        return replace(self, evaluation_caching=False)

    def without_synthesis_evaluation_caching(self) -> "HanoiConfig":
        """The pool-cache ablation configuration (``--no-pool-cache``)."""
        return replace(self, synthesis_evaluation_caching=False)
