"""Static analysis over object-language programs and module definitions.

Submodules
----------
``diagnostics``
    Stable ``HAN0xx`` codes, severities, and ``path:line:``-anchored
    rendering shared by every pass.
``matches``
    Match exhaustiveness and unreachable-branch detection (Maranget-style
    pattern-matrix usefulness with witnesses).
``callgraph``
    Call-graph construction, unused-definition reachability, and the
    structural-recursion termination check.
``reachability``
    Type-inhabitation reachability used to prune synthesis components
    soundly before term-pool construction.
``canon``
    Canonicalizing rewrites (folding, dead-branch elimination,
    alpha-normalization) and the canonical content hash that keys the
    evaluation/synthesis caches.
``domains``
    The abstract domains: intervals x parity for naturals, constructor
    sets x size intervals for datatypes, products component-wise, with
    ``alpha``/``join``/``widen``/``leq``.
``absint``
    The abstract interpreter over those domains (widening fixpoint for
    recursion) and the per-operation inductiveness verdicts
    (PROVEN/REFUTED/UNKNOWN) consumed by the linter's HAN006 pass.
``lint``
    The driver that runs every pass over one module and collects an
    :class:`~repro.analysis.lint.AnalysisReport`.

This package-level module re-exports only the diagnostic model; import
the pass modules directly (``from repro.analysis.lint import
analyze_definition``) so the synthesis layer can depend on
``reachability`` without pulling the whole analyzer in.
"""

from .diagnostics import DIAGNOSTIC_CODES, Diagnostic, Severity

__all__ = ["Diagnostic", "Severity", "DIAGNOSTIC_CODES"]
