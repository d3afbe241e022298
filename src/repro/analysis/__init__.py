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
    Type-inhabitation reachability: which declared synthesis components
    no goal term can use (lint's advisory HAN005).
``canon``
    Structural content keys (sha256 over declaration ``repr``) for a
    module and for each declaration with its callees; they key the
    persistent cache tier.
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
