"""Diagnostic model for the static-analysis layer.

Every finding the analyzer produces is a :class:`Diagnostic` with a stable
``HAN0xx`` code, a severity, and a 1-based source line anchor.  Rendering
follows the ``path:line: message`` convention established by
:class:`repro.spec.errors.SpecFileError`, so lint output, load errors, and
runtime diagnostics all look alike to tools and humans.

Code registry
-------------
========  ========  ====================================================
Code      Severity  Meaning
========  ========  ====================================================
HAN000    error     module fails to parse or type check
HAN001    warning   non-exhaustive match (a value no branch covers)
HAN002    warning   unreachable match branch
HAN003    warning   definition unused by the module interface
HAN004    warning   recursive definition without a provable structural
                    decrease (possible non-termination under evaluation)
HAN005    info      a declared synthesis component that no goal term
                    can use (advisory: the synthesizer keeps it, and
                    removing it changes no candidate)
========  ========  ====================================================

Severities: ``error`` (the module is unusable), ``warning`` (runtime
failures or dead weight the author should fix; these fail ``repro lint``),
``info`` (advisory; never fails a lint run).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

__all__ = [
    "Severity",
    "Diagnostic",
    "DIAGNOSTIC_CODES",
    "ERROR",
    "WARNING",
    "INFO",
    "worst_severity",
]

ERROR = "error"
WARNING = "warning"
INFO = "info"

Severity = str

_SEVERITY_RANK = {INFO: 0, WARNING: 1, ERROR: 2}

#: code -> (default severity, short title)
DIAGNOSTIC_CODES = {
    "HAN000": (ERROR, "module fails to parse or type check"),
    "HAN001": (WARNING, "non-exhaustive match"),
    "HAN002": (WARNING, "unreachable match branch"),
    "HAN003": (WARNING, "unused definition"),
    "HAN004": (WARNING, "unprovable structural termination"),
    "HAN005": (INFO, "synthesis component unusable for the goal type"),
}


@dataclass(frozen=True)
class Diagnostic:
    """One analyzer finding, anchored to a source position.

    ``line`` is 1-based and refers to the module source recorded in the
    definition (directive lines blanked), which keeps the original file's
    numbering, so anchors point into the file the user wrote.
    """

    code: str
    message: str
    severity: Severity = field(default="")
    line: Optional[int] = None
    decl: Optional[str] = None
    path: str = "<module>"

    def __post_init__(self):
        if self.code not in DIAGNOSTIC_CODES:
            raise ValueError(f"unknown diagnostic code: {self.code}")
        if not self.severity:
            object.__setattr__(self, "severity", DIAGNOSTIC_CODES[self.code][0])
        elif self.severity not in _SEVERITY_RANK:
            raise ValueError(f"unknown severity: {self.severity}")

    @property
    def rank(self) -> int:
        return _SEVERITY_RANK[self.severity]

    def at_path(self, path: str) -> "Diagnostic":
        return replace(self, path=path)

    def render(self) -> str:
        location = f"{self.path}:{self.line}" if self.line is not None else self.path
        where = f" [{self.decl}]" if self.decl else ""
        return f"{location}: {self.code} {self.severity}:{where} {self.message}"

    def __str__(self) -> str:  # pragma: no cover - debugging convenience
        return self.render()


def worst_severity(diagnostics: Tuple[Diagnostic, ...]) -> Optional[Severity]:
    """The highest severity present, or ``None`` for an empty set."""
    if not diagnostics:
        return None
    return max(diagnostics, key=lambda d: d.rank).severity
