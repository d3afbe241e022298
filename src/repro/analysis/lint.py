"""The analysis driver: run every pass over one module definition.

:func:`analyze_definition` is the programmatic entry point behind the
``repro lint`` CLI subcommand and ``repro fuzz --lint``.  It parses and
checks the module source, then runs:

* match exhaustiveness / unreachable branches (HAN001, HAN002),
* call-graph reachability and structural recursion (HAN003, HAN004),
* component-usefulness reachability for the synthesis goal (HAN005,
  advisory): the declared components that
  :func:`repro.synth.myth.interface_components` proves no goal term can
  use; the synthesizer keeps them, so removing one changes no candidate,
* the module's structural content key (:mod:`repro.analysis.canon`),
  reported as its ``content_hash``.

Each pass runs inside an ``obs`` span (``analysis`` with one child per
pass, category ``analysis``), so ``repro trace`` breakdowns show analysis
time per phase next to inference phases.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..core.module import ModuleDefinition
from ..lang.ast import FunDecl
from ..lang.errors import LangError
from ..lang.program import Program
from ..lang.typecheck import TypeChecker
from ..lang.types import TData
from ..obs import NULL_EMITTER
from ..synth.myth import interface_components
from .callgraph import scan_module_declarations
from .canon import canonical_hash
from .diagnostics import Diagnostic, worst_severity
from .matches import scan_declaration

__all__ = ["AnalysisReport", "analyze_definition", "analyze_file"]

GOAL_TYPE = TData("bool")


@dataclass(frozen=True)
class AnalysisReport:
    """Every finding for one module, plus its content key."""

    module: str
    path: str
    diagnostics: Tuple[Diagnostic, ...]
    content_hash: str

    @property
    def ok(self) -> bool:
        """Lint-clean: nothing at warning severity or above."""
        return all(d.rank < 1 for d in self.diagnostics)

    @property
    def worst(self) -> Optional[str]:
        return worst_severity(self.diagnostics)

    def render(self) -> str:
        lines = [d.render() for d in self.diagnostics]
        return "\n".join(lines)


def analyze_definition(definition: ModuleDefinition, path: str = "<module>",
                       emitter=NULL_EMITTER) -> AnalysisReport:
    """Run all analysis passes over one module definition."""
    diagnostics: List[Diagnostic] = []
    content_hash = ""

    with emitter.span("analysis", {"module": definition.name},
                      cat="analysis"):
        try:
            decls = definition.declarations
            program = Program.from_declarations(decls)
        except LangError as exc:
            diagnostics.append(Diagnostic(
                "HAN000", str(exc), line=getattr(exc, "line", None)))
            return _report(definition, path, diagnostics, content_hash)

        checker = TypeChecker(program.types)

        with emitter.span("analysis-matches", cat="analysis"):
            for decl in decls:
                if isinstance(decl, FunDecl):
                    diagnostics.extend(scan_declaration(checker, decl))

        with emitter.span("analysis-callgraph", cat="analysis"):
            diagnostics.extend(scan_module_declarations(
                decls, definition.interface_roots))

        with emitter.span("analysis-components", cat="analysis"):
            components, unusable = interface_components(program, definition)
            decl_lines = {d.name: d.line for d in decls
                          if isinstance(d, FunDecl)}
            for name in (c.name for c in components if c.name in unusable):
                diagnostics.append(Diagnostic(
                    "HAN005",
                    f"synthesis component {name!r} can never "
                    f"appear in a term of type {GOAL_TYPE}: its result "
                    f"feeds no goal-reaching signature",
                    line=decl_lines.get(name), decl=name))

        with emitter.span("analysis-canon", cat="analysis"):
            content_hash = canonical_hash(definition, decls)

    return _report(definition, path, diagnostics, content_hash)


def _report(definition: ModuleDefinition, path: str,
            diagnostics: List[Diagnostic], content_hash: str) -> AnalysisReport:
    anchored = tuple(sorted(
        (d.at_path(path) for d in diagnostics),
        key=lambda d: (d.line is None, d.line or 0, d.code, d.message)))
    return AnalysisReport(module=definition.name, path=path,
                          diagnostics=anchored, content_hash=content_hash)


def analyze_file(path: str, emitter=NULL_EMITTER) -> AnalysisReport:
    """Load one ``.hanoi`` file and analyze it.

    Raises :class:`repro.spec.errors.SpecFileError` when the file does not
    load at all (the CLI renders that as a HAN000-style error line)."""
    from ..spec.loader import load_module_file

    definition = load_module_file(path)
    return analyze_definition(definition, path=path, emitter=emitter)
