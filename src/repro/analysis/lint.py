"""The analysis driver: run every pass over one module definition.

:func:`analyze_definition` is the programmatic entry point behind the
``repro lint`` CLI subcommand and ``repro fuzz --lint``.  It parses and
checks the module source, then runs:

* match exhaustiveness / unreachable branches (HAN001, HAN002),
* call-graph reachability and structural recursion (HAN003, HAN004),
* component-usefulness reachability for the synthesis goal (HAN005),
* abstract interpretation of each operation against the expected-invariant
  oracle, when the definition carries one (HAN006),
* the canonicalizing passes, whose alpha-normalized hash is reported as
  the module's ``content_hash`` (the cache content key).

Each pass runs inside an ``obs`` span (``analysis`` with one child per
pass, category ``analysis``), so ``repro trace`` breakdowns show analysis
time per phase next to inference phases.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..core.module import ModuleDefinition
from ..lang.ast import FunDecl, free_vars
from ..lang.errors import LangError
from ..lang.parser import parse_program
from ..lang.program import Program
from ..lang.typecheck import TypeChecker
from ..lang.types import TArrow, TData, Type
from ..obs import NULL_EMITTER
from .absint import REFUTED, AbstractChecker
from .callgraph import scan_module_declarations
from .canon import canonical_hash
from .diagnostics import Diagnostic, worst_severity
from .matches import scan_declaration
from .reachability import split_components

__all__ = ["AnalysisReport", "analyze_definition", "analyze_file"]

GOAL_TYPE = TData("bool")


@dataclass(frozen=True)
class AnalysisReport:
    """Every finding for one module, plus its canonical content hash."""

    module: str
    path: str
    diagnostics: Tuple[Diagnostic, ...]
    content_hash: str
    pruned_components: Tuple[str, ...] = ()

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


@dataclass(frozen=True)
class _Component:
    """A (name, signature) view satisfying the reachability protocol."""

    name: str
    argument_types: Tuple[Type, ...]
    result_type: Type


def _uncurry_signature(signature: Type) -> Tuple[Tuple[Type, ...], Type]:
    args: List[Type] = []
    while isinstance(signature, TArrow):
        args.append(signature.arg)
        signature = signature.result
    return tuple(args), signature


def _first_order(args: Tuple[Type, ...], result: Type) -> bool:
    return not isinstance(result, TArrow) and \
        not any(isinstance(a, TArrow) for a in args)


def interface_components(definition: ModuleDefinition,
                         program: Program) -> List[_Component]:
    """The first-order synthesis components, as signature views, plus the
    synthetic recursive-invariant component the synthesizer always adds."""
    components: List[_Component] = []
    for name in definition.synthesis_components:
        signature = program.types.globals.get(name)
        if signature is None:
            continue
        args, result = _uncurry_signature(signature)
        if _first_order(args, result):
            components.append(_Component(name, args, result))
    components.append(_Component(
        "<invariant>", (definition.concrete_type,), GOAL_TYPE))
    return components


def _oracle_references(definition: ModuleDefinition) -> List[str]:
    """Names the expected-invariant oracle block references.

    The oracle is part of the definition (the test suite typechecks it
    against the module program), so module functions it calls are live
    even when no interface root reaches them."""
    if not definition.expected_invariant:
        return []
    try:
        oracle_decls = parse_program(definition.expected_invariant)
    except LangError:
        return []
    names: List[str] = []
    for decl in oracle_decls:
        if isinstance(decl, FunDecl):
            names.extend(free_vars(decl.body))
    return names


def analyze_definition(definition: ModuleDefinition, path: str = "<module>",
                       emitter=NULL_EMITTER) -> AnalysisReport:
    """Run all analysis passes over one module definition."""
    diagnostics: List[Diagnostic] = []
    pruned: Tuple[str, ...] = ()
    content_hash = ""

    with emitter.span("analysis", {"module": definition.name},
                      cat="analysis"):
        try:
            decls = parse_program(definition.source)
            program = Program()
            program.extend_prelude()
            program.extend_declarations(decls)
        except LangError as exc:
            diagnostics.append(Diagnostic(
                "HAN000", str(exc), line=getattr(exc, "line", None)))
            return _report(definition, path, diagnostics, content_hash, pruned)

        checker = TypeChecker(program.types)

        with emitter.span("analysis-matches", cat="analysis"):
            for decl in decls:
                if isinstance(decl, FunDecl):
                    diagnostics.extend(scan_declaration(checker, decl))

        with emitter.span("analysis-callgraph", cat="analysis"):
            roots = ([op.name for op in definition.operations]
                     + [definition.spec_name]
                     + list(definition.synthesis_components)
                     + list(definition.helper_functions)
                     + _oracle_references(definition))
            diagnostics.extend(scan_module_declarations(decls, roots))

        with emitter.span("analysis-components", cat="analysis"):
            components = interface_components(definition, program)
            _, dropped = split_components(
                components, [definition.concrete_type], program.types,
                GOAL_TYPE, destructure=True)
            decl_lines = {d.name: d.line for d in decls
                          if isinstance(d, FunDecl)}
            pruned = tuple(c.name for c in dropped if c.name != "<invariant>")
            for component in dropped:
                if component.name == "<invariant>":
                    continue
                diagnostics.append(Diagnostic(
                    "HAN005",
                    f"synthesis component {component.name!r} can never "
                    f"appear in a term of type {GOAL_TYPE}: its result "
                    f"feeds no goal-reaching signature",
                    line=decl_lines.get(component.name),
                    decl=component.name))

        with emitter.span("analysis-absint", cat="analysis"):
            diagnostics.extend(_static_violations(definition, program, decls))

        with emitter.span("analysis-canon", cat="analysis"):
            content_hash = canonical_hash(definition, program, decls)

    return _report(definition, path, diagnostics, content_hash, pruned)


def _static_violations(definition: ModuleDefinition, program: Program,
                       decls: List[object]) -> List[Diagnostic]:
    """HAN006: operations the abstract interpreter proves cannot preserve
    the expected-invariant oracle (every completing application - on *any*
    arguments - produces a value the invariant rejects)."""
    if not definition.expected_invariant:
        return []
    try:
        oracle_decls = [d for d in parse_program(definition.expected_invariant)
                        if isinstance(d, FunDecl)]
    except LangError:
        return []
    if not oracle_decls:
        return []
    findings: List[Diagnostic] = []
    try:
        checker = AbstractChecker(program, definition, extra_decls=oracle_decls)
        abstract_top = checker.abstract_input()
        decl_lines = {d.name: d.line for d in decls if isinstance(d, FunDecl)}
        for operation in definition.operations:
            verdict = checker.operation_verdict(
                operation, oracle_decls[-1], abstract_top)
            if verdict == REFUTED:
                findings.append(Diagnostic(
                    "HAN006",
                    f"operation {operation.name!r} statically proven to "
                    f"violate the expected invariant: every completing "
                    f"application produces a value the invariant rejects",
                    line=decl_lines.get(operation.name),
                    decl=operation.name))
    except Exception:
        # The static tier is advisory here; a failure inside it must never
        # break linting.  Its soundness is covered by the transfer-soundness
        # test (test_transfers_over_approximate_concrete_eval), the absint
        # hash-seed property, the verdict-vs-enumeration sweep in
        # test_absint_soundness.py, and the clean-lint sweep over every module.
        pass
    return findings


def _report(definition: ModuleDefinition, path: str,
            diagnostics: List[Diagnostic], content_hash: str,
            pruned: Tuple[str, ...]) -> AnalysisReport:
    anchored = tuple(sorted(
        (d.at_path(path) for d in diagnostics),
        key=lambda d: (d.line is None, d.line or 0, d.code, d.message)))
    return AnalysisReport(module=definition.name, path=path,
                          diagnostics=anchored, content_hash=content_hash,
                          pruned_components=pruned)


def analyze_file(path: str, emitter=NULL_EMITTER) -> AnalysisReport:
    """Load one ``.hanoi`` file and analyze it.

    Raises :class:`repro.spec.errors.SpecFileError` when the file does not
    load at all (the CLI renders that as a HAN000-style error line)."""
    from ..spec.loader import load_module_file

    definition = load_module_file(path)
    return analyze_definition(definition, path=path, emitter=emitter)
