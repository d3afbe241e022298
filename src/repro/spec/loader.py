"""Loading ``.hanoi`` benchmark definition files into module definitions.

A ``.hanoi`` file mixes object-language declarations (parsed with the
ordinary :mod:`repro.lang` lexer and parser) with benchmark *directives*::

    benchmark "/examples/bounded-stack"   (* optional; defaults to the stem *)
    group examples                        (* optional; defaults to "custom" *)
    description "..."                     (* optional *)

    abstract type t = list                (* required: alias = concrete type *)
    operation empty : t                   (* one per interface operation *)
    operation push : t -> nat -> t
    spec spec : t -> nat -> bool          (* required: name and signature *)
    components size, nat_leq              (* optional synthesis components *)
    helpers size                          (* optional enabling helpers *)

    type list = Nil | Cons of nat * list  (* the module implementation ... *)
    let empty : list = Nil                (* ... ordinary object language *)
    ...

    expected invariant                    (* optional oracle; extends to EOF *)
    let expected (l : list) : bool = ...

Everything the loader rejects - lexical and parse errors, unknown directives,
operations or specifications the source does not define, signatures that never
mention the abstract type, and type errors surfaced from
:mod:`repro.lang.typecheck` - is reported as a
:class:`~repro.spec.errors.SpecFileError` anchored to the offending line.

The module source recorded in the resulting
:class:`~repro.core.module.ModuleDefinition` is the original file text with
directive lines blanked out, so line numbers in later evaluation errors still
match the file the user wrote.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..core.module import ModuleDefinition, Operation
from ..lang.errors import LangError, LexError, ParseError
from ..lang.lexer import tokenize
from ..lang.parser import Parser
from ..lang.prelude import DEFAULT_SYNTHESIS_COMPONENTS
from ..lang.program import Program
from ..lang.types import (
    TData,
    Type,
    arrow,
    arrow_args,
    arrow_result,
    mentions_abstract,
    substitute_abstract,
)
from .common import (
    DEFAULT_GROUP,
    DIRECTIVE_KEYWORDS,
    SPEC_FILE_SUFFIX,
    alias_to_abstract,
    data_type_names,
    render_signature,
    signature_mentions_alias,
)
from .errors import SpecFileError

__all__ = ["load_module_file", "load_module_text", "SPEC_FILE_SUFFIX"]


@dataclass
class _Directive:
    """One parsed directive with the line span it occupies in the file."""

    kind: str
    line: int
    end_line: int
    name: Optional[str] = None
    type: Optional[Type] = None
    names: Tuple[str, ...] = ()
    text: Optional[str] = None


@dataclass
class _SpannedDecl:
    """One object-language declaration with its line span."""

    decl: object
    line: int
    end_line: int

    @property
    def name(self) -> str:
        return getattr(self.decl, "name", "<decl>")


class _SpecParser(Parser):
    """The directive-aware parser: object-language declarations are delegated
    to the base :class:`~repro.lang.parser.Parser`, directives are handled
    here."""

    def __init__(self, tokens, path: str):
        super().__init__(tokens)
        self.path = path
        self.directives: List[_Directive] = []
        self.module_decls: List[_SpannedDecl] = []
        self.expected_decls: List[_SpannedDecl] = []
        self.expected_directive: Optional[_Directive] = None

    def _error(self, reason: str, line: int) -> SpecFileError:
        return SpecFileError(reason, self.path, line)

    def _starts_atom(self) -> bool:
        # Application is juxtaposition in the object language, so without this
        # guard a directive line following a ``let`` body would be swallowed
        # as extra application arguments.  Rule: a directive keyword at the
        # start of a line always opens a directive, never an expression atom
        # (parenthesize the rare call to a function named like a directive).
        token = self._tokens[self._pos]
        if (token.kind == "LIDENT" and token.column == 1
                and token.text in DIRECTIVE_KEYWORDS):
            return False
        return super()._starts_atom()

    def _last_line(self) -> int:
        return self._tokens[max(self._pos - 1, 0)].line

    # -- top level ----------------------------------------------------------

    def parse_spec_file(self) -> None:
        while not self._check("EOF"):
            token = self._peek()
            if token.kind == "KEYWORD" and token.text in ("let", "type"):
                decl = self.parse_decl()
                spanned = _SpannedDecl(decl, token.line, self._last_line())
                if self.expected_directive is not None:
                    self.expected_decls.append(spanned)
                else:
                    self.module_decls.append(spanned)
            elif token.kind == "LIDENT" and token.text in DIRECTIVE_KEYWORDS:
                if self.expected_directive is not None:
                    raise self._error(
                        "directives must appear before the 'expected invariant' "
                        "block (which extends to the end of the file)",
                        token.line)
                self._parse_directive()
            elif token.kind == "LIDENT":
                raise self._error(
                    f"unknown directive {token.text!r}; known directives: "
                    + ", ".join(sorted(DIRECTIVE_KEYWORDS)),
                    token.line)
            else:
                raise self._error(
                    f"expected a directive or declaration but found {token.text!r}",
                    token.line)

    # -- directives ---------------------------------------------------------

    def _parse_directive(self) -> None:
        token = self._advance()
        kind = token.text
        if kind == "benchmark":
            value = self._expect_string("benchmark")
            self._record(kind, token.line, text=value)
        elif kind == "group":
            if self._check("STRING"):
                name = self._advance().text
            else:
                name = self._expect("LIDENT").text
            self._record(kind, token.line, name=name)
        elif kind == "description":
            value = self._expect_string("description")
            self._record(kind, token.line, text=value)
        elif kind == "abstract":
            self._expect("KEYWORD", "type")
            alias = self._expect("LIDENT").text
            self._expect("EQUAL")
            concrete = self.parse_type()
            self._record(kind, token.line, name=alias, type=concrete)
        elif kind == "operation":
            name = self._expect("LIDENT").text
            self._expect("COLON")
            signature = self.parse_type()
            self._record(kind, token.line, name=name, type=signature)
        elif kind == "spec":
            name = self._expect("LIDENT").text
            self._expect("COLON")
            signature = self.parse_type()
            self._record(kind, token.line, name=name, type=signature)
        elif kind in ("components", "helpers"):
            names = [self._expect("LIDENT").text]
            while self._match("COMMA"):
                names.append(self._expect("LIDENT").text)
            self._record(kind, token.line, names=tuple(names))
        elif kind == "expected":
            tail = self._expect("LIDENT")
            if tail.text != "invariant":
                raise self._error(
                    f"expected 'expected invariant' but found "
                    f"'expected {tail.text}'", token.line)
            self.expected_directive = self._record(kind, token.line)
        else:  # pragma: no cover - DIRECTIVE_KEYWORDS is exhaustive above
            raise self._error(f"unknown directive {kind!r}", token.line)

    def _expect_string(self, directive: str) -> str:
        token = self._peek()
        if token.kind != "STRING":
            raise self._error(
                f"the '{directive}' directive takes a double-quoted string, "
                f"found {token.text!r}", token.line)
        return self._advance().text

    def _record(self, kind: str, line: int, **fields) -> _Directive:
        directive = _Directive(kind=kind, line=line, end_line=self._last_line(),
                               **fields)
        self.directives.append(directive)
        return directive


def load_module_file(path: str, name: Optional[str] = None) -> ModuleDefinition:
    """Load one ``.hanoi`` benchmark definition file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise SpecFileError(f"cannot read file: {exc.strerror or exc}", str(path))
    stem = os.path.splitext(os.path.basename(path))[0]
    return load_module_text(text, path=str(path), name=name or stem)


def load_module_text(text: str, path: str = "<string>",
                     name: Optional[str] = None) -> ModuleDefinition:
    """Load a benchmark definition from an in-memory string.

    ``name`` is the fallback benchmark name used when the file carries no
    ``benchmark`` directive.
    """
    try:
        parser = _SpecParser(tokenize(text), path)
        parser.parse_spec_file()
    except (LexError, ParseError) as exc:
        raise SpecFileError(str(exc), path, exc.line or None) from exc
    return _build_definition(parser, text, path, name)


# -- assembling and validating the definition -----------------------------------


def _single(parser: _SpecParser, kind: str) -> Optional[_Directive]:
    """The unique directive of a kind, or None; duplicates are an error."""
    found = [d for d in parser.directives if d.kind == kind]
    if len(found) > 1:
        raise SpecFileError(f"duplicate '{kind}' directive "
                            f"(first on line {found[0].line})",
                            parser.path, found[1].line)
    return found[0] if found else None


def _blanked_module_source(text: str, parser: _SpecParser) -> str:
    """The file text with directive lines (and the expected block) blanked.

    Lines are split on ``"\\n"`` only, matching how the lexer counts them -
    ``str.splitlines`` also breaks on carriage returns and would desync the
    blanking from the directive spans for files with ``\\r`` inside strings.

    Everything before the first module declaration is blanked too: only
    directives, comments, and blank lines can appear there, and keeping the
    file-header comment in the module source would make every
    export -> load -> export cycle stack another copy of it on top.
    """
    lines = text.split("\n")
    blank = set()
    for directive in parser.directives:
        blank.update(range(directive.line, directive.end_line + 1))
    if parser.expected_directive is not None:
        blank.update(range(parser.expected_directive.line, len(lines) + 1))
    if parser.module_decls:
        blank.update(range(1, min(d.line for d in parser.module_decls)))
    for spanned in parser.module_decls:
        overlap = blank.intersection(range(spanned.line, spanned.end_line + 1))
        if overlap:
            raise SpecFileError(
                f"directive and declaration {spanned.name!r} share line "
                f"{min(overlap)}; put directives on their own lines",
                parser.path, min(overlap))
    kept = ["" if i + 1 in blank else line for i, line in enumerate(lines)]
    return "\n".join(kept) + "\n"


def _expected_invariant_source(text: str, parser: _SpecParser) -> Optional[str]:
    """The oracle-invariant block: every line from its first declaration on."""
    if parser.expected_directive is None:
        return None
    if not parser.expected_decls:
        raise SpecFileError(
            "'expected invariant' block contains no declarations",
            parser.path, parser.expected_directive.line)
    first = parser.expected_decls[0]
    if first.line <= parser.expected_directive.end_line:
        raise SpecFileError(
            "the expected invariant block must start on its own line",
            parser.path, first.line)
    lines = text.splitlines()
    return "\n".join(lines[first.line - 1:]) + "\n"


def _extend_checked(program: Program, parser: _SpecParser,
                    decls: List[_SpannedDecl]) -> None:
    """Type-check declarations one at a time, anchoring failures.

    A :class:`TypeError_` that already carries a line (the checker anchors
    errors to the enclosing declaration) wins over the span recorded here;
    its ``bare_message`` is used so the position is not rendered twice.
    """
    for spanned in decls:
        try:
            program.extend_declarations([spanned.decl])
        except LangError as exc:
            message = getattr(exc, "bare_message", None) or str(exc)
            line = getattr(exc, "line", None) or spanned.line
            raise SpecFileError(
                f"in declaration {spanned.name!r}: {message}",
                parser.path, line) from exc


def _check_program(parser: _SpecParser) -> Program:
    """The prelude plus the *module* declarations only.

    The expected-invariant block is checked separately, after the interface
    validation: operations, the specification, and synthesis components must
    be defined by the module source itself, not smuggled in via the oracle
    block (which is never loaded into the runnable module).
    """
    program = Program()
    program.extend_prelude()
    _extend_checked(program, parser, parser.module_decls)
    return program


def _validate_known_types(ty: Type, program: Program, parser: _SpecParser,
                          line: int, context: str) -> None:
    for type_name in data_type_names(ty):
        if type_name not in program.types.datatypes:
            raise SpecFileError(
                f"unknown type {type_name!r} in {context}",
                parser.path, line)


def _build_definition(parser: _SpecParser, text: str, path: str,
                      fallback_name: Optional[str]) -> ModuleDefinition:
    program = _check_program(parser)

    abstract = _single(parser, "abstract")
    if abstract is None:
        raise SpecFileError(
            "missing 'abstract type <alias> = <type>' directive", path)
    alias = abstract.name
    concrete_type = abstract.type
    if alias in program.types.datatypes:
        raise SpecFileError(
            f"abstract type alias {alias!r} collides with the data type of "
            f"the same name; pick a name the module does not declare",
            path, abstract.line)
    _validate_known_types(concrete_type, program, parser, abstract.line,
                          "the concrete representation type")

    operations = _build_operations(parser, program, alias, concrete_type)
    spec_name, spec_signature = _build_spec(parser, program, alias, concrete_type)

    components: List[str] = []
    for directive in parser.directives:
        if directive.kind in ("components", "helpers"):
            for component in directive.names:
                if not program.has_global(component):
                    raise SpecFileError(
                        f"unknown synthesis component {component!r}: neither "
                        f"the module source nor the prelude defines it",
                        path, directive.line)
            components.extend(directive.names)
    helpers = tuple(name for directive in parser.directives
                    if directive.kind == "helpers" for name in directive.names)
    synthesis_components = tuple(dict.fromkeys(
        list(DEFAULT_SYNTHESIS_COMPONENTS) + components))

    # Only now, with the interface fully validated against the module alone,
    # type-check the oracle block (it may call module functions).
    _extend_checked(program, parser, parser.expected_decls)

    name_directive = _single(parser, "benchmark")
    group_directive = _single(parser, "group")
    description_directive = _single(parser, "description")

    # The blanked source keeps the lines of the module declarations and
    # blanks the rest, so it parses to these declarations: the definition
    # keeps this parse instead of making its own.
    return ModuleDefinition.parsed(
        [spanned.decl for spanned in parser.module_decls],
        name=(name_directive.text if name_directive is not None
              else (fallback_name or "<anonymous>")),
        group=group_directive.name if group_directive is not None else DEFAULT_GROUP,
        source=_blanked_module_source(text, parser),
        concrete_type=concrete_type,
        operations=operations,
        spec_name=spec_name,
        spec_signature=spec_signature,
        synthesis_components=synthesis_components,
        helper_functions=helpers,
        expected_invariant=_expected_invariant_source(text, parser),
        description=(description_directive.text
                     if description_directive is not None else ""),
    )


def _build_operations(parser: _SpecParser, program: Program, alias: str,
                      concrete_type: Type) -> Tuple[Operation, ...]:
    directives = [d for d in parser.directives if d.kind == "operation"]
    if not directives:
        raise SpecFileError("no 'operation' directives: a module interface "
                            "needs at least one operation", parser.path)
    seen: Dict[str, int] = {}
    operations: List[Operation] = []
    for directive in directives:
        op_name = directive.name
        if op_name in seen:
            raise SpecFileError(
                f"duplicate operation {op_name!r} "
                f"(first declared on line {seen[op_name]})",
                parser.path, directive.line)
        seen[op_name] = directive.line
        if not signature_mentions_alias(directive.type, alias):
            raise SpecFileError(
                f"signature of operation {op_name!r} does not mention the "
                f"abstract type {alias!r}",
                parser.path, directive.line)
        signature = alias_to_abstract(directive.type, alias)
        _validate_known_types(
            substitute_abstract(signature, concrete_type), program, parser,
            directive.line, f"the signature of operation {op_name!r}")
        if not program.has_global(op_name):
            raise SpecFileError(
                f"unknown operation {op_name!r}: the module source does not "
                f"define it", parser.path, directive.line)
        declared = substitute_abstract(signature, concrete_type)
        actual = program.global_type(op_name)
        if declared != actual:
            raise SpecFileError(
                f"operation {op_name!r} is declared as "
                f"'{render_signature(signature, alias)}' (concretely "
                f"'{declared}') but its definition has type '{actual}'",
                parser.path, directive.line)
        operations.append(Operation(op_name, signature))
    return tuple(operations)


def _build_spec(parser: _SpecParser, program: Program, alias: str,
                concrete_type: Type) -> Tuple[str, Tuple[Type, ...]]:
    directive = _single(parser, "spec")
    if directive is None:
        raise SpecFileError(
            "missing 'spec <name> : <signature>' directive", parser.path)
    spec_name = directive.name
    signature = alias_to_abstract(directive.type, alias)
    args = tuple(arrow_args(signature))
    result = arrow_result(signature)
    if result != TData("bool"):
        raise SpecFileError(
            f"specification {spec_name!r} must return bool, not '{result}'",
            parser.path, directive.line)
    if not args:
        raise SpecFileError(
            f"specification {spec_name!r} takes no arguments; it must "
            f"quantify over at least the abstract type",
            parser.path, directive.line)
    if not any(mentions_abstract(arg) for arg in args):
        raise SpecFileError(
            f"specification {spec_name!r} never takes the abstract type "
            f"{alias!r} as an argument", parser.path, directive.line)
    _validate_known_types(
        substitute_abstract(signature, concrete_type), program, parser,
        directive.line, f"the signature of specification {spec_name!r}")
    if not program.has_global(spec_name):
        raise SpecFileError(
            f"specification {spec_name!r} not found in the module source",
            parser.path, directive.line)
    declared = arrow(*[substitute_abstract(arg, concrete_type) for arg in args],
                     TData("bool"))
    actual = program.global_type(spec_name)
    if declared != actual:
        raise SpecFileError(
            f"specification {spec_name!r} is declared as "
            f"'{render_signature(signature, alias)}' (concretely "
            f"'{declared}') but its definition has type '{actual}'",
            parser.path, directive.line)
    return spec_name, args
