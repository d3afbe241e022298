"""Rendering module definitions back to the ``.hanoi`` text format.

This is the inverse of :mod:`repro.spec.loader`: any
:class:`~repro.core.module.ModuleDefinition` - a built-in benchmark or a
hand-built one - renders to a definition file that loads back into a
behaviourally identical definition (same interface, same specification, same
operation semantics; the golden round-trip test exercises this for all 28
built-in benchmarks).

The exported layout is: a header comment, the metadata directives, the
interface directives, the module source verbatim, and the oracle-invariant
block (when the definition ships one).
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, List, Optional, Tuple

from ..core.module import ModuleDefinition
from ..lang.prelude import DEFAULT_SYNTHESIS_COMPONENTS
from ..lang.program import Program
from .common import module_filename, render_signature

__all__ = [
    "render_module",
    "export_benchmark",
    "export_all",
    "module_filename",
]

#: Alias candidates for spelling the abstract type in exported directives;
#: the first one that collides with nothing in the module is used.
_ALIAS_CANDIDATES = ("t", "abs_t", "alpha", "t0", "t1", "t2")


def _escape(text: str) -> str:
    return (text.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n").replace("\r", "\\r").replace("\t", "\\t"))


def _comment_safe(text: str) -> str:
    """Collapse whitespace and defuse comment delimiters for the header.

    The header comment is purely cosmetic; a benchmark name or description
    containing ``*)`` (or an unbalanced ``(*``) must not be able to terminate
    - or open - the OCaml-style comment it is quoted inside.
    """
    text = " ".join(text.split())
    return text.replace("(*", "( *").replace("*)", "* )")


def _pick_alias(definition: ModuleDefinition) -> str:
    """An abstract-type alias that shadows no type or global of the module."""
    program = Program.from_declarations(definition.declarations)
    taken = set(program.types.datatypes) | set(program.types.globals)
    for candidate in _ALIAS_CANDIDATES:
        if candidate not in taken:
            return candidate
    index = 3
    while f"t{index}" in taken:  # pragma: no cover - needs a pathological module
        index += 1
    return f"t{index}"


def render_module(definition: ModuleDefinition,
                  abstract_alias: Optional[str] = None) -> str:
    """Render a module definition as ``.hanoi`` text."""
    alias = abstract_alias or _pick_alias(definition)
    lines: List[str] = []
    header = _comment_safe(definition.name)
    if definition.description:
        header += ": " + _comment_safe(definition.description)
    lines.append(f"(* {header} *)")
    lines.append("")
    lines.append(f'benchmark "{_escape(definition.name)}"')
    group = definition.group
    if not (group.isidentifier() and group[0].islower()):
        group = f'"{_escape(group)}"'
    lines.append(f"group {group}")
    if definition.description:
        lines.append(f'description "{_escape(definition.description)}"')
    lines.append("")
    lines.append(f"abstract type {alias} = "
                 f"{render_signature(definition.concrete_type, alias)}")
    lines.append("")
    for operation in definition.operations:
        lines.append(f"operation {operation.name} : "
                     f"{render_signature(operation.signature, alias)}")
    spec_sig = " -> ".join(
        [render_signature(arg, alias) for arg in definition.spec_signature]
        + ["bool"])
    lines.append(f"spec {definition.spec_name} : {spec_sig}")

    helpers = tuple(definition.helper_functions)
    extras = [name for name in definition.synthesis_components
              if name not in DEFAULT_SYNTHESIS_COMPONENTS
              and name not in helpers]
    if extras:
        lines.append("components " + ", ".join(extras))
    if helpers:
        lines.append("helpers " + ", ".join(helpers))
    lines.append("")
    lines.append(definition.source.strip("\n"))
    if definition.expected_invariant:
        lines.append("")
        lines.append("expected invariant")
        lines.append(definition.expected_invariant.strip("\n"))
    return "\n".join(lines) + "\n"


def export_benchmark(name: str) -> str:
    """Render one registered benchmark as ``.hanoi`` text."""
    from ..suite.registry import get_benchmark

    return render_module(get_benchmark(name))


def export_all(out_dir: str,
               names: Optional[Iterable[str]] = None) -> List[Tuple[str, str]]:
    """Export registered benchmarks (all by default) as one file each.

    Returns ``(benchmark name, file path)`` pairs in export order.  Files
    whose sanitized names would collide raise ``ValueError`` rather than
    silently overwriting each other.
    """
    from ..suite.registry import all_benchmark_names, get_benchmark

    selected = list(names if names is not None else all_benchmark_names())
    filenames: Dict[str, str] = {}
    for name in selected:
        filename = module_filename(name)
        if filename in filenames:
            raise ValueError(
                f"benchmarks {filenames[filename]!r} and {name!r} both export "
                f"to {filename!r}")
        filenames[filename] = name

    os.makedirs(out_dir, exist_ok=True)
    written: List[Tuple[str, str]] = []
    for filename, name in filenames.items():
        path = os.path.join(out_dir, filename)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(render_module(get_benchmark(name)))
        written.append((name, path))
    return written
