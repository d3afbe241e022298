"""Golden-diagnostic tests: one stable ``HAN0xx`` code per analyzer finding.

Each test crafts a minimal module that triggers exactly one diagnostic kind
and asserts the code, severity, line anchor, and rendered form, so the codes
stay stable across refactors (docs/analysis.md documents them).
"""

import dataclasses

import pytest

from repro.analysis.diagnostics import DIAGNOSTIC_CODES, Diagnostic
from repro.analysis.lint import analyze_definition
from repro.spec.loader import load_module_text

TEMPLATE = """
benchmark "/test/lint"
group testing

abstract type t = nat

operation zero : t
operation get : t -> nat

spec spec : t -> bool

{directives}

let zero : nat = O
let get (c : nat) : nat = c
let spec (c : nat) : bool = True

{extra}
"""


def _load(extra: str = "", directives: str = ""):
    return load_module_text(TEMPLATE.format(extra=extra, directives=directives),
                            path="lint.hanoi")


def _codes(report):
    return [d.code for d in report.diagnostics]


def test_code_table_is_stable():
    assert set(DIAGNOSTIC_CODES) == {
        "HAN000", "HAN001", "HAN002", "HAN003", "HAN004", "HAN005"}
    assert DIAGNOSTIC_CODES["HAN000"][0] == "error"
    assert DIAGNOSTIC_CODES["HAN005"][0] == "info"
    for code in ("HAN001", "HAN002", "HAN003", "HAN004"):
        assert DIAGNOSTIC_CODES[code][0] == "warning"


def test_render_format_matches_spec_errors():
    diagnostic = Diagnostic("HAN001", "non-exhaustive match", line=7,
                            decl="spec", path="m.hanoi")
    rendered = diagnostic.render()
    assert rendered.startswith("m.hanoi:7: HAN001 warning:")
    assert "[spec]" in rendered
    assert "non-exhaustive match" in rendered


def test_clean_module_is_ok():
    report = analyze_definition(_load())
    assert report.ok
    assert report.diagnostics == ()
    assert report.content_hash


def test_han000_module_that_does_not_typecheck():
    definition = _load()
    broken = dataclasses.replace(definition, source="let bad : nat = True")
    report = analyze_definition(broken)
    assert _codes(report) == ["HAN000"]
    assert not report.ok
    assert report.diagnostics[0].severity == "error"


def test_han001_non_exhaustive_match_with_witness():
    report = analyze_definition(_load(extra="""
let classify (n : nat) : bool =
  match n with
  | O -> True
"""))
    findings = [d for d in report.diagnostics if d.code == "HAN001"]
    assert len(findings) == 1
    assert not report.ok
    assert "S" in findings[0].message  # the missing-constructor witness
    assert findings[0].decl == "classify"
    assert findings[0].line is not None


def test_han001_witness_terminates_on_recursive_types():
    # A single-branch match over a recursive payload: the witness search
    # must not recurse forever into the constructor's own type.
    report = analyze_definition(_load(extra="""
type mylist = MNil | MCons of nat * mylist

let has (l : mylist) : bool =
  match l with
  | MNil -> True
"""))
    findings = [d for d in report.diagnostics if d.code == "HAN001"]
    assert len(findings) == 1
    assert "MCons" in findings[0].message


def test_han002_unreachable_branch():
    report = analyze_definition(_load(extra="""
let classify (n : nat) : bool =
  match n with
  | O -> True
  | S m -> False
  | _ -> True
"""))
    findings = [d for d in report.diagnostics if d.code == "HAN002"]
    assert len(findings) == 1
    assert not report.ok
    assert findings[0].decl == "classify"


def test_han003_unused_definition_and_type():
    report = analyze_definition(_load(extra="""
type ghost = Ghost

let orphan (n : nat) : nat = n
"""))
    findings = {d.decl: d for d in report.diagnostics if d.code == "HAN003"}
    assert set(findings) == {"ghost", "orphan"}
    assert "definition 'orphan'" in findings["orphan"].message
    assert "type 'ghost'" in findings["ghost"].message
    assert not report.ok


def test_han003_expected_invariant_keeps_oracle_helpers_live():
    definition = _load(extra="""
let oracle_helper (n : nat) : bool = True
""")
    definition = dataclasses.replace(
        definition,
        expected_invariant="let expected (c : nat) : bool = oracle_helper c")
    report = analyze_definition(definition)
    assert "HAN003" not in _codes(report)


def test_han003_oracle_parameters_are_not_roots():
    # The oracle's parameter ``helper`` shadows the module function of that
    # name, so the function stays unreachable; the shrinker agrees.
    definition = _load(extra="""
let helper (n : nat) : bool = True
""")
    definition = dataclasses.replace(
        definition,
        expected_invariant="let expected (helper : nat) : bool = nat_eq helper O")
    assert "helper" not in definition.interface_roots
    report = analyze_definition(definition)
    assert [d.decl for d in report.diagnostics if d.code == "HAN003"] == ["helper"]


def test_han004_unprovable_termination():
    report = analyze_definition(_load(extra="""
let rec spin (n : nat) : nat = spin n
"""))
    findings = [d for d in report.diagnostics if d.code == "HAN004"]
    assert len(findings) == 1
    assert findings[0].decl == "spin"
    assert not report.ok


def test_han005_unusable_component_is_info_only():
    report = analyze_definition(_load(
        directives="components mk_flag",
        extra="""
type flag = Red | Blue

let mk_flag (n : nat) : flag = Red
"""))
    findings = [d for d in report.diagnostics if d.code == "HAN005"]
    assert len(findings) == 1
    assert findings[0].severity == "info"
    assert findings[0].decl == "mk_flag"
    # Info findings never fail lint.
    assert report.ok


def test_diagnostics_sorted_by_line():
    report = analyze_definition(_load(extra="""
let orphan_one (n : nat) : nat = n

let orphan_two (n : nat) : nat = n
"""))
    lines = [d.line for d in report.diagnostics]
    assert lines == sorted(lines, key=lambda x: (x is None, x or 0))


def test_unknown_code_rejected():
    with pytest.raises(ValueError):
        Diagnostic("HAN999", "nope")
