"""Loader tests for the ``.hanoi`` benchmark definition format.

Two halves: well-formed files load into the expected
:class:`~repro.core.module.ModuleDefinition`, and every class of malformed
input is rejected with a :class:`~repro.spec.errors.SpecFileError` carrying
the offending line number - never a traceback from a lower layer.
"""

import os

import pytest

from repro.core.module import ModuleDefinition
from repro.lang.prelude import DEFAULT_SYNTHESIS_COMPONENTS
from repro.lang.types import TAbstract, TData, TProd, arrow
from repro.spec import SpecFileError, load_module_file, load_module_text

EXAMPLES_DIR = os.path.join(
    os.path.dirname(__file__), "..", "..", "examples", "modules")

GOOD = """
benchmark "/test/counter"
group testing
description "A counter that only counts up."

abstract type t = nat

operation zero : t
operation incr : t -> t
operation get : t -> nat

spec spec : t -> bool

components is_zero

let zero : nat = O
let incr (c : nat) : nat = S c
let get (c : nat) : nat = c
let spec (c : nat) : bool = True

expected invariant
let expected (c : nat) : bool = True
"""


def test_good_file_loads():
    definition = load_module_text(GOOD, path="good.hanoi")
    assert isinstance(definition, ModuleDefinition)
    assert definition.name == "/test/counter"
    assert definition.group == "testing"
    assert definition.description == "A counter that only counts up."
    assert definition.concrete_type == TData("nat")
    assert [op.name for op in definition.operations] == ["zero", "incr", "get"]
    assert definition.operations[1].signature == arrow(TAbstract(), TAbstract())
    assert definition.operations[2].signature == arrow(TAbstract(), TData("nat"))
    assert definition.spec_name == "spec"
    assert definition.spec_signature == (TAbstract(),)
    assert definition.synthesis_components == tuple(
        list(DEFAULT_SYNTHESIS_COMPONENTS) + ["is_zero"])
    assert "let expected" in definition.expected_invariant
    definition.instantiate()  # the reconstructed source must load


def test_source_preserves_line_numbers():
    definition = load_module_text(GOOD, path="good.hanoi")
    # Directive lines are blanked, not removed: the declarations sit on the
    # same lines as in the original text.
    original_line = GOOD.splitlines().index("let zero : nat = O")
    assert definition.source.splitlines()[original_line] == "let zero : nat = O"


def test_defaults_when_directives_omitted():
    minimal = """
abstract type t = nat
operation zero : t
spec spec : t -> bool
let zero : nat = O
let spec (c : nat) : bool = True
"""
    definition = load_module_text(minimal, name="fallback")
    assert definition.name == "fallback"
    assert definition.group == "custom"
    assert definition.description == ""
    assert definition.expected_invariant is None


def test_load_module_file_uses_stem_as_fallback_name(tmp_path):
    path = tmp_path / "counter.hanoi"
    path.write_text("""
abstract type t = nat
operation zero : t
spec spec : t -> bool
let zero : nat = O
let spec (c : nat) : bool = True
""")
    assert load_module_file(str(path)).name == "counter"


def test_product_concrete_type():
    source = """
abstract type t = nat * bool
operation make : nat -> t
spec spec : t -> bool
let make (n : nat) : nat * bool = (n, True)
let spec (c : nat * bool) : bool = True
"""
    definition = load_module_text(source)
    assert definition.concrete_type == TProd((TData("nat"), TData("bool")))


def test_example_files_load():
    for filename in sorted(os.listdir(EXAMPLES_DIR)):
        definition = load_module_file(os.path.join(EXAMPLES_DIR, filename))
        definition.instantiate()
        assert definition.group == "examples"


# -- diagnostics ----------------------------------------------------------------


def error_for(text, path="bad.hanoi"):
    with pytest.raises(SpecFileError) as excinfo:
        load_module_text(text, path=path)
    return excinfo.value


def test_missing_file_is_a_spec_error(tmp_path):
    with pytest.raises(SpecFileError):
        load_module_file(str(tmp_path / "nope.hanoi"))


def test_unknown_directive_names_line():
    error = error_for("abstract type t = nat\nfrobnicate all the things\n")
    assert error.line == 2
    assert "frobnicate" in error.reason


def test_lex_error_is_wrapped():
    error = error_for("abstract type t = nat\nlet x = $\n")
    assert error.line == 2


def test_parse_error_is_wrapped():
    error = error_for("operation : t\n")
    assert error.line == 1


def test_missing_abstract_type():
    error = error_for("operation zero : t\nspec spec : t -> bool\n"
                      "let zero : nat = O\nlet spec (c : nat) : bool = True\n")
    assert "abstract type" in error.reason


def test_duplicate_abstract_type():
    error = error_for("abstract type t = nat\nabstract type u = bool\n")
    assert error.line == 2
    assert "duplicate" in error.reason


def test_alias_colliding_with_datatype():
    error = error_for("""abstract type list = list
operation zero : list
spec spec : list -> bool
type list = Nil | Cons of nat * list
let zero : list = Nil
let spec (c : list) : bool = True
""")
    assert error.line == 1
    assert "collides" in error.reason


def test_unknown_concrete_type():
    error = error_for("abstract type t = queue\n"
                      "operation zero : t\nspec spec : t -> bool\n"
                      "let zero : nat = O\nlet spec (c : nat) : bool = True\n")
    assert error.line == 1
    assert "queue" in error.reason


def test_unknown_operation_names_line():
    error = error_for("""abstract type t = nat
operation zero : t
operation missing : t -> t
spec spec : t -> bool
let zero : nat = O
let spec (c : nat) : bool = True
""")
    assert error.line == 3
    assert "missing" in error.reason


def test_operation_signature_must_mention_abstract_type():
    error = error_for("""abstract type t = nat
operation zero : t
operation stray : nat -> nat
spec spec : t -> bool
let zero : nat = O
let stray (n : nat) : nat = n
let spec (c : nat) : bool = True
""")
    assert error.line == 3
    assert "does not mention the abstract type" in error.reason


def test_operation_signature_must_match_definition():
    error = error_for("""abstract type t = nat
operation zero : t
operation incr : t -> t -> t
spec spec : t -> bool
let zero : nat = O
let incr (c : nat) : nat = S c
let spec (c : nat) : bool = True
""")
    assert error.line == 3
    assert "incr" in error.reason and "definition has type" in error.reason


def test_ill_typed_operation_anchors_to_declaration():
    error = error_for("""abstract type t = nat
operation zero : t
spec spec : t -> bool
let zero : nat = O
let broken (c : nat) : nat = andb c
let spec (c : nat) : bool = True
""")
    assert error.line == 5
    assert "broken" in error.reason


def test_unknown_spec_names_line():
    error = error_for("""abstract type t = nat
operation zero : t
spec sorted : t -> bool
let zero : nat = O
""")
    assert error.line == 3
    assert "sorted" in error.reason and "not found" in error.reason


def test_spec_must_return_bool():
    error = error_for("""abstract type t = nat
operation zero : t
spec spec : t -> nat
let zero : nat = O
let spec (c : nat) : nat = c
""")
    assert error.line == 3
    assert "must return bool" in error.reason


def test_spec_must_mention_abstract_type():
    error = error_for("""abstract type t = nat
operation zero : t
spec spec : bool -> bool
let zero : nat = O
let spec (b : bool) : bool = b
""")
    assert error.line == 3


def test_unknown_component_names_line():
    error = error_for("""abstract type t = nat
operation zero : t
spec spec : t -> bool
components ghost
let zero : nat = O
let spec (c : nat) : bool = True
""")
    assert error.line == 4
    assert "ghost" in error.reason


def test_missing_spec_directive():
    error = error_for("abstract type t = nat\noperation zero : t\n"
                      "let zero : nat = O\n")
    assert "spec" in error.reason


def test_no_operations():
    error = error_for("abstract type t = nat\nspec spec : t -> bool\n"
                      "let spec (c : nat) : bool = True\n")
    assert "operation" in error.reason


def test_duplicate_operation():
    error = error_for("""abstract type t = nat
operation zero : t
operation zero : t
spec spec : t -> bool
let zero : nat = O
let spec (c : nat) : bool = True
""")
    assert error.line == 3
    assert "duplicate" in error.reason


def test_spec_defined_only_in_expected_block_rejected():
    # A copy-paste slip: the spec lives in the oracle block, which is never
    # loaded into the runnable module.  The loader must catch this, not let
    # inference crash later.
    error = error_for("""abstract type t = nat
operation zero : t
spec spec : t -> bool
let zero : nat = O
expected invariant
let spec (c : nat) : bool = True
""")
    assert "not found" in error.reason


def test_operation_defined_only_in_expected_block_rejected():
    error = error_for("""abstract type t = nat
operation zero : t
operation incr : t -> t
spec spec : t -> bool
let zero : nat = O
let spec (c : nat) : bool = True
expected invariant
let incr (c : nat) : nat = S c
""")
    assert error.line == 3
    assert "incr" in error.reason


def test_empty_expected_block():
    error = error_for("""abstract type t = nat
operation zero : t
spec spec : t -> bool
let zero : nat = O
let spec (c : nat) : bool = True
expected invariant
""")
    assert "no declarations" in error.reason


def test_directive_after_expected_block_rejected():
    error = error_for("""abstract type t = nat
operation zero : t
spec spec : t -> bool
let zero : nat = O
let spec (c : nat) : bool = True
expected invariant
let expected (c : nat) : bool = True
group late
""")
    assert error.line == 8


def test_benchmark_directive_requires_string():
    error = error_for("benchmark bare_name\n")
    assert error.line == 1
    assert "double-quoted" in error.reason


def test_errors_render_with_path_and_line():
    error = error_for("frobnicate\n", path="pack/thing.hanoi")
    assert str(error).startswith("pack/thing.hanoi:1: ")


# -- inputs too deep to parse, check or run --------------------------------

#: One declaration each, added to an example module's source.  Each used to
#: escape the loader as a raw exception: a ``RecursionError`` from the
#: parser (parentheses, applications, arrows, ``let`` chains) or from the
#: checker walking the ``S (S ...)`` tree of a literal, and a ``ValueError``
#: from ``int('²')`` (``'²'.isdigit()`` is true, so it lexes as a number).
TOO_DEEP = {
    "parentheses": "let deep (x : nat) : nat = " + "(" * 50_000 + "x" + ")" * 50_000,
    "literal": "let lit : nat = 30000",
    "huge literal": "let lit : nat = 10000000",
    "superscript literal": "let lit : nat = ²",
    "application": "let app (x : nat) : nat = nat_max " + "x " * 30_000,
    "arrows": "let f (g : " + "nat -> " * 30_000 + "nat) : nat = O",
    "let chain": "let f (x : nat) : nat = " + "let y = x in " * 30_000 + "x",
}


def with_declaration(declaration: str):
    """The bounded-stack example with ``declaration`` added to its module
    source, and the line it is on."""
    with open(os.path.join(EXAMPLES_DIR, "bounded-stack.hanoi")) as handle:
        text = handle.read()
    head, tail = text.split("\nexpected invariant\n")
    return (head + "\n" + declaration + "\n\nexpected invariant\n" + tail,
            head.count("\n") + 2)


@pytest.mark.parametrize("name", sorted(TOO_DEEP))
def test_too_deep_declaration_is_a_spec_error_at_its_line(name):
    text, line = with_declaration(TOO_DEEP[name])
    with pytest.raises(SpecFileError) as excinfo:
        load_module_text(text, path="deep.hanoi")
    assert excinfo.value.line == line


def test_nesting_up_to_the_bound_loads_and_runs():
    text, _ = with_declaration(
        "let lit : nat = 990\n"
        "let deep (x : nat) : nat = " + "(" * 990 + "x" + ")" * 990)
    program = load_module_text(text).instantiate().program
    lit = program.global_value("lit")
    assert program.call("deep", lit) == lit
