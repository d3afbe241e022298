"""Golden verdicts and transfer soundness for the abstract interpreter.

Two layers of guarantees are pinned here:

* **Golden verdicts** - on the motivating ListSet benchmark, the static
  tier's PROVEN / REFUTED / UNKNOWN / TRIVIAL verdicts per operation are
  exact expectations, so any transfer-function regression that changes a
  verdict (even soundly, by losing precision on a previously proven
  obligation) is caught immediately.
* **Transfer soundness** - for every operation of generator-minted modules
  (all five :mod:`repro.gen.modgen` families), abstractly applying the
  operation to ``alpha``-abstracted inputs must produce an abstract value
  containing the concrete result: ``leq(alpha(f(v)), absint(f)(alpha(v)))``.
  The property runs in-process and, marked ``absint``, as subprocesses
  pinned to three ``PYTHONHASHSEED`` values (set/dict iteration order must
  not affect verdicts).
"""

import os
import subprocess
import sys
import textwrap

import pytest

from repro.analysis.absint import (
    PROVEN,
    REFUTED,
    TRIVIAL,
    UNKNOWN,
    AbstractChecker,
)
from repro.core.predicate import Predicate, always_true
from repro.lang.ast import ECtor
from repro.spec.loader import load_module_text

LIST_SET_NAME = "/coq/unique-list-::-set"

#: In-process transfer-soundness sweep; also executed as a subprocess under
#: pinned hash seeds.  Prints one line: ``checked=<n> violations=<n>``
#: followed by a deterministic digest of every verdict it computed.
SOUNDNESS_SCRIPT = textwrap.dedent("""
    import hashlib
    import itertools

    from repro.analysis.absint import AbstractInterpreter, AbstractChecker
    from repro.analysis.domains import alpha, leq
    from repro.core.predicate import always_true
    from repro.enumeration.values import ValueEnumerator
    from repro.gen.modgen import generate_corpus
    from repro.lang.errors import LangError
    from repro.lang.types import TArrow, substitute_abstract

    checked = violations = 0
    verdict_digest = hashlib.sha256()
    for module in generate_corpus(seed=11, count=15):
        instance = module.definition.instantiate()
        env = instance.program.types
        interp = AbstractInterpreter(instance.program)
        enumerator = ValueEnumerator(env)
        for operation in instance.operations:
            arg_types = [substitute_abstract(t, instance.concrete_type)
                         for t in operation.argument_types]
            if any(isinstance(t, TArrow) for t in arg_types):
                continue
            pools = [list(enumerator.enumerate(t, max_size=5, max_count=4))
                     for t in arg_types]
            for args in itertools.islice(itertools.product(*pools), 48):
                abstract = interp.call_function(
                    operation.name, tuple(alpha(a, env) for a in args))
                checked += 1
                try:
                    concrete = instance.program.call(operation.name, *args)
                except LangError:
                    if not abstract.may_fail:
                        violations += 1
                    continue
                if not leq(alpha(concrete, env), abstract.value):
                    violations += 1
        checker = AbstractChecker(instance.program, module.definition)
        q = always_true(instance.concrete_type, instance.program)
        top = checker.abstract_input()
        for operation in sorted(instance.operations, key=lambda op: op.name):
            verdict = checker.operation_verdict(operation, q.decl, top)
            verdict_digest.update(
                f"{module.name}:{operation.name}={verdict};".encode())
    print(f"checked={checked} violations={violations}")
    print(verdict_digest.hexdigest())
""")

HAN006_MODULE = """
benchmark "/test/han006-dup"
group testing

abstract type t = list

operation empty : t
operation dup : t -> t

type list = Nil | Cons of nat * list

let empty : list = Nil

let dup (s : list) : list = Cons (O, s)

spec wf : t -> bool

let wf (s : list) : bool = True

expected invariant
let inv (s : list) : bool =
  match s with
  | Nil -> True
  | Cons p -> False
"""


# -- golden verdicts on the motivating benchmark ----------------------------------


@pytest.fixture(scope="module")
def listset_checker(listset_definition, listset_instance):
    return AbstractChecker(listset_instance.program, listset_definition)


def _verdicts(checker, q):
    """Each operation's ``operation_verdict`` for candidate ``q``."""
    top = checker.abstract_input()
    return {operation.name: checker.operation_verdict(operation, q.decl, top)
            for operation in checker.definition.operations}


def test_listset_always_true_verdicts(listset_checker, listset_instance):
    q = always_true(listset_instance.concrete_type, listset_instance.program)
    assert _verdicts(listset_checker, q) == {
        "empty": PROVEN,
        "insert": PROVEN,
        "delete": PROVEN,
        "lookup": TRIVIAL,
    }


def test_listset_oracle_verdicts(listset_checker, listset_definition,
                                 listset_instance):
    oracle = Predicate.from_source(listset_definition.expected_invariant,
                                   listset_instance.program)
    assert _verdicts(listset_checker, oracle) == {
        "empty": PROVEN,       # expected Nil = True, statically
        "insert": UNKNOWN,     # needs the no-duplicates relational fact
        "delete": UNKNOWN,
        "lookup": TRIVIAL,     # produces no abstract value
    }


def test_listset_false_candidate_is_refuted(listset_checker, listset_instance):
    false = Predicate.from_body(ECtor("False"), "x",
                                listset_instance.concrete_type,
                                listset_instance.program, recursive=False)
    verdicts = _verdicts(listset_checker, false)
    assert verdicts["empty"] == REFUTED
    assert verdicts["insert"] == REFUTED
    assert verdicts["delete"] == REFUTED
    assert verdicts["lookup"] == TRIVIAL


def test_abstract_application_contains_concrete_results(listset_instance,
                                                        listv):
    from repro.analysis.absint import AbstractInterpreter
    from repro.analysis.domains import alpha, leq
    from repro.lang.values import nat_of_int

    env = listset_instance.program.types
    interp = AbstractInterpreter(listset_instance.program)
    for values in ([], [1], [3, 1], [2, 0, 4]):
        for x in range(3):
            args = (listv(*values), nat_of_int(x))
            result = interp.call_function(
                "insert", tuple(alpha(a, env) for a in args))
            concrete = listset_instance.program.call("insert", *args)
            assert result.value is not None
            assert leq(alpha(concrete, env), result.value)


# -- HAN006: statically disproven invariants --------------------------------------


def test_han006_fires_on_statically_violating_operation():
    from repro.analysis.lint import analyze_definition

    definition = load_module_text(HAN006_MODULE, path="<han006>")
    report = analyze_definition(definition)
    findings = [d for d in report.diagnostics if d.code == "HAN006"]
    assert [d.decl for d in findings] == ["dup"]
    assert "statically proven" in findings[0].message


def test_han006_silent_on_clean_modules(listset_definition):
    from repro.analysis.lint import analyze_definition

    report = analyze_definition(listset_definition)
    assert not [d for d in report.diagnostics if d.code == "HAN006"]


# -- transfer soundness over generated modules ------------------------------------


def _run_soundness(hash_seed=None):
    env = dict(os.environ)
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = hash_seed
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", SOUNDNESS_SCRIPT],
                          env=env, check=True, timeout=600,
                          capture_output=True, text=True)
    summary, digest = proc.stdout.strip().splitlines()
    return summary, digest


def test_transfers_over_approximate_concrete_eval():
    summary, _ = _run_soundness()
    checked, violations = (int(part.split("=")[1])
                           for part in summary.split())
    assert checked > 200
    assert violations == 0


@pytest.mark.absint
@pytest.mark.parametrize("hash_seed", ["0", "1", "42"])
def test_soundness_and_verdicts_stable_across_hash_seeds(hash_seed):
    reference_summary, reference_digest = _run_soundness()
    summary, digest = _run_soundness(hash_seed)
    assert summary == reference_summary
    assert "violations=0" in summary
    assert digest == reference_digest
