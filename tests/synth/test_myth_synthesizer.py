"""Unit tests for the Myth-like synthesizer, the term pools, the result cache,
and the fold-capable extension."""

import pytest

from repro.core.stats import InferenceStats
from repro.lang.ast import EApp, ECtor, EMatch, EVar
from repro.lang.program import Program
from repro.lang.types import TData, arrow
from repro.lang.values import nat_of_int, v_list, VCtor, VTuple
from repro.suite.common import ABSTRACT, NAT, make_definition
from repro.suite.registry import get_benchmark
from repro.synth.base import SynthesisFailure
from repro.synth.bottomup import TermPool, TypedComponent
from repro.synth.cache import SynthesisResultCache
from repro.synth.examples import ExampleOracle
from repro.synth.folds import FoldSynthesizer
from repro.synth import myth
from repro.synth.myth import MythSynthesizer


def L(*ints):
    return v_list([nat_of_int(i) for i in ints])


@pytest.fixture(scope="module")
def listset():
    return get_benchmark("/coq/unique-list-::-set").instantiate()


@pytest.fixture(scope="module")
def synthesizer(listset):
    return MythSynthesizer(listset)


def test_no_examples_yields_trivial_candidate(synthesizer):
    candidates = synthesizer.synthesize([], [])
    assert candidates
    first = candidates[0]
    assert first(L()) and first(L(1, 1)) and first(L(2, 3))


def test_candidates_are_consistent_with_examples(synthesizer):
    positives = [L(), L(3), L(0)]
    negatives = [L(1, 1), L(0, 0)]
    for candidate in synthesizer.synthesize(positives, negatives):
        assert all(candidate(p) for p in positives)
        assert all(not candidate(n) for n in negatives)


def test_recursive_no_duplicates_invariant_is_reachable(synthesizer):
    """With enough examples the no-duplicates invariant (or an equivalent
    predicate) is synthesized: it must reject duplicate lists it never saw."""
    positives = [L(), L(0), L(1), L(2), L(1, 0), L(2, 1, 0)]
    negatives = [L(1, 1), L(0, 0), L(2, 2), L(0, 1, 0), L(2, 0, 2)]
    candidates = synthesizer.synthesize(positives, negatives)
    best = candidates[0]
    assert best(L(3, 2, 1))
    assert not best(L(3, 3))


def test_synthesis_failure_when_examples_overlap(synthesizer):
    with pytest.raises(SynthesisFailure):
        synthesizer.synthesize([L(1)], [L(1)])


def test_stats_record_synthesis_calls(listset):
    stats = InferenceStats()
    synthesizer = MythSynthesizer(listset, stats=stats)
    synthesizer.synthesize([L()], [L(1, 1)])
    assert stats.synthesis_calls == 1
    assert stats.synthesis_time > 0


def test_product_concrete_type_synthesis():
    """The sized-list benchmark has a product concrete type; the synthesizer
    destructures it with a tuple pattern."""
    definition = get_benchmark("/other/sized-list")
    instance = definition.instantiate()
    synthesizer = MythSynthesizer(instance)
    good = [VTuple((nat_of_int(0), L())), VTuple((nat_of_int(1), L(2))), VTuple((nat_of_int(2), L(1, 0)))]
    bad = [VTuple((nat_of_int(1), L())), VTuple((nat_of_int(0), L(1))),
           VTuple((nat_of_int(2), L(5))), VTuple((nat_of_int(1), L(1, 2)))]
    candidates = synthesizer.synthesize(good, bad)
    best = candidates[0]
    assert best(VTuple((nat_of_int(3), L(5, 4, 3))))
    assert not best(VTuple((nat_of_int(2), L(9))))


def test_term_pool_observational_equivalence(listset):
    """Two terms with the same behaviour on the examples are deduplicated."""
    program = listset.program
    components = [
        TypedComponent("nat_eq", program.global_type("nat_eq"), program.global_value("nat_eq")),
        TypedComponent("andb", program.global_type("andb"), program.global_value("andb")),
    ]
    environments = [{"x": nat_of_int(0)}, {"x": nat_of_int(1)}]
    pool = TermPool(program, components, [("x", TData("nat"))], environments, max_size=5)
    bool_entries = pool.entries(TData("bool"))
    vectors = [entry.vector for entry in bool_entries]
    assert len(vectors) == len(set(vectors)), "behaviourally equal terms must be merged"


def test_term_pool_respects_restrictions(listset):
    program = listset.program
    lookup = TypedComponent(
        "lookup", program.global_type("lookup"), program.global_value("lookup"),
        argument_restrictions=(frozenset({"tl"}), None),
    )
    environments = [
        {"x": L(1, 1), "tl": L(1), "hd": nat_of_int(1)},
        {"x": L(0), "tl": L(), "hd": nat_of_int(0)},
    ]
    pool = TermPool(program, [lookup], [("x", TData("list")), ("tl", TData("list")), ("hd", TData("nat"))],
                    environments, max_size=5)
    exprs = [str(e.expr) for e in pool.entries(TData("bool"))]
    assert any("lookup tl" in text for text in exprs)
    assert not any("lookup x" in text for text in exprs)


def test_synthesis_result_cache_roundtrip(synthesizer):
    cache = SynthesisResultCache()
    candidates = synthesizer.synthesize([L()], [L(1, 1)])
    cache.store(candidates)
    assert len(cache) == len({c.decl for c in candidates})
    hit = cache.lookup([L()], [L(1, 1)])
    assert hit is not None
    # An inconsistent query yields no cached candidate.
    assert cache.lookup([L(1, 1)], [L()]) is None or not cache.lookup([L(1, 1)], [L()])(L())


def test_fold_synthesizer_installs_derived_components():
    definition = get_benchmark("/vfa/tree-::-priqueue*")
    instance = definition.instantiate()
    synthesizer = FoldSynthesizer(instance)
    assert instance.program.has_global("fold_max")
    assert "fold_max" in [c.name for c in synthesizer._components(frozenset())]
    leaf = VCtor("Leaf")
    node = VCtor("Node", VTuple((leaf, nat_of_int(4), leaf)))
    fold_max = instance.program.evaluator.globals["fold_max"]
    assert instance.program.apply(fold_max, node) == nat_of_int(4)
    assert instance.program.apply(fold_max, leaf) == nat_of_int(0)


# -- nullary components (regression: they were silently dropped) ------------------

_BOUNDED_COUNTER_SOURCE = """
let five : nat = S (S (S (S (S O))))

let zero : nat = O

let incr (c : nat) : nat =
  match nat_eq c five with
  | True -> c
  | False -> S c

let read (c : nat) : nat = c

let spec (c : nat) : bool = nat_leq c five
"""


def _bounded_counter():
    """A counter saturating at 5; its invariant needs the constant ``five``
    (the Peano literal for 5 has AST size 6, past the term-size bound)."""
    return make_definition(
        "/test/bounded-counter", "test", _BOUNDED_COUNTER_SOURCE,
        concrete_type=NAT,
        operations=[("zero", ABSTRACT), ("incr", arrow(ABSTRACT, ABSTRACT)),
                    ("read", arrow(ABSTRACT, NAT))],
        spec_signature=[ABSTRACT],
        components=["five"],
        expected_invariant="let expected (c : nat) : bool = nat_leq c five",
    )


def test_nullary_components_become_pool_leaves():
    program = Program.from_source("let five : nat = S (S (S (S (S O))))")
    five = TypedComponent("five", program.global_type("five"),
                          program.global_value("five"))
    nat_leq = TypedComponent("nat_leq", program.global_type("nat_leq"),
                             program.global_value("nat_leq"))
    environments = [{"x": nat_of_int(3)}, {"x": nat_of_int(6)}]
    pool = TermPool(program, [five, nat_leq], [("x", TData("nat"))],
                    environments, max_size=5)

    nat_exprs = [str(e.expr) for e in pool.entries(TData("nat"))]
    assert "five" in nat_exprs
    (leaf,) = [e for e in pool.entries(TData("nat")) if str(e.expr) == "five"]
    assert leaf.size == 1
    assert leaf.vector == (nat_of_int(5), nat_of_int(5))
    # ... and the constant participates in applications.
    bool_entries = {str(e.expr): e.vector for e in pool.entries(TData("bool"))}
    assert bool_entries["((nat_leq x) five)"] == (VCtor("True"), VCtor("False"))


def test_synthesis_reaches_invariants_needing_a_nullary_component():
    instance = _bounded_counter().instantiate()
    synthesizer = MythSynthesizer(instance)
    positives = [nat_of_int(i) for i in range(6)]
    negatives = [nat_of_int(6), nat_of_int(7)]
    candidates = synthesizer.synthesize(positives, negatives)
    best = candidates[0]
    assert "five" in best.render()
    assert best(nat_of_int(5))
    assert not best(nat_of_int(6))


def test_inference_succeeds_on_module_needing_a_nullary_component():
    from repro.core.config import FAST_VERIFIER_BOUNDS, HanoiConfig
    from repro.core.hanoi import HanoiInference

    config = HanoiConfig(verifier_bounds=FAST_VERIFIER_BOUNDS, timeout_seconds=90)
    result = HanoiInference(_bounded_counter(), config=config).infer()
    assert result.succeeded, result.message
    assert "five" in result.render_invariant()


# -- nested matches never re-destructure an already-matched scrutinee -------------


def _rematches_scrutinee(expr, matched=frozenset()):
    """True when some match in ``expr`` destructures a variable an enclosing
    match already destructured."""
    if isinstance(expr, EMatch):
        scrutinee = expr.scrutinee
        inner = matched
        if isinstance(scrutinee, EVar):
            if scrutinee.name in matched:
                return True
            inner = matched | {scrutinee.name}
        return any(_rematches_scrutinee(b.body, inner) for b in expr.branches)
    if isinstance(expr, EApp):
        return (_rematches_scrutinee(expr.fn, matched)
                or _rematches_scrutinee(expr.arg, matched))
    if isinstance(expr, ECtor):
        return expr.payload is not None and _rematches_scrutinee(expr.payload, matched)
    return False


def test_nested_matches_skip_already_matched_scrutinees(listset, monkeypatch):
    """At depth >= 3 a branch's context still contains the scrutinee the
    enclosing match destructured; re-matching it only duplicates work."""
    monkeypatch.setattr(myth, "MAX_MATCH_DEPTH", 3)
    synthesizer = MythSynthesizer(listset)
    oracle = ExampleOracle.build(
        [L(), L(1), L(2, 1), L(3, 2, 1)],
        [L(1, 1), L(2, 2, 1), L(1, 2), L(3, 1, 2)],
        listset.concrete_type, listset.program.types)
    bodies = synthesizer._candidate_bodies(oracle)
    assert bodies
    assert not any(_rematches_scrutinee(body) for body in bodies)


def test_branch_bodies_do_not_rematch_the_enclosing_scrutinee(listset, monkeypatch):
    """Simulates the branch context of ``match x with Cons (hd, tl) ->
    match tl with Cons (hd2, tl2) -> _``: the body search for the inner
    branch must not propose ``match tl with ...`` again - every routed
    example already fixed tl's constructor, so the re-match is pure
    duplication."""
    LIST = TData("list")
    monkeypatch.setattr(myth, "MAX_MATCH_DEPTH", 3)
    synthesizer = MythSynthesizer(listset)
    param = synthesizer.param
    context = ((param, LIST), ("hd", NAT), ("tl", LIST), ("hd2", NAT), ("tl2", LIST))

    def env(*ints):
        value = L(*ints)
        return {param: value, "hd": nat_of_int(ints[0]), "tl": L(*ints[1:]),
                "hd2": nat_of_int(ints[1]), "tl2": L(*ints[2:])}

    examples = [(env(2, 1), True), (env(3, 2, 1), True),
                (env(1, 1), False), (env(2, 2, 1), False)]
    oracle = ExampleOracle.build(
        [L(2, 1), L(3, 2, 1)], [L(1, 1), L(2, 2, 1)],
        listset.concrete_type, listset.program.types)
    # _candidate_bodies normally installs the oracle's interpreting
    # function for the duration of a synthesize() call; mirror that here.
    from repro.lang.values import VNative, v_bool
    synthesizer._MythSynthesizer__recursive_fn = VNative(
        lambda value: v_bool(oracle.expected(value)), name="inv")

    bodies = synthesizer._branch_bodies(
        context, examples, frozenset(), oracle, depth=2,
        matched=frozenset({param, "tl"}))
    assert bodies
    rematched = [body for body in bodies
                 if isinstance(body, EMatch)
                 and isinstance(body.scrutinee, EVar)
                 and body.scrutinee.name in (param, "tl")]
    assert rematched == []
