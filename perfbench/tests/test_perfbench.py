"""Tests of the benchmark's own machinery: wrappers, corpus seeding, counts."""

import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
for path in (ROOT, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

from perfbench import workloads  # noqa: E402
from perfbench.compare import compare, most_moved_layer  # noqa: E402
from perfbench.layers import Tracer, layer_metrics  # noqa: E402

FAST = ("/other/sized-list", "/coq/unique-list-::-set")


@pytest.fixture(scope="module")
def fast_inputs():
    return [item for item in workloads.builtin_inputs() if item.label in FAST]


def _traced_pass(inputs):
    tracer = Tracer()
    with tracer:
        run = workloads.run_pass(inputs, workloads.quick_config())
    return tracer, run


def test_wrapper_bookkeeping(fast_inputs):
    from repro.lang.eval import Evaluator
    from repro.spec import loader

    originals = (Evaluator.__dict__["apply"], loader.load_module_text)
    untraced = workloads.run_pass(fast_inputs, workloads.quick_config())
    tracer, traced = _traced_pass(fast_inputs)

    assert (Evaluator.__dict__["apply"], loader.load_module_text) == originals
    assert traced.fingerprints == untraced.fingerprints
    stats = [result.stats for result in traced.results]
    counts = tracer.counts
    assert counts["spec.loads"] == len(fast_inputs)
    assert counts["synth.calls"] == sum(s.synthesis_calls for s in stats)
    assert (counts["verify.calls"] + counts["inductive.visible_checks"]
            + counts["inductive.full_checks"]) == sum(s.verification_calls for s in stats)
    assert counts["inductive.visible_checks"] >= sum(r.iterations for r in traced.results) - 1
    assert counts["lang.calls"] > 0 and counts["lang.steps"] > counts["lang.calls"]
    assert counts["synth.pools"] > 0 and counts["enumeration.values"] > 0
    assert all(seconds >= 0 for seconds in tracer.self_s.values())
    assert 0 < tracer.total_self_s() <= traced.wall_s

    metrics = layer_metrics(tracer, traced.results, traced.wall_s, untraced.wall_s)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert list(metrics) == [entry["name"] for entry in spec["per_layer"]]
    assert metrics["unattributed_s"] >= 0
    assert metrics["core.iterations"] == sum(r.iterations for r in traced.results)


def test_lang_steps_repeat_exactly(fast_inputs):
    first, _ = _traced_pass(fast_inputs)
    second, _ = _traced_pass(fast_inputs)
    assert first.counts["lang.steps"] > 0
    assert first.counts["lang.steps"] == second.counts["lang.steps"]
    assert first.counts["lang.calls"] == second.counts["lang.calls"]


def test_calibrated_pass_times_a_yardstick_per_module(fast_inputs):
    from perfbench.run import _normalized

    plain = workloads.run_pass(fast_inputs, workloads.quick_config())
    run = workloads.run_pass(fast_inputs, workloads.quick_config(), calibrated=True)
    assert plain.calibrations == []
    assert len(run.calibrations) == len(fast_inputs)
    assert all(seconds > 0 for seconds in run.calibrations)
    assert run.fingerprints == plain.fingerprints
    norm = _normalized(run)
    assert len(norm) == len(fast_inputs) and all(value > 0 for value in norm)


def test_corpus_seed_changes_digest():
    pool = workloads.corpus_pool()
    one = workloads.corpus_modules(1, pool)
    assert [m.name for m in one] == [m.name for m in workloads.corpus_modules(1, pool)]
    two = workloads.corpus_modules(2, pool)
    assert workloads.corpus_digest(one) != workloads.corpus_digest(two)
    families = [sorted(m.family for m in corpus) for corpus in (one, two)]
    assert families[0] == families[1]
    assert abs(len(one) - workloads.CORPUS_SIZE) <= 2
    reference = workloads.load_reference()
    assert all(module.name in reference for module in pool)


def test_compare_names_the_moved_layer():
    base = {"lang.self_s": 10.0, "synth.self_s": 2.0, "synth.pools": 100,
            "verify.eval_cache_hit_ratio": 0.5}
    head = {"lang.self_s": 10.1, "synth.self_s": 3.0, "synth.pools": 100,
            "verify.eval_cache_hit_ratio": 0.1}
    assert most_moved_layer(base, head)[:2] == ("synth", "synth.self_s")

    def record(trace, wall, lang):
        metrics = ({"lang.self_s": lang} if trace
                   else {"wall_norm": wall, "module_p50_norm": wall, "module_p90_norm": wall})
        return {"workload": "builtins-quick", "trace": trace, "metrics": metrics,
                "module_norm": [["m", wall]]}

    spec = {"end_to_end": [{"name": "wall_norm", "unit": "cal", "better": "lower",
                            "bound": 0.1}]}
    lines = compare([record(0, 1.0, 1.0), record(1, 0, 1.0)],
                    [record(0, 1.5, 1.0), record(1, 0, 1.4)], spec)
    assert "REGRESSED" in lines[1]
    assert "most moved layer: lang" in lines[2]
