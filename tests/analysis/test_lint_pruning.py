"""HAN005 lists exactly the components the synthesizer drops.

The synthesizer's dropped set is read off the synthesizer itself: the
components of its first pool with pruning off, minus those with pruning
on.  Lint must report that set, in component order, on every built-in, on
every example module, and on a probe where only the synthesizer's
semantics drop a component: ``pop : list -> list`` in the bounded stack
returns the concrete type, which only the recursive invariant component
(added after pruning) consumes.
"""

import dataclasses
import glob
import os

import pytest

from repro.analysis.lint import analyze_definition
from repro.core.config import SynthesisBounds
from repro.experiments.runner import quick_config, run_module
from repro.spec.loader import load_module_file, load_module_text
from repro.suite.registry import all_benchmark_names, get_benchmark
from repro.synth.myth import MythSynthesizer

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
EXAMPLES = sorted(glob.glob(os.path.join(REPO, "examples", "modules", "*.hanoi")))
BOUNDED_STACK = os.path.join(REPO, "examples", "modules", "bounded-stack.hanoi")


def _probe():
    """The bounded stack with ``pop`` as its only declared component."""
    with open(BOUNDED_STACK, encoding="utf-8") as handle:
        text = handle.read()
    text = text.replace("components size, nat_leq\nhelpers within_bound\n",
                        "components pop\n")
    assert "components pop\n" in text
    return load_module_text(text)


def _dropped_by_synthesizer(definition):
    instance = definition.instantiate()

    def names(pruning):
        synthesizer = MythSynthesizer(
            instance, bounds=SynthesisBounds(component_pruning=pruning))
        return [c.name for c in synthesizer._components(frozenset())]

    kept = set(names(True))
    return tuple(name for name in names(False) if name not in kept)


def _han005(report):
    return tuple(d.decl for d in report.diagnostics if d.code == "HAN005")


@pytest.mark.parametrize(
    "name", all_benchmark_names() + EXAMPLES + ["probe"],
    ids=all_benchmark_names() + [os.path.basename(p) for p in EXAMPLES] + ["probe"])
def test_han005_is_the_synthesizers_dropped_set(name):
    if name == "probe":
        definition = _probe()
    elif name.endswith(".hanoi"):
        definition = load_module_file(name)
    else:
        definition = get_benchmark(name)
    dropped = _dropped_by_synthesizer(definition)
    report = analyze_definition(definition)
    assert report.pruned_components == dropped
    assert _han005(report) == dropped


def test_probe_drops_pop_in_lint_and_in_the_run():
    definition = _probe()
    report = analyze_definition(definition)
    assert report.pruned_components == ("pop",)
    assert _han005(report) == ("pop",)
    # With only ``pop`` the run cannot solve; its second iteration is the
    # first to synthesize, and its first pool counts the drop.
    config = dataclasses.replace(quick_config(None), max_iterations=2)
    assert run_module(definition, config=config).stats.components_pruned == 1
