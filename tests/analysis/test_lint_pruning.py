"""The synthesizer pools every declared component; HAN005 only advises.

``interface_components`` lists a module's first-order components and the
ones type-inhabitation reachability proves no goal term can use.  The
synthesizer's first pool must hold exactly that list, with nothing dropped,
and lint's HAN005 must name exactly the unusable part, in component order,
on every built-in, on every example module, and on a probe:
``pop : list -> list`` in the bounded stack returns the concrete type,
which only the recursive invariant component (not among the listed
components) consumes.
"""

import glob
import os

import pytest

from repro.analysis.lint import analyze_definition
from repro.spec.loader import load_module_file, load_module_text
from repro.suite.registry import all_benchmark_names, get_benchmark
from repro.synth.myth import MythSynthesizer, interface_components

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
EXAMPLES = sorted(glob.glob(os.path.join(REPO, "examples", "modules", "*.hanoi")))
BOUNDED_STACK = os.path.join(REPO, "examples", "modules", "bounded-stack.hanoi")

NAMES = all_benchmark_names() + EXAMPLES + ["probe"]
IDS = all_benchmark_names() + [os.path.basename(p) for p in EXAMPLES] + ["probe"]


def _probe():
    """The bounded stack with ``pop`` as its only declared component."""
    with open(BOUNDED_STACK, encoding="utf-8") as handle:
        text = handle.read()
    text = text.replace("components size, nat_leq\nhelpers within_bound\n",
                        "components pop\n")
    assert "components pop\n" in text
    return load_module_text(text)


def _definition(name):
    if name == "probe":
        return _probe()
    if name.endswith(".hanoi"):
        return load_module_file(name)
    return get_benchmark(name)


def _interface(definition):
    """The synthesizer's first-pool component names, interface_components'
    names, and the names it proves unusable (in component order)."""
    instance = definition.instantiate()
    pooled = [c.name for c in MythSynthesizer(instance)._components(frozenset())]
    components, unusable = interface_components(instance.program, definition)
    listed = [c.name for c in components]
    return pooled, listed, tuple(name for name in listed if name in unusable)


def _han005(report):
    return tuple(d.decl for d in report.diagnostics if d.code == "HAN005")


@pytest.mark.parametrize("name", NAMES, ids=IDS)
def test_synthesizer_pools_every_interface_component(name):
    pooled, listed, _ = _interface(_definition(name))
    assert pooled == listed


@pytest.mark.parametrize("name", NAMES, ids=IDS)
def test_han005_names_the_unusable_set(name):
    definition = _definition(name)
    _, _, unusable = _interface(definition)
    assert _han005(analyze_definition(definition)) == unusable


def test_probe_reports_pop_and_keeps_it():
    definition = _probe()
    assert _han005(analyze_definition(definition)) == ("pop",)
    pooled, _, _ = _interface(definition)
    assert "pop" in pooled
