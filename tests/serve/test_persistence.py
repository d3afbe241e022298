"""Warm-start transparency: disk-cached runs replay cold outcomes exactly."""

import json
import os
import subprocess
import sys

import pytest

from repro.core.config import FAST_VERIFIER_BOUNDS, HanoiConfig
from repro.experiments.runner import run_module
from repro.gen.diff import (PERSISTENCE_VARIANTS, _corrupt_store, differential,
                             outcome_fingerprint)
from repro.gen.modgen import generate_corpus
from repro.spec.loader import load_module_file, load_module_text

CONFIG = HanoiConfig(verifier_bounds=FAST_VERIFIER_BOUNDS, timeout_seconds=60)
EXAMPLE = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                       "examples", "modules", "bounded-stack.hanoi")


@pytest.fixture(scope="module")
def generated():
    return generate_corpus(7, 1)[0].definition


def test_warm_start_replays_cold_outcome_exactly(tmp_path, generated):
    persistent = CONFIG.with_cache_dir(str(tmp_path / "cache"))

    plain = run_module(generated, config=CONFIG)
    cold = run_module(generated, config=persistent)
    warm = run_module(generated, config=persistent)

    assert outcome_fingerprint(plain) == outcome_fingerprint(cold)
    assert outcome_fingerprint(cold) == outcome_fingerprint(warm)
    assert cold.stats.disk_cache_hits == 0
    assert cold.stats.disk_cache_misses > 0
    assert warm.stats.disk_cache_hits > 0
    assert warm.stats.disk_cache_misses == 0


def test_corrupted_store_degrades_to_cold_with_warnings(tmp_path, generated):
    persistent = CONFIG.with_cache_dir(str(tmp_path / "cache"))
    cold = run_module(generated, config=persistent)
    assert _corrupt_store(str(tmp_path / "cache")) > 0

    damaged = run_module(generated, config=persistent)
    assert outcome_fingerprint(damaged) == outcome_fingerprint(cold)
    assert damaged.stats.disk_cache_hits == 0
    warnings = [e for e in damaged.events
                if e.get("event") == "disk-cache-warning"]
    assert warnings, "every damaged entry must be reported, not crash"
    # The warning log is run metadata, not part of the outcome: the
    # fingerprint comparison above already proved it stays excluded.


def test_missing_store_root_is_a_plain_cold_start(tmp_path, generated):
    persistent = CONFIG.with_cache_dir(str(tmp_path / "never-created"))
    result = run_module(generated, config=persistent)
    assert result.stats.disk_cache_hits == 0
    assert result.stats.disk_cache_misses > 0
    assert not [e for e in result.events
                if e.get("event") == "disk-cache-warning"]


def test_editing_one_operation_reuses_the_rest(tmp_path):
    """The incremental workflow: edit one operation, keep the other hits."""
    text = open(EXAMPLE, encoding="utf-8").read()
    definition = load_module_file(EXAMPLE)
    persistent = CONFIG.with_cache_dir(str(tmp_path / "cache"))

    cold = run_module(definition, config=persistent)
    sections = cold.stats.disk_cache_misses
    assert sections > 2

    def rerun(old, new):
        edited_text = text.replace(old, new, 1)
        assert edited_text != text
        warm = run_module(load_module_text(edited_text, path=EXAMPLE),
                          config=persistent)
        assert warm.status == cold.status
        assert warm.render_invariant() == cold.render_invariant()
        return warm.stats

    # Only the inductiveness verdicts depend on the operation ``pop``:
    # exactly the checks section misses.
    stats = rerun("| Nil -> Nil", "| Nil -> empty")
    assert (stats.disk_cache_hits, stats.disk_cache_misses) == (sections - 1, 1)

    # The spec calls the operation ``peek``: exactly the spec and checks
    # sections miss.
    stats = rerun("| Nil -> NoneN",
                  "| Nil -> (match s with | Nil -> NoneN | Cons (a, b) -> NoneN)")
    assert (stats.disk_cache_hits, stats.disk_cache_misses) == (sections - 2, 2)


def test_disabled_persistence_records_nothing(generated):
    result = run_module(generated, config=CONFIG)
    assert result.stats.disk_cache_hits == 0
    assert result.stats.disk_cache_misses == 0


_NO_CACHE_DIR_SCRIPT = r"""
import json, sys
from repro.experiments.runner import quick_config, run_module
from repro.suite.registry import get_benchmark

result = run_module(get_benchmark("/coq/unique-list-::-set"), config=quick_config())
print(json.dumps({
    "serve_imported": "repro.serve" in sys.modules,
    "hits": result.stats.disk_cache_hits,
    "misses": result.stats.disk_cache_misses,
}))
"""


def test_disabled_persistence_never_loads_the_store():
    """Zero-cost-when-off, checked exactly: without ``cache_dir`` a run never
    imports the serve package, so it can do no disk I/O.  A fresh process,
    because anything else in the suite may have imported it already."""
    repo = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    env = dict(os.environ, PYTHONPATH=os.path.join(repo, "src"))
    proc = subprocess.run([sys.executable, "-c", _NO_CACHE_DIR_SCRIPT],
                          capture_output=True, text=True, env=env,
                          timeout=300, check=True)
    assert json.loads(proc.stdout) == {"serve_imported": False, "hits": 0, "misses": 0}


def _assert_persistence_transparent(definition):
    # Baseline modes never open the store, so the harness skips them.
    report = differential(definition, PERSISTENCE_VARIANTS,
                          modes=("hanoi", "oneshot"), config=CONFIG)
    assert report.runs == len(PERSISTENCE_VARIANTS.members)
    assert report.ok, report.describe()


@pytest.mark.fuzz
def test_differential_check_passes_on_example_module():
    _assert_persistence_transparent(load_module_file(EXAMPLE))


@pytest.mark.fuzz
def test_differential_check_passes_on_generated_corpus():
    for module in generate_corpus(3, 3):
        _assert_persistence_transparent(module.definition)
