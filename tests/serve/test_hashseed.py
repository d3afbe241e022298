"""Hash-seed independence of the persistent store.

Content keys are sha256 over rendered text and exports are sorted by value
order (the ``synth`` and ``checks`` sections by entry key), so the store a process writes
must be byte-comparable no matter what ``PYTHONHASHSEED`` it ran under -
otherwise a daemon restarted with a different seed would silently
cold-start (or worse, mix snapshots).  Each
case runs real inference in subprocesses pinned to different seeds.
"""

import json
import os
import subprocess
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

_SCRIPT = r"""
import hashlib, json, os, sys
from repro.core.config import FAST_VERIFIER_BOUNDS, HanoiConfig
from repro.experiments.runner import run_module
from repro.gen.diff import outcome_fingerprint
from repro.gen.modgen import generate_corpus

cache_dir = sys.argv[1]
config = HanoiConfig(verifier_bounds=FAST_VERIFIER_BOUNDS,
                     timeout_seconds=60).with_cache_dir(cache_dir)
definition = generate_corpus(11, 1)[0].definition
result = run_module(definition, config=config)
entries = sorted(
    os.path.relpath(os.path.join(root, name), cache_dir)
    for root, _, files in os.walk(cache_dir)
    for name in files if name.endswith(".bin"))
stored = {"synth": {}, "checks": {}}
for entry in entries:
    section = entry.split(os.sep)[1]
    if section in stored:
        with open(os.path.join(cache_dir, entry), "rb") as handle:
            stored[section][entry] = hashlib.sha256(handle.read()).hexdigest()
print(json.dumps({
    "fingerprint": outcome_fingerprint(result),
    "hits": result.stats.disk_cache_hits,
    "misses": result.stats.disk_cache_misses,
    "replays": result.stats.synthesis_replays,
    "check_replays": result.stats.inductiveness_replays,
    "entries": entries,
    "synth": stored["synth"],
    "checks": stored["checks"],
}))
"""


def _run(seed, cache_dir):
    env = dict(os.environ, PYTHONHASHSEED=str(seed),
               PYTHONPATH=os.path.join(REPO, "src"))
    proc = subprocess.run([sys.executable, "-c", _SCRIPT, str(cache_dir)],
                          capture_output=True, text=True, env=env,
                          timeout=300, check=True)
    return json.loads(proc.stdout)


@pytest.mark.parametrize("seeds", [(0, 1), (1, 42), (42, 0)])
def test_store_written_under_one_seed_warm_starts_under_another(tmp_path, seeds):
    write_seed, read_seed = seeds
    cache_dir = str(tmp_path / f"cache-{write_seed}-{read_seed}")

    cold = _run(write_seed, cache_dir)
    warm = _run(read_seed, cache_dir)

    assert cold["fingerprint"] == warm["fingerprint"]
    assert cold["hits"] == 0 and cold["misses"] > 0
    assert warm["misses"] == 0 and warm["hits"] > 0
    # Same content keys regardless of seed: the warm run re-writes the very
    # same files, never a parallel set of differently-keyed ones.
    assert cold["entries"] == warm["entries"]
    # The synthesizer's answers and the inductiveness verdicts replay under
    # the other seed too.
    assert cold["replays"] == 0 and warm["replays"] > 0
    assert cold["check_replays"] == 0 and warm["check_replays"] > 0
    assert warm["synth"] == cold["synth"]
    assert warm["checks"] == cold["checks"]


def test_all_seeds_produce_identical_entry_sets(tmp_path):
    runs = {seed: _run(seed, str(tmp_path / f"cache-{seed}"))
            for seed in (0, 1, 42)}
    entry_sets = {tuple(run["entries"]) for run in runs.values()}
    fingerprints = {json.dumps(run["fingerprint"], sort_keys=True)
                    for run in runs.values()}
    synth_bytes = {json.dumps(run["synth"], sort_keys=True) for run in runs.values()}
    checks_bytes = {json.dumps(run["checks"], sort_keys=True) for run in runs.values()}
    assert len(entry_sets) == 1
    assert len(fingerprints) == 1
    # The synth and checks sections' bytes, not only their keys, are
    # seed-independent.
    assert len(runs[0]["synth"]) == 1 and len(runs[0]["checks"]) == 1
    assert len(synth_bytes) == 1
    assert len(checks_bytes) == 1
