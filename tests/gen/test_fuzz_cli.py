"""End-to-end drives of ``python -m repro fuzz``.

Each test runs the CLI in a subprocess: pack registration is per-process
global state, and the fault-injection scenario needs its environment variable
scoped to one run.  The fault test is the acceptance scenario from the issue:
an injected mismatch must fail the run *and* leave a minimal ``.hanoi``
reproducer behind.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.gen.diff import FAULT_ENV_VAR
from repro.gen.modgen import generate_corpus
from repro.spec import load_module_file

pytestmark = pytest.mark.fuzz

_REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _run_fuzz(*args, env_extra=None, timeout=600):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(_REPO, "src")
    env.pop(FAULT_ENV_VAR, None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "repro", "fuzz", *args],
        capture_output=True, text=True, env=env, cwd=_REPO, timeout=timeout)


def test_small_fuzz_run_passes(tmp_path):
    out = str(tmp_path / "fuzz-out")
    proc = _run_fuzz("--seed", "0", "--count", "2", "--modes", "hanoi",
                     "--jobs", "1", "--timeout", "90", "--out", out)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "differential fuzz ok" in proc.stdout
    corpus = sorted(os.listdir(os.path.join(out, "corpus")))
    assert len(corpus) == 2 and all(f.endswith(".hanoi") for f in corpus)
    with open(os.path.join(out, "results.jsonl"), encoding="utf-8") as handle:
        rows = [json.loads(line) for line in handle if line.strip()]
    # 2 modules x 1 mode x 4 cache variants.
    assert len(rows) == 8
    assert {row["variant"] for row in rows} == {
        "ec+pc", "ec-only", "pc-only", "no-caches"}

    # A --resume re-run finds every cell complete and still reports ok.
    again = _run_fuzz("--seed", "0", "--count", "2", "--modes", "hanoi",
                      "--jobs", "1", "--timeout", "90", "--out", out,
                      "--resume")
    assert again.returncode == 0, again.stdout + again.stderr
    assert "differential fuzz ok" in again.stdout


def test_check_persistence_cross_checks_the_disk_tier(tmp_path):
    proc = _run_fuzz("--seed", "0", "--count", "2", "--modes", "hanoi",
                     "--jobs", "1", "--check-persistence",
                     "--out", str(tmp_path / "fuzz-out"))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "cross-checking the persistent disk-cache tier" in proc.stdout
    # 2 modules x 4 cache variants, then 2 modules x 4 persistence variants.
    assert ("differential fuzz ok: 2 module(s), 16 run(s), 0 mismatch(es), "
            "0 oracle failure(s)") in proc.stdout


def test_injected_fault_is_shrunk_to_a_reproducer(tmp_path):
    out = str(tmp_path / "fuzz-out")
    corpus = generate_corpus(0, 1)
    operation = corpus[0].definition.operations[0].name

    proc = _run_fuzz("--seed", "0", "--count", "1", "--modes", "hanoi",
                     "--jobs", "1", "--timeout", "90", "--out", out,
                     "--no-oracle",
                     env_extra={FAULT_ENV_VAR: operation})
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "cache variants disagree" in proc.stdout

    reproducers = os.path.join(out, "reproducers")
    files = sorted(os.listdir(reproducers))
    assert len(files) == 1
    minimal = load_module_file(os.path.join(reproducers, files[0]))
    # The faulted operation is exactly what the shrinker must keep.
    assert any(op.name == operation for op in minimal.operations)
    assert len(minimal.operations) <= len(corpus[0].definition.operations)
    minimal.instantiate()


def test_no_shrink_skips_reproducers(tmp_path):
    out = str(tmp_path / "fuzz-out")
    corpus = generate_corpus(0, 1)
    operation = corpus[0].definition.operations[0].name
    proc = _run_fuzz("--seed", "0", "--count", "1", "--modes", "hanoi",
                     "--jobs", "1", "--timeout", "90", "--out", out,
                     "--no-oracle", "--no-shrink",
                     env_extra={FAULT_ENV_VAR: operation})
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert not os.path.isdir(os.path.join(out, "reproducers"))


def test_unknown_mode_is_a_diagnostic(tmp_path):
    proc = _run_fuzz("--modes", "frobnicate", "--count", "1",
                     "--out", str(tmp_path / "fuzz-out"))
    assert proc.returncode != 0
    assert "frobnicate" in proc.stderr
    assert "Traceback" not in proc.stderr
