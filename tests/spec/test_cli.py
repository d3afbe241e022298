"""CLI surface of the definition-file subsystem: infer, export, list
filters, and report over stored rows.

The heavier sweep paths (``run --pack`` over the pool) are covered at the
library level in ``test_pack.py``; here we drive ``repro.cli.main`` the way a
user would and check output, filters, and diagnostics-not-tracebacks.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.cli import main
from repro.core.result import InferenceResult, Status
from repro.core.stats import InferenceStats
from repro.experiments.store import ResultStore
from repro.spec import load_module_file

EXAMPLES_DIR = os.path.join(
    os.path.dirname(__file__), "..", "..", "examples", "modules")
STACK = os.path.join(EXAMPLES_DIR, "bounded-stack.hanoi")


def test_infer_example_file(capsys):
    assert main(["infer", STACK, "--timeout", "60"]) == 0
    out = capsys.readouterr().out
    assert "/examples/bounded-stack" in out
    assert "status=success" in out
    assert "within_bound" in out


def test_infer_cache_dir_warm_start_replays_every_section(tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    assert main(["infer", STACK, "--timeout", "60", "--cache-dir", cache_dir]) == 0
    assert "0 hit(s), 9 miss(es)" in capsys.readouterr().out
    assert main(["infer", STACK, "--timeout", "60", "--cache-dir", cache_dir]) == 0
    assert "9 hit(s), 0 miss(es)" in capsys.readouterr().out


def test_infer_cache_dir_reinfers_only_the_edited_operation(tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    assert main(["infer", STACK, "--timeout", "60", "--cache-dir", cache_dir]) == 0
    capsys.readouterr()
    with open(STACK) as handle:
        text = handle.read()
    # The spec calls ``peek``, so only the spec section misses.
    edited_text = text.replace(
        "| Nil -> NoneN",
        "| Nil -> (match s with | Nil -> NoneN | Cons (a, b) -> NoneN)", 1)
    assert edited_text != text
    edited = tmp_path / "edited-stack.hanoi"
    edited.write_text(edited_text)
    assert main(["infer", str(edited), "--timeout", "60",
                 "--cache-dir", cache_dir]) == 0
    assert "8 hit(s), 1 miss(es)" in capsys.readouterr().out


def test_infer_malformed_file_prints_diagnostic(tmp_path, capsys):
    path = tmp_path / "broken.hanoi"
    path.write_text("abstract type t = nat\nfrobnicate\n")
    with pytest.raises(SystemExit) as excinfo:
        main(["infer", str(path)])
    assert "broken.hanoi:2" in str(excinfo.value)


def test_export_single_benchmark_to_stdout(capsys):
    assert main(["export", "--benchmark", "/coq/unique-list-::-set"]) == 0
    out = capsys.readouterr().out
    assert 'benchmark "/coq/unique-list-::-set"' in out
    assert "abstract type t = list" in out


def test_export_all_round_trips_through_files(tmp_path, capsys):
    out_dir = str(tmp_path / "exported")
    assert main(["export", "--out", out_dir]) == 0
    files = sorted(f for f in os.listdir(out_dir) if f.endswith(".hanoi"))
    assert len(files) == 28
    # Filenames must avoid characters Windows rejects (':', '*').
    assert not any(set(f) & set(':*<>"|?') for f in files), files
    definition = load_module_file(
        os.path.join(out_dir, "coq__unique-list-..-set.hanoi"))
    assert definition.name == "/coq/unique-list-::-set"
    definition.instantiate()


def test_export_all_to_stdout_is_refused():
    with pytest.raises(SystemExit):
        main(["export"])


def test_export_unknown_benchmark():
    with pytest.raises(SystemExit):
        main(["export", "--benchmark", "/no/such"])


def test_list_group_filter(capsys):
    assert main(["list", "--group", "vfa"]) == 0
    out = capsys.readouterr().out
    assert "/vfa/bst-::-table" in out
    assert "/coq/bst-::-set*" not in out
    assert "Mode" not in out  # filtered listings skip the modes table


def test_list_fast_filter(capsys):
    assert main(["list", "--fast"]) == 0
    out = capsys.readouterr().out
    assert "/coq/unique-list-::-set" in out
    assert "/coq/bst-::-set*" not in out


def test_list_unknown_group():
    with pytest.raises(SystemExit):
        main(["list", "--group", "nope"])


def test_list_pack_adds_column(capsys):
    from repro.spec import unregister_pack

    try:
        assert main(["list", "--pack", EXAMPLES_DIR]) == 0
    finally:
        unregister_pack(EXAMPLES_DIR)
    out = capsys.readouterr().out
    assert "/examples/bounded-stack" in out
    assert "Pack" in out and "modules" in out


def test_report_renders_row_with_retired_stats_keys(tmp_path, capsys):
    # Rows stored before the static verifier tier was removed still carry
    # its three counters; loading ignores stats keys it does not know.
    path = tmp_path / "old.jsonl"
    ResultStore(str(path)).append(InferenceResult(
        benchmark="/coq/unique-list-::-set", mode="hanoi",
        status=Status.FAILURE, invariant=None,
        stats=InferenceStats(verification_calls=7), message="old row"))
    row = json.loads(path.read_text())
    row["stats"].update(static_proofs=3, static_refutations=1,
                        static_unknowns=5)
    path.write_text(json.dumps(row) + "\n")

    assert main(["report", str(path), "--csv", str(tmp_path / "old.csv")]) == 0
    out = capsys.readouterr().out
    assert "/coq/unique-list-::-set" in out
    assert "solved 0 / 1" in out
    assert (tmp_path / "old.csv").exists()


def test_infer_too_deep_file_prints_error_not_traceback(tmp_path):
    with open(STACK) as handle:
        text = handle.read()
    path = tmp_path / "deep.hanoi"
    path.write_text(text + "\nlet deep (x : nat) : nat = "
                    + "(" * 50_000 + "x" + ")" * 50_000 + "\n")
    source = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    completed = subprocess.run(
        [sys.executable, "-m", "repro", "infer", str(path)], capture_output=True,
        text=True, timeout=120, env={**os.environ, "PYTHONPATH": source})
    assert completed.returncode != 0
    assert "error:" in completed.stderr
    assert "Traceback" not in completed.stdout + completed.stderr


CONFIG_FLAGS = ["--profile", "paper", "--timeout", "5", "--no-eval-cache",
                "--no-pool-cache", "--cache-dir", "store"]


def test_config_flags_mean_the_same_for_run_figure8_and_infer():
    from repro.cli import _config_from_args, build_parser
    from repro.experiments.runner import paper_config

    parser = build_parser()
    configs = [_config_from_args(parser.parse_args(argv + CONFIG_FLAGS))
               for argv in (["run"], ["figure8"], ["infer", STACK])]
    expected = (paper_config(5).without_evaluation_caching()
                .without_synthesis_evaluation_caching().with_cache_dir("store"))
    assert configs == [expected] * 3


def test_fuzz_config_takes_only_the_profile_flags():
    from repro.cli import _config_from_args, build_parser
    from repro.experiments.runner import paper_config

    parser = build_parser()
    args = parser.parse_args(["fuzz", "--profile", "paper", "--timeout", "5"])
    assert _config_from_args(args) == paper_config(5)
    # The cache switches are what fuzz sweeps, so it does not take them.
    with pytest.raises(SystemExit):
        parser.parse_args(["fuzz", "--no-eval-cache"])
