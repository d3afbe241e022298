"""End-to-end CLI test: `--trace` on a sweep, then `repro trace` analysis."""

import json

import pytest

from repro import cli
from repro.obs.analyze import validate_trace
from repro.obs.sinks import installed_sinks, read_trace, reset_sinks

LIST_SET_NAME = "/coq/unique-list-::-set"


@pytest.fixture(autouse=True)
def clean_registry():
    reset_sinks()
    yield
    reset_sinks()


def test_run_trace_then_analyze_and_export(tmp_path, capsys):
    trace_path = tmp_path / "trace.jsonl"
    chrome_path = tmp_path / "chrome.json"

    assert cli.main(["run", "--profile", "quick", "--jobs", "2",
                     "--benchmarks", LIST_SET_NAME, "/other/sized-list",
                     "--output", str(tmp_path / "results.jsonl"),
                     "--trace", str(trace_path)]) == 0
    # The command uninstalled its sinks and closed the file on the way out.
    assert installed_sinks() == []

    records = read_trace(str(trace_path))
    assert validate_trace(records) == []
    runs = {r["run"] for r in records if r.get("name") == "run-end"}
    assert runs == {f"{LIST_SET_NAME}/hanoi", "/other/sized-list/hanoi"}

    capsys.readouterr()
    assert cli.main(["trace", str(trace_path), "--chrome",
                     str(chrome_path)]) == 0
    out = capsys.readouterr().out
    assert "Per-phase time breakdown" in out
    assert "Cache hit rates" in out

    with open(chrome_path, encoding="utf-8") as handle:
        payload = json.load(handle)
    assert {e["args"]["name"] for e in payload["traceEvents"]
            if e["ph"] == "M"} == runs


def test_live_flag_prints_progress(tmp_path, capsys):
    assert cli.main(["run", "--profile", "quick", "--jobs", "1",
                     "--benchmarks", LIST_SET_NAME,
                     "--output", str(tmp_path / "results.jsonl"),
                     "--live"]) == 0
    err = capsys.readouterr().err
    assert f"~ {LIST_SET_NAME}/hanoi: started" in err
    assert "success after" in err
