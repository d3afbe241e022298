"""Tests for the experiment harnesses (runner, Figure 7, Figure 8, Figure 5)."""

import pytest

from repro.core.config import FAST_VERIFIER_BOUNDS, HanoiConfig
from repro.experiments.figure5 import run_figure5, trace_lines
from repro.experiments.report import (
    FIGURE7_HEADERS as HEADERS,
    completion_series,
    figure7_rows,
    format_seconds,
    format_table,
    group_by_mode,
    mode_summary_rows,
    rows_to_csv,
)
from repro.experiments.runner import (
    FIGURE8_MODES,
    MODES,
    PROFILES,
    execute_tasks,
    expand_tasks,
    quick_config,
    run_benchmark,
)

CONFIG = HanoiConfig(verifier_bounds=FAST_VERIFIER_BOUNDS, timeout_seconds=60)
SMALL = ["/coq/unique-list-::-set", "/other/sized-list"]


def test_modes_and_profiles_registered():
    assert set(FIGURE8_MODES) <= set(MODES)
    assert "hanoi-fold" in MODES
    assert set(PROFILES) == {"quick", "paper"}
    assert quick_config(30).timeout_seconds == 30
    paper = PROFILES["paper"](None)
    assert paper.verifier_bounds.max_structures_single == 3000


def test_run_benchmark_rejects_unknown_mode():
    with pytest.raises(KeyError):
        run_benchmark("/coq/unique-list-::-set", mode="not-a-mode", config=CONFIG)


def test_figure7_rows_have_all_columns():
    results = execute_tasks(expand_tasks(SMALL, modes="hanoi", config=CONFIG))
    rows = figure7_rows(results)
    assert len(rows) == len(SMALL)
    assert all(len(row) == len(HEADERS) for row in rows)
    # The motivating example solves, so its Size column is an integer.
    assert isinstance(rows[0][3], int)
    table = format_table(HEADERS, rows)
    assert "/coq/unique-list-::-set" in table
    csv_text = rows_to_csv(HEADERS, rows)
    assert csv_text.splitlines()[0].startswith("Name,")


def test_figure8_summary_and_series():
    results = group_by_mode(execute_tasks(expand_tasks(
        ["/coq/unique-list-::-set"], modes=["hanoi", "conj-str", "oneshot"], config=CONFIG)))
    assert list(results) == ["hanoi", "conj-str", "oneshot"]
    summary = {row[0]: row for row in mode_summary_rows(results)}
    assert summary["hanoi"][1] == 1  # solved
    series = completion_series(results)
    assert len(series["hanoi"]) == 1
    assert series["hanoi"][0] > 0
    # Hanoi solves at least as many benchmarks as each baseline.
    for mode in ("conj-str", "oneshot"):
        assert summary["hanoi"][1] >= summary[mode][1]


def test_figure5_traces_show_caching_savings():
    results = run_figure5(config=CONFIG)
    assert set(results) == {"hanoi", "hanoi-clc"}
    assert all(r.succeeded for r in results.values())
    with_cache = results["hanoi"]
    without_cache = results["hanoi-clc"]
    assert with_cache.stats.verification_calls <= without_cache.stats.verification_calls
    lines = trace_lines(with_cache)
    assert any("candidate" in line for line in lines)
    assert any("success" in line for line in lines)


def test_figure5_renders_every_event_kind_golden():
    """Every event kind the inference loop logs has a rendering, pinned
    line-for-line (a kind falling through unrendered regresses silently)."""
    from repro.core.result import InferenceResult
    from repro.core.stats import InferenceStats

    events = [
        {"event": "synthesized", "candidate_size": 5},
        {"event": "synthesis-cache-hit", "candidate_size": 3},
        {"event": "sufficiency-counterexample", "candidate_size": 3,
         "added": ["(cons 1 nil)"]},
        {"event": "inductiveness-counterexample", "candidate_size": 3,
         "operation": "insert", "added": ["(cons 2 nil)"]},
        {"event": "visible-counterexample", "candidate_size": 3,
         "operation": "insert", "added": ["(cons 3 nil)"]},
        {"event": "late-visible-counterexample", "candidate_size": 3,
         "operation": "delete", "added": ["(cons 4 nil)"]},
        {"event": "synthesis-recovery", "operation": "insert",
         "added": ["(cons 5 nil)"]},
        {"event": "spec-violation", "candidate_size": 3,
         "witnesses": ["(cons 6 (cons 6 nil))"]},
        {"event": "trace-replay", "kept": 7},
        {"event": "success", "candidate_size": 9},
        {"event": "disk-cache-warning",
         "message": "persistent cache write failed", "error": "OSError()"},
    ]
    result = InferenceResult(benchmark="/test/golden", mode="hanoi",
                             status="success", invariant=None,
                             stats=InferenceStats(), events=events)

    assert trace_lines(result) == [
        "  1. candidate (size 5) from synth",
        "  2. candidate (size 3) from cache",
        "  3.   negative counterexample (sufficiency): ['(cons 1 nil)']",
        "  4.   negative counterexample (insert): ['(cons 2 nil)']",
        "  5.   positive counterexample (insert): ['(cons 3 nil)']",
        "  6.   positive counterexample, found late (delete): ['(cons 4 nil)']",
        "  7.   synthesis failed; recovered by promoting (insert): ['(cons 5 nil)']",
        "  8. specification violation witnessed by ['(cons 6 (cons 6 nil))']",
        "  9.   trace replay kept 7 negative example(s)",
        " 10. success: invariant of size 9",
        " 11. (disk cache: persistent cache write failed)",
    ]


def test_every_logged_event_kind_is_rendered():
    """`_log(...)`/`_log_to(...)`/`_weaken(...)`/`_strengthen(...)` call
    sites in the loop and `trace_lines` branches must stay in sync: a newly
    logged kind needs a rendering (and a line in the golden test above)."""
    import re

    from repro.core import hanoi
    from repro.experiments import figure5

    call = r'(?:self\._(?:log|weaken|strengthen)|_log_to)\((?:\s*\w+,)*\s*"([a-z-]+)"'
    logged = set(re.findall(call, inspect_source(hanoi)))
    assert {"disk-cache-warning", "visible-counterexample",
            "inductiveness-counterexample"} <= logged
    rendered = set(re.findall(r'kind (?:==|in) \(?"?([a-z-]+(?:", "[a-z-]+)*)"?\)?',
                              inspect_source(figure5)))
    flattened = set()
    for match in rendered:
        flattened.update(match.split('", "'))
    assert logged, "no _log call sites found (pattern rot?)"
    assert logged <= flattened, f"unrendered event kinds: {logged - flattened}"


def inspect_source(module):
    import inspect

    return inspect.getsource(module)


def test_report_formatting_helpers():
    assert format_seconds(None) == "t/o"
    assert format_seconds(1.234) == "1.2"
    table = format_table(["A", "B"], [[1, None], ["xy", 2.5]])
    assert "t/o" in table and "2.50" in table
