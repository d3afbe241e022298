"""Plain-text and CSV rendering of experiment results.

This module owns every presentation concern of the harness: the fixed-width
tables of the paper's Figure 7, the per-mode summary of Figure 8, and the CSV
exports.  It renders :class:`~repro.core.result.InferenceResult` objects
regardless of where they came from - a live serial run, the parallel runner,
or a JSONL file loaded through :class:`~repro.experiments.store.ResultStore` -
which is what lets ``python -m repro report results.jsonl`` regenerate the
tables of a sweep long after it finished.
"""

from __future__ import annotations

import csv
import io
from typing import Dict, Iterable, List, Optional, Sequence

from ..core.result import InferenceResult
from ..suite.registry import PAPER_RESULTS

__all__ = [
    "FIGURE7_HEADERS",
    "MODE_SUMMARY_HEADERS",
    "format_table",
    "rows_to_csv",
    "format_seconds",
    "figure7_rows",
    "group_by_mode",
    "mode_summary_rows",
    "render_results",
]

#: Column headers of the per-benchmark results table (the paper's Figure 7,
#: extended with the evaluation-cache and pool-cache hit/miss counters of
#: this reproduction.
FIGURE7_HEADERS = ["Name", "Paper", "Status", "Size", "Time (s)", "TVT (s)", "TVC", "MVT (s)",
                   "TST (s)", "TSC", "MST (s)", "EvC hit", "EvC miss",
                   "PoC hit", "PoC miss"]

#: Column headers of the per-mode summary table (the shape of Figure 8).
MODE_SUMMARY_HEADERS = ["Mode", "Solved", "Benchmarks", "Mean solve time (s)", "Total time (s)"]


def format_seconds(value: Optional[float]) -> str:
    """Seconds with one decimal, ``t/o`` for None (timeout / not applicable)."""
    if value is None:
        return "t/o"
    return f"{value:.1f}"


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """A fixed-width text table (the style of the paper's Figure 7)."""
    rendered_rows: List[List[str]] = [[_cell(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def line(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(width) for cell, width in zip(cells, widths)).rstrip()

    output = [line(headers), line(["-" * w for w in widths])]
    output.extend(line(row) for row in rendered_rows)
    return "\n".join(output)


def rows_to_csv(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """The same rows as CSV text (for saving alongside the paper's tables)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(headers)
    for row in rows:
        writer.writerow([_cell(v) for v in row])
    return buffer.getvalue()


def _cell(value: object) -> str:
    if value is None:
        return "t/o"
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


# -- result-table construction ---------------------------------------------------


def figure7_rows(results: Iterable[InferenceResult]) -> List[List[object]]:
    """Convert inference results into Figure-7 table rows."""
    rows: List[List[object]] = []
    for result in results:
        stats = result.stats
        paper_size = PAPER_RESULTS.get(result.benchmark, "?")
        rows.append([
            result.benchmark,
            paper_size if paper_size is not None else None,
            result.status,
            result.invariant_size,
            stats.total_time,
            stats.verification_time,
            stats.verification_calls,
            stats.mean_verification_time,
            stats.synthesis_time,
            stats.synthesis_calls,
            stats.mean_synthesis_time,
            stats.eval_cache_hits,
            stats.eval_cache_misses,
            stats.pool_cache_hits,
            stats.pool_cache_misses,
        ])
    return rows


def group_by_mode(results: Iterable[InferenceResult]) -> Dict[str, List[InferenceResult]]:
    """Partition a flat result list by mode, preserving encounter order."""
    grouped: Dict[str, List[InferenceResult]] = {}
    for result in results:
        grouped.setdefault(result.mode, []).append(result)
    return grouped


def mode_summary_rows(grouped: Dict[str, List[InferenceResult]]) -> List[List[object]]:
    """Summary rows: mode, solved count, total benchmarks, mean/total solve time."""
    rows: List[List[object]] = []
    for mode, mode_results in grouped.items():
        solved = [r for r in mode_results if r.succeeded]
        total_time = sum(r.stats.total_time for r in mode_results)
        mean_time = (sum(r.stats.total_time for r in solved) / len(solved)) if solved else None
        rows.append([mode, len(solved), len(mode_results), mean_time, total_time])
    return rows


def render_results(results: Sequence[InferenceResult]) -> str:
    """The full text report of a sweep: one Figure-7 table per mode, then the
    per-mode summary when more than one mode was run."""
    grouped = group_by_mode(results)
    sections: List[str] = []
    for mode, mode_results in grouped.items():
        sections.append(f"=== mode: {mode} ({len(mode_results)} benchmarks) ===")
        sections.append(format_table(FIGURE7_HEADERS, figure7_rows(mode_results)))
        sections.append("")
    if len(grouped) > 1:
        sections.append("=== per-mode summary (Figure 8) ===")
        sections.append(format_table(MODE_SUMMARY_HEADERS, mode_summary_rows(grouped)))
        sections.append("")
    return "\n".join(sections).rstrip() + "\n"
