"""Experiment E2: benchmarks completed versus time, per mode (Figure 8).

Figure 8 plots, for each of six modes (Hanoi, Hanoi-SRC, Hanoi-CLC, ∧Str, LA,
OneShot), how many benchmarks terminate within a given time.  This module
runs the modes over a benchmark set, collects the per-benchmark completion
times, and computes both the cumulative-completion series (the plotted
curves) and a per-mode summary (benchmarks solved, total time) so the
ordering reported in the paper - Hanoi solves the most, ∧Str and LA solve
fewer, and OneShot solves almost none - can be checked directly.
``python -m repro figure8`` prints both.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..core.config import HanoiConfig
from ..core.result import InferenceResult
from ..suite.registry import FAST_BENCHMARKS
from .report import group_by_mode, mode_summary_rows
from .runner import FIGURE8_MODES, execute_tasks, expand_tasks

__all__ = ["run_figure8", "completion_series", "mode_summary"]


def run_figure8(names: Optional[Sequence[str]] = None,
                modes: Optional[Sequence[str]] = None,
                config: Optional[HanoiConfig] = None,
                progress=None,
                execute=None,
                store=None) -> Dict[str, List[InferenceResult]]:
    """Run every requested mode over the benchmark list.

    ``execute`` lets callers swap the execution strategy: it receives the full
    task list (plus ``progress``/``store`` keyword arguments) and returns the
    results.  The default is the serial
    :func:`~repro.experiments.runner.execute_tasks`; the CLI passes
    :meth:`~repro.experiments.parallel.ParallelRunner.run` to fan the same
    tasks out over a process pool.
    """
    names = list(names if names is not None else FAST_BENCHMARKS)
    modes = list(modes if modes is not None else FIGURE8_MODES)
    tasks = expand_tasks(names, modes=modes, config=config)
    run = execute if execute is not None else execute_tasks
    results = run(tasks, progress=progress, store=store)
    grouped = group_by_mode(r for r in results if r is not None)
    # Keep the requested mode order even if results complete out of order.
    return {mode: grouped.get(mode, []) for mode in modes}


def completion_series(results: Dict[str, List[InferenceResult]]) -> Dict[str, List[float]]:
    """For each mode, the sorted list of completion times of solved benchmarks.

    The cumulative curve of Figure 8 is exactly: after ``t`` seconds the mode
    has completed ``len([x for x in series if x <= t])`` benchmarks.
    """
    series: Dict[str, List[float]] = {}
    for mode, mode_results in results.items():
        times = sorted(r.stats.total_time for r in mode_results if r.succeeded)
        series[mode] = times
    return series


def mode_summary(results: Dict[str, List[InferenceResult]]) -> List[List[object]]:
    """Summary rows: mode, solved count, total benchmarks, mean/total solve time."""
    return mode_summary_rows(results)
