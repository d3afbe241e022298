"""Experiment harnesses that regenerate the paper's tables and figures.

* :mod:`repro.experiments.runner` - the mode table (``MODES``), the shared
  task model (``ExperimentTask``, ``expand_tasks``, ``execute_tasks``) and
  the serial execution path.
* :mod:`repro.experiments.parallel` - the multiprocessing pool with hard
  per-task timeouts (``ParallelRunner``).
* :mod:`repro.experiments.store` - append-only JSONL persistence with resume
  support (``ResultStore``).
* :mod:`repro.experiments.report` - the Figure-7 / Figure-8 tables and the
  Figure-8 completion series.
* :mod:`repro.experiments.figure5` - counterexample-list-caching traces.
"""

from .figure5 import run_figure5, trace_lines
from .parallel import ParallelRunner
from .report import (
    FIGURE7_HEADERS,
    MODE_SUMMARY_HEADERS,
    completion_series,
    figure7_rows,
    format_table,
    group_by_mode,
    mode_summary_rows,
    render_results,
    rows_to_csv,
)
from .runner import (
    FIGURE8_MODES,
    MODES,
    PROFILES,
    ExperimentTask,
    execute_task,
    execute_tasks,
    expand_tasks,
    paper_config,
    quick_config,
    run_benchmark,
    run_module,
)
from .store import ResultStore

__all__ = [
    # task model and serial runner
    "ExperimentTask",
    "expand_tasks",
    "execute_task",
    "execute_tasks",
    "run_module",
    "run_benchmark",
    "MODES",
    "FIGURE8_MODES",
    "PROFILES",
    "quick_config",
    "paper_config",
    # parallel runner and persistence
    "ParallelRunner",
    "ResultStore",
    # figures
    "run_figure5",
    "trace_lines",
    # reporting
    "FIGURE7_HEADERS",
    "figure7_rows",
    "completion_series",
    "MODE_SUMMARY_HEADERS",
    "format_table",
    "rows_to_csv",
    "group_by_mode",
    "mode_summary_rows",
    "render_results",
]
