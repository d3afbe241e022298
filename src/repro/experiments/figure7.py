"""Experiment E1: the per-benchmark results table (Figure 7 / Figure 9).

For every benchmark the paper reports: the size of the inferred invariant,
the end-to-end time, and the verification/synthesis breakdown (TVT, TVC, MVT,
TST, TSC, MST).  This module regenerates the same table with this
reproduction's Hanoi implementation and, for context, the paper's reported
invariant size (or t/o) next to ours.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..core.config import HanoiConfig
from ..core.result import InferenceResult
from ..suite.registry import FAST_BENCHMARKS
from .report import FIGURE7_HEADERS as HEADERS, figure7_rows
from .runner import run_many

__all__ = ["figure7_rows", "run_figure7", "HEADERS"]


def run_figure7(names: Optional[Sequence[str]] = None,
                config: Optional[HanoiConfig] = None) -> List[InferenceResult]:
    """Run the Hanoi mode over the given benchmarks (fast subset by default)."""
    return run_many(names if names is not None else FAST_BENCHMARKS, mode="hanoi", config=config)
