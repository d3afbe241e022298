"""Experiment E3: counterexample-list-caching traces (Figures 5 and 6).

Figures 5 and 6 illustrate how the counterexample list cache lets Hanoi skip
re-synthesizing and re-verifying candidates after a new positive example is
found.  This module runs the motivating ListSet benchmark twice - with and
without counterexample list caching - and prints the event traces
(synthesized candidate, counterexample added, trace replayed) together with
the verification/synthesis call counts, so the effect of the optimization can
be read off directly.

Run as a module::

    python -m repro.experiments.figure5
"""

from __future__ import annotations

import argparse
from typing import Dict, List, Optional, Sequence

from ..core.config import HanoiConfig
from ..core.result import InferenceResult
from .report import format_table
from .runner import PROFILES, run_benchmark

__all__ = ["run_figure5", "trace_lines", "main"]

#: The benchmark used for the illustration (the paper's running example).
TRACE_BENCHMARK = "/coq/unique-list-::-set"


def run_figure5(config: Optional[HanoiConfig] = None,
                benchmark: str = TRACE_BENCHMARK) -> Dict[str, InferenceResult]:
    """Run the trace benchmark with and without counterexample list caching."""
    return {
        "hanoi": run_benchmark(benchmark, mode="hanoi", config=config),
        "hanoi-clc": run_benchmark(benchmark, mode="hanoi-clc", config=config),
    }


def trace_lines(result: InferenceResult) -> List[str]:
    """Render an inference event log as the paper's trace illustrations."""
    lines: List[str] = []
    for index, event in enumerate(result.events, start=1):
        kind = event.get("event")
        size = event.get("candidate_size")
        if kind in ("synthesized", "synthesis-cache-hit"):
            origin = "cache" if kind == "synthesis-cache-hit" else "synth"
            lines.append(f"{index:3d}. candidate (size {size}) from {origin}")
        elif kind == "sufficiency-counterexample":
            lines.append(f"{index:3d}.   negative counterexample (sufficiency): {event.get('added')}")
        elif kind == "inductiveness-counterexample":
            lines.append(f"{index:3d}.   negative counterexample ({event.get('operation')}): "
                         f"{event.get('added')}")
        elif kind == "visible-counterexample":
            lines.append(f"{index:3d}.   positive counterexample ({event.get('operation')}): "
                         f"{event.get('added')}")
        elif kind == "late-visible-counterexample":
            lines.append(f"{index:3d}.   positive counterexample, found late "
                         f"({event.get('operation')}): {event.get('added')}")
        elif kind == "synthesis-recovery":
            lines.append(f"{index:3d}.   synthesis failed; recovered by promoting "
                         f"({event.get('operation')}): {event.get('added')}")
        elif kind == "spec-violation":
            lines.append(f"{index:3d}. specification violation witnessed by "
                         f"{event.get('witnesses')}")
        elif kind == "trace-replay":
            lines.append(f"{index:3d}.   trace replay kept {event.get('kept')} negative example(s)")
        elif kind == "success":
            lines.append(f"{index:3d}. success: invariant of size {size}")
        elif kind == "disk-cache-warning":
            lines.append(f"{index:3d}. (disk cache: {event.get('message')})")
    return lines


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--profile", choices=sorted(PROFILES), default="quick")
    parser.add_argument("--benchmark", default=TRACE_BENCHMARK)
    args = parser.parse_args(argv)
    config = PROFILES[args.profile]()

    results = run_figure5(config=config, benchmark=args.benchmark)

    for mode, result in results.items():
        label = ("with counterexample list caching" if mode == "hanoi"
                 else "without counterexample list caching")
        print(f"\n=== {args.benchmark} {label} ===")
        for line in trace_lines(result):
            print(line)

    rows: List[List[object]] = []
    for mode, result in results.items():
        rows.append([
            mode,
            result.status,
            result.stats.synthesis_calls,
            result.stats.verification_calls,
            result.stats.synthesis_cache_hits,
            result.stats.trace_replays,
            result.stats.total_time,
        ])
    print("\nCall counts (the savings illustrated by Figures 5-6):")
    print(format_table(
        ["Mode", "Status", "Synth calls", "Verify calls", "Cache hits", "Trace replays", "Time (s)"],
        rows,
    ))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via the CLI
    raise SystemExit(main())
