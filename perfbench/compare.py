"""Compare two benchmark result files and name the layer that moved most.

Usage (from the repository root)::

    python3 perfbench/run.py --workload builtins-quick --seed 1 --seconds 20 \\
        --trace 0 --out base.jsonl        # repeat per seed, and with --trace 1
    python3 perfbench/compare.py base.jsonl head.jsonl

Each file holds the records ``run.py --out`` appends, any number of runs of
any workloads.  Per workload, every end-to-end metric is the median over the
file's untraced runs, except the module latency percentiles, which are taken
over the module latencies (in yardstick units) of every pass of all those
runs pooled (the sample count is printed).  A metric worse than its
``BENCHMARK.json`` bound is flagged.  The per-layer metrics are medians over
the traced runs; the layer whose self time or work count changed most,
relative to the base, is named together with the end-to-end metric that
layer is expected to move.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import sys
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

from perfbench import WORKLOADS  # noqa: E402
from perfbench.layers import LAYERS  # noqa: E402

POOLED = {"module_p50_norm": 50, "module_p90_norm": 90}


def load_records(path: str) -> List[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def summarize(records: List[dict], workload: str) -> Tuple[Dict[str, float], Dict[str, float], int]:
    """(end-to-end medians, per-layer medians, pooled latency samples)."""
    untraced = [r for r in records if r["workload"] == workload and not r["trace"]]
    traced = [r for r in records if r["workload"] == workload and r["trace"]]
    end_to_end: Dict[str, float] = {}
    latencies = [norm for r in untraced for _, norm in r["module_norm"]]
    for name in sorted({name for r in untraced for name in r["metrics"]}):
        if name in POOLED and len(latencies) >= 2:
            end_to_end[name] = statistics.quantiles(
                latencies, n=100, method="inclusive")[POOLED[name] - 1]
        else:
            end_to_end[name] = statistics.median(r["metrics"][name] for r in untraced)
    per_layer = {name: statistics.median(r["metrics"][name] for r in traced)
                 for name in sorted({name for r in traced for name in r["metrics"]})}
    return end_to_end, per_layer, len(latencies)


def relative(base: float, head: float) -> float:
    if base == head:
        return 0.0
    if base == 0:
        return math.inf if head > 0 else -math.inf
    return (head - base) / abs(base)


def _percent(change: float) -> str:
    return f"{change:+.1%}" if math.isfinite(change) else ("+inf" if change > 0 else "-inf")


def most_moved_layer(base: Dict[str, float],
                     head: Dict[str, float]) -> Optional[Tuple[str, str, float]]:
    """(layer, metric, relative change) with the largest absolute change
    among each layer's self times and work counts."""
    best = None
    layer_names = {layer.name for layer in LAYERS}
    for name in sorted(set(base) & set(head)):
        layer = name.split(".")[0]
        if layer not in layer_names or name.endswith("_ratio"):
            continue
        change = relative(base[name], head[name])
        if best is None or abs(change) > abs(best[2]):
            best = (layer, name, change)
    return best


def compare(base_records: List[dict], head_records: List[dict], spec: dict) -> List[str]:
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    lines: List[str] = []
    seen = {r["workload"] for r in base_records} & {r["workload"] for r in head_records}
    for workload in [w for w in WORKLOADS if w in seen]:
        base_e2e, base_layers, base_n = summarize(base_records, workload)
        head_e2e, head_layers, head_n = summarize(head_records, workload)
        lines.append(f"== {workload} (module samples: base {base_n}, head {head_n})")
        for name, meta in bounds.items():
            if name not in base_e2e or name not in head_e2e:
                continue
            change = relative(base_e2e[name], head_e2e[name])
            worse = -change if meta["better"] == "higher" else change
            flag = "  REGRESSED" if worse > meta["bound"] else ""
            lines.append(f"  {name:18s} {base_e2e[name]:14.6g} -> {head_e2e[name]:14.6g} "
                         f"{meta['unit']:6s} {_percent(change):>8s} "
                         f"(bound {meta['bound']:.0%}){flag}")
        moved = most_moved_layer(base_layers, head_layers)
        if moved is None:
            lines.append("  no traced runs on both sides: layers not compared")
            continue
        layer, metric, change = moved
        expected = next(l.moves for l in LAYERS if l.name == layer)
        lines.append(f"  most moved layer: {layer} ({metric} {base_layers[metric]:.6g} -> "
                     f"{head_layers[metric]:.6g}, {_percent(change)}); "
                     f"it should move {expected}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("head")
    args = parser.parse_args(argv)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    lines = compare(load_records(args.base), load_records(args.head), spec)
    if not lines:
        print("no workload appears in both files", file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
