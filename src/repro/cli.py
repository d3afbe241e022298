"""The ``python -m repro`` command-line interface.

Nine subcommands drive the reproduction:

``run``
    Execute a benchmark sweep - by default the fast subset under the Hanoi
    mode - over a multiprocessing pool, persisting every result to JSONL as it
    completes.  ``--resume`` skips ``(benchmark, mode)`` pairs already present
    in the output file, so an interrupted sweep picks up where it left off.
    ``--pack DIR`` registers a directory of ``.hanoi`` benchmark definition
    files first and tags the stored results with the pack name.

``list``
    Enumerate the registered benchmarks (with group and the paper's reported
    invariant size) and the available inference modes; ``--group`` / ``--fast``
    filter the benchmark table, ``--pack DIR`` includes a benchmark pack.

``infer``
    Load one ``.hanoi`` benchmark definition file and run invariant inference
    on it, printing the inferred invariant.

``export``
    Render registered benchmarks (all 28 by default) as ``.hanoi`` files, one
    per benchmark, so they can be edited and re-run as user scenarios.

``report``
    Re-render the Figure-7-style tables (and optionally CSV) from a stored
    JSONL file, without re-running anything.

``figure8``
    The full mode-comparison sweep of Figure 8: all six modes over the chosen
    benchmarks, parallelised, followed by the per-mode summary table and the
    cumulative completion series.

``fuzz``
    Generate a seed-deterministic corpus of random modules with
    known-by-construction invariants, run each through several inference
    modes under every cache configuration via the parallel runner, and
    cross-check that per-mode outcomes are identical across cache
    configurations and that inferred invariants imply the ground truth.
    Mismatching modules are shrunk to minimal ``.hanoi`` reproducers (see
    docs/fuzzing.md).  ``--check-persistence`` additionally re-runs every
    module against cold, warm, and corrupted persistent disk-cache stores
    and requires identical outcomes (docs/service.md).

The ``run``, ``infer``, and ``figure8`` subcommands accept ``--cache-dir
DIR``: a persistent content-addressed disk cache that replays unchanged
declarations' verification and synthesis work across processes
(docs/service.md).

``lint``
    Run the static analyzer over ``.hanoi`` module files (or registered
    benchmarks): match exhaustiveness, unreachable branches, unused
    definitions, unprovable termination, and unusable synthesis components,
    each with a stable ``HAN0xx`` code and a source-line anchor (see
    docs/analysis.md).  ``--format json`` emits one JSON object per finding.
    Exit codes: 0 = clean (warnings without ``--werror`` included),
    1 = warnings promoted by ``--werror``, 2 = errors.

``trace``
    Analyze a JSONL trace written with ``--trace``: per-phase time breakdown,
    cache hit-rate tables read from each run's ``run-end`` stats counters,
    the slowest spans, and an optional Chrome trace-event export (see
    docs/observability.md).

The ``run``, ``infer``, ``figure8``, and ``fuzz`` subcommands all accept
``--trace PATH`` (record every inference event/span to a crash-safe JSONL
file) and ``--live`` (print compact progress lines from the event stream;
with ``--jobs`` > 1, workers stream their events to the parent process).

Examples::

    python -m repro run --jobs 4 --profile quick --output results.jsonl
    python -m repro run --pack my-modules/ --output pack-results.jsonl
    python -m repro run --trace trace.jsonl --live
    python -m repro infer examples/modules/bounded-stack.hanoi
    python -m repro lint examples/modules/ --format json --werror
    python -m repro export --out exported/
    python -m repro report results.jsonl --csv results.csv
    python -m repro list --group coq --fast
    python -m repro figure8 --modes hanoi conj-str oneshot --jobs 8
    python -m repro fuzz --seed 0 --count 25 --out fuzz-out/
    python -m repro fuzz --lint --count 50 --out fuzz-out/
    python -m repro fuzz --check-persistence --count 10 --out fuzz-out/
    python -m repro infer examples/modules/bounded-stack.hanoi --cache-dir .hanoi-cache
    python -m repro lint examples/modules/ --hash
    python -m repro lint --all-builtins
    python -m repro trace trace.jsonl --chrome chrome.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from typing import Iterator, List, Optional, Sequence

from .core.result import InferenceResult
from .obs import analyze as trace_analyze
from .experiments.parallel import ParallelRunner
from .experiments.report import (
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
from .experiments.runner import (
    FIGURE8_MODES,
    MODES,
    PROFILES,
    execute_tasks,
    expand_tasks,
)
from .experiments.store import ResultStore
from .gen.diff import DEFAULT_FUZZ_MODES
from .spec.errors import SpecFileError
from .suite.registry import (
    BENCHMARKS,
    FAST_BENCHMARKS,
    GROUPS,
    PAPER_RESULTS,
    all_benchmark_names,
)

__all__ = ["main", "build_parser"]


def _add_trace_arguments(parser: argparse.ArgumentParser) -> None:
    """Flags shared by every inference-running subcommand."""
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="record every inference event/span to a JSONL "
                             "trace file (analyze with `python -m repro trace`)")
    parser.add_argument("--live", action="store_true",
                        help="print compact live progress lines from the "
                             "event stream (workers stream to the parent)")
    # Marks commands that *run* inference: the `trace` subcommand also has an
    # `args.trace` (the file it analyzes) and must not get a sink installed.
    parser.set_defaults(_traced=True)


@contextmanager
def _tracing(args: argparse.Namespace) -> Iterator[None]:
    """Install the sinks a command's ``--trace`` / ``--live`` flags ask for,
    for the duration of the command; close the trace file afterwards.

    Installed process-globally (:func:`~repro.obs.sinks.install_sink`), so
    every inference run the command constructs - in-process or, via the
    parallel runner's event queue, in worker processes - feeds them.
    """
    from .obs.sinks import JsonlTraceSink, LiveRenderer, install_sink, uninstall_sink

    sinks = []
    if not getattr(args, "_traced", False):
        yield
        return
    if getattr(args, "trace", None):
        sinks.append(install_sink(JsonlTraceSink(args.trace)))
    if getattr(args, "live", False):
        sinks.append(install_sink(LiveRenderer()))
    try:
        yield
    finally:
        for sink in sinks:
            uninstall_sink(sink)
            if hasattr(sink, "close"):
                sink.close()


def _add_profile_arguments(parser: argparse.ArgumentParser) -> None:
    """The bounds/timeout flags of every inference-running subcommand."""
    parser.add_argument("--profile", choices=sorted(PROFILES), default="quick",
                        help="verifier bounds / timeout profile (default: quick)")
    parser.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                        help="per-task timeout in seconds (overrides the profile's)")


def _add_config_arguments(parser: argparse.ArgumentParser) -> None:
    """The configuration flags of ``run``, ``figure8`` and ``infer``: the
    profile flags plus the cache switches :func:`_config_from_args` reads."""
    _add_profile_arguments(parser)
    parser.add_argument("--no-eval-cache", action="store_true",
                        help="disable the cross-iteration spec-verdict cache "
                             "of sufficiency checks (the ablation; outcomes "
                             "are identical, Hanoi-mode runs are slower)")
    parser.add_argument("--no-pool-cache", action="store_true",
                        help="disable cross-iteration synthesis term-pool "
                             "caching (the ablation; candidate streams are "
                             "identical, synthesis-heavy runs are slower)")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="persistent content-addressed disk cache: "
                             "snapshot the evaluation and pool caches per "
                             "declaration so unchanged declarations replay "
                             "across processes (docs/service.md)")


def _add_sweep_arguments(parser: argparse.ArgumentParser, default_output: str) -> None:
    """Flags shared by the sweep-running subcommands (``run`` and ``figure8``)."""
    parser.add_argument("--benchmarks", nargs="*", default=None, metavar="NAME",
                        help="explicit benchmark names (see `python -m repro list`)")
    parser.add_argument("--group", default=None, metavar="GROUP",
                        help="run one benchmark group (vfa, vfa-extended, coq, "
                             "other, or a pack's group)")
    parser.add_argument("--all", action="store_true",
                        help="run all registered benchmarks instead of the fast subset")
    parser.add_argument("--pack", default=None, metavar="DIR",
                        help="register a directory of .hanoi benchmark definition "
                             "files; without other selectors, runs that pack")
    _add_config_arguments(parser)
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="worker processes (default: all CPUs; 1 = serial in-process)")
    parser.add_argument("--output", default=default_output, metavar="PATH",
                        help=f"JSONL file results are appended to (default: {default_output})")
    parser.add_argument("--resume", action="store_true",
                        help="skip (benchmark, mode) pairs already present in --output")
    parser.add_argument("--retry-failed", action="store_true",
                        help="with --resume, re-run pairs whose stored status is not "
                             "success (e.g. after raising --timeout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduction harness for 'Data-Driven Inference of "
                    "Representation Invariants' (Miltner et al., PLDI 2020).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run = subparsers.add_parser(
        "run", help="run a benchmark sweep in parallel, persisting results to JSONL")
    _add_sweep_arguments(run, default_output="results.jsonl")
    _add_trace_arguments(run)
    run.add_argument("--modes", nargs="*", default=["hanoi"], metavar="MODE",
                     help=f"modes to run (default: hanoi; known: {' '.join(sorted(MODES))})")
    run.set_defaults(func=_cmd_run)

    lst = subparsers.add_parser(
        "list", help="list registered benchmarks and inference modes")
    lst.add_argument("--benchmarks", action="store_true", help="list only benchmarks")
    lst.add_argument("--modes", action="store_true", help="list only modes")
    lst.add_argument("--group", default=None, metavar="GROUP",
                     help="only benchmarks of one group")
    lst.add_argument("--fast", action="store_true",
                     help="only benchmarks of the fast (CI) subset")
    lst.add_argument("--pack", default=None, metavar="DIR",
                     help="also list a .hanoi benchmark pack's entries")
    lst.set_defaults(func=_cmd_list)

    infer = subparsers.add_parser(
        "infer", help="run invariant inference on one .hanoi definition file")
    infer.add_argument("file", metavar="FILE.hanoi",
                       help="benchmark definition file (see docs/format.md)")
    infer.add_argument("--mode", choices=sorted(MODES), default="hanoi",
                       help="inference mode (default: hanoi)")
    _add_config_arguments(infer)
    _add_trace_arguments(infer)
    infer.set_defaults(func=_cmd_infer)

    export = subparsers.add_parser(
        "export", help="render registered benchmarks as .hanoi definition files")
    export.add_argument("--benchmark", default=None, metavar="NAME",
                        help="export one benchmark (default: all)")
    export.add_argument("--out", default=None, metavar="DIR",
                        help="directory to write one file per benchmark; "
                             "without it, a single --benchmark prints to stdout")
    export.set_defaults(func=_cmd_export)

    report = subparsers.add_parser(
        "report", help="render Figure-7-style tables from a stored JSONL file")
    report.add_argument("results", metavar="RESULTS.jsonl",
                        help="JSONL file written by `run` / `figure8`")
    report.add_argument("--csv", default=None, metavar="PATH",
                        help="also write the per-benchmark rows as CSV")
    report.set_defaults(func=_cmd_report)

    figure8 = subparsers.add_parser(
        "figure8", help="the six-mode comparison sweep of the paper's Figure 8")
    _add_sweep_arguments(figure8, default_output="figure8.jsonl")
    _add_trace_arguments(figure8)
    figure8.add_argument("--modes", nargs="*", default=None, metavar="MODE",
                         help=f"modes to compare (default: {' '.join(FIGURE8_MODES)})")
    figure8.set_defaults(func=_cmd_figure8)

    fuzz = subparsers.add_parser(
        "fuzz", help="differential-fuzz generated modules across modes and "
                     "cache configurations")
    fuzz.add_argument("--seed", type=int, default=0, metavar="N",
                      help="base corpus seed (default: 0); the same seed and "
                           "count always produce the same corpus")
    fuzz.add_argument("--count", type=int, default=25, metavar="N",
                      help="number of modules to generate (default: 25)")
    fuzz.add_argument("--modes", nargs="*", default=None, metavar="MODE",
                      help="modes to cross-check (default: "
                           f"{' '.join(DEFAULT_FUZZ_MODES)})")
    fuzz.add_argument("--out", default="fuzz-out", metavar="DIR",
                      help="output directory: corpus/ (the generated .hanoi "
                           "files), results.jsonl, reproducers/ (default: "
                           "fuzz-out)")
    fuzz.add_argument("--shrink", dest="shrink", action="store_true",
                      default=True,
                      help="shrink mismatching modules to minimal .hanoi "
                           "reproducers (default)")
    fuzz.add_argument("--no-shrink", dest="shrink", action="store_false",
                      help="report mismatches without shrinking them")
    fuzz.add_argument("--no-oracle", action="store_true",
                      help="skip the ground-truth invariant checks (only "
                           "compare cache configurations)")
    fuzz.add_argument("--lint", action="store_true",
                      help="lint the generated corpus instead of running the "
                           "differential sweep: generated modules must be "
                           "lint-clean; dirty ones are shrunk to minimal "
                           ".hanoi reproducers")
    fuzz.add_argument("--check-persistence", action="store_true",
                      help="additionally re-run every module's Hanoi modes "
                           "against cold, warm, and corrupted persistent "
                           "disk-cache stores; all outcomes must equal the "
                           "persistence-free run (docs/service.md)")
    _add_profile_arguments(fuzz)
    fuzz.add_argument("--jobs", type=int, default=None, metavar="N",
                      help="worker processes (default: all CPUs; 1 = serial "
                           "in-process)")
    fuzz.add_argument("--resume", action="store_true",
                      help="skip (benchmark, mode, variant) cells already in "
                           "the output store")
    _add_trace_arguments(fuzz)
    fuzz.set_defaults(func=_cmd_fuzz)

    lint = subparsers.add_parser(
        "lint", help="run the static analyzer over .hanoi files or "
                     "registered benchmarks (docs/analysis.md)")
    lint.add_argument("paths", nargs="*", metavar="PATH",
                      help=".hanoi files, or directories scanned for *.hanoi")
    lint.add_argument("--benchmark", action="append", default=None,
                      metavar="NAME",
                      help="lint one registered benchmark (repeatable)")
    lint.add_argument("--all-builtins", action="store_true",
                      help="lint every registered benchmark")
    lint.add_argument("--hash", action="store_true",
                      help="also print each module's structural content "
                           "key (the persistent cache's fallback key)")
    lint.add_argument("--format", choices=("human", "json"), default="human",
                      help="output format: the human path:line renderer "
                           "(default) or one JSON object per finding "
                           "(path, line, code, severity, decl, message)")
    lint.add_argument("--werror", action="store_true",
                      help="exit 1 when any module has warning-severity "
                           "findings (errors always exit 2)")
    _add_trace_arguments(lint)
    lint.set_defaults(func=_cmd_lint)

    trace = subparsers.add_parser(
        "trace", help="analyze a JSONL trace written with --trace "
                      "(phase breakdown, cache hit rates, Chrome export)")
    trace_analyze.add_arguments(trace)
    trace.set_defaults(func=_cmd_trace)

    return parser


# -- shared sweep machinery ------------------------------------------------------


def _register_pack(directory: str):
    """Load and register a ``--pack`` directory, exiting with a diagnostic
    (not a traceback) when a file in it is malformed."""
    from .spec.pack import register_pack

    try:
        return register_pack(directory)
    except SpecFileError as exc:
        raise SystemExit(f"error loading pack: {exc}")
    except ValueError as exc:
        # e.g. a pack of exported built-ins clashing with the registry.
        raise SystemExit(f"error registering pack: {exc}; give the files "
                         f"their own names with a `benchmark \"...\"` directive")


def _validate_modes(modes: Sequence[str]) -> None:
    if not modes:
        raise SystemExit("--modes needs at least one mode (see `python -m repro list --modes`)")
    for mode in modes:
        if mode not in MODES:
            raise SystemExit(f"unknown mode {mode!r} (see `python -m repro list --modes`)")


def _validate_group(group: str) -> None:
    if group not in GROUPS:
        raise SystemExit(f"unknown group {group!r}; known: {', '.join(sorted(GROUPS))}")


def _select_benchmarks(args: argparse.Namespace, pack=None) -> List[str]:
    if args.benchmarks:
        unknown = [name for name in args.benchmarks if name not in BENCHMARKS]
        if unknown:
            raise SystemExit(f"unknown benchmark(s): {', '.join(unknown)} "
                             f"(see `python -m repro list --benchmarks`)")
        return list(args.benchmarks)
    if args.group:
        _validate_group(args.group)
        return list(GROUPS[args.group])
    if args.all:
        # Includes the pack's benchmarks: they are registered by now.
        return all_benchmark_names()
    if pack is not None:
        # A pack with no other selector means: run exactly that pack
        # (--profile only sets bounds/timeouts; it is not a selector).
        return pack.benchmark_names
    if args.profile == "paper":
        return all_benchmark_names()
    return list(FAST_BENCHMARKS)


def _config_from_args(args: argparse.Namespace):
    """The :class:`HanoiConfig` a command's configuration flags ask for.

    Only overrides the profile's timeout when one was given explicitly;
    ``profile()`` keeps the default (quick: 60 s, paper: 1800 s).  ``fuzz``
    declares only the profile flags: it sweeps the cache switches itself."""
    profile = PROFILES[args.profile]
    config = profile() if args.timeout is None else profile(args.timeout)
    if getattr(args, "no_eval_cache", False):
        config = config.without_evaluation_caching()
    if getattr(args, "no_pool_cache", False):
        config = config.without_synthesis_evaluation_caching()
    if getattr(args, "cache_dir", None):
        config = config.with_cache_dir(args.cache_dir)
    return config


def _progress(result: InferenceResult) -> None:
    size = result.invariant_size if result.invariant_size is not None else "-"
    variant = f" {result.variant:9s}" if result.variant is not None else ""
    print(f"  [{result.mode:17s}] {result.benchmark:45s}{variant} "
          f"{result.status:18s} size={size} "
          f"time={result.stats.total_time:.1f}s", flush=True)


def _execute_sweep(args: argparse.Namespace, tasks, store: ResultStore,
                   shape: str, unit: str,
                   retry_failed: bool) -> List[InferenceResult]:
    """Filter (resume), execute, and persist ``tasks``; return the result set
    recorded in ``store`` for this sweep's keys.

    ``shape`` describes the task grid and ``unit`` names one task in the
    progress lines.  With ``retry_failed``, resuming re-runs stored tasks
    whose status is not success."""
    sweep_keys = {task.key for task in tasks}
    if args.resume:
        completed = {result.key for result in store.load()
                     if result.succeeded or not retry_failed}
        remaining = [task for task in tasks if task.key not in completed]
        skipped = len(tasks) - len(remaining)
        if skipped:
            print(f"resume: skipping {skipped} completed {unit}(s) found in {store.path}")
        tasks = remaining

    jobs = args.jobs if args.jobs is not None else (os.cpu_count() or 1)
    print(f"running {len(tasks)} task(s) ({shape}) "
          f"with profile {args.profile!r}, {jobs} worker(s); "
          f"results -> {store.path}")
    if tasks and jobs == 1:
        execute_tasks(tasks, progress=_progress, store=store)
    elif tasks:
        ParallelRunner(jobs=jobs).run(tasks, progress=_progress, store=store)

    # Report only this sweep's keys: the store may also hold rows from
    # earlier sweeps with different benchmarks/modes (or a same-named pack
    # benchmark) written to the same file.
    return [result for result in store.load() if result.key in sweep_keys]


def _run_sweep(args: argparse.Namespace, modes: Sequence[str]) -> List[InferenceResult]:
    """Expand one ``run``/``figure8`` sweep and execute it; return the result
    set recorded in the output store for this sweep's pairs."""
    if args.retry_failed and not args.resume:
        raise SystemExit("--retry-failed only applies with --resume "
                         "(it re-runs stored pairs whose status is not success)")
    _validate_modes(modes)
    pack = _register_pack(args.pack) if args.pack else None
    names = _select_benchmarks(args, pack=pack)
    tasks = expand_tasks(names, modes=list(modes), config=_config_from_args(args),
                         pack=pack)
    return _execute_sweep(args, tasks, ResultStore(args.output), unit="pair",
                          shape=f"{len(names)} benchmark(s) x {len(modes)} mode(s)",
                          retry_failed=args.retry_failed)


# -- subcommands -----------------------------------------------------------------


def _cmd_run(args: argparse.Namespace) -> int:
    results = _run_sweep(args, modes=args.modes)
    print()
    print(render_results(results))
    solved = sum(1 for r in results if r.succeeded)
    print(f"solved {solved} / {len(results)}; results persisted to {args.output}")
    return 0


def _cmd_list(args: argparse.Namespace) -> int:
    pack = _register_pack(args.pack) if args.pack else None
    show_benchmarks = args.benchmarks or not args.modes
    # Benchmark filters imply a benchmark-focused listing; --modes still
    # forces the mode table.
    show_modes = args.modes or (not args.benchmarks
                                and not (args.group or args.fast))

    if show_benchmarks:
        if args.group:
            _validate_group(args.group)
        pack_names = set(pack.benchmark_names) if pack is not None else set()
        rows = []
        for group, names in GROUPS.items():
            if args.group and group != args.group:
                continue
            for name in names:
                if args.fast and name not in FAST_BENCHMARKS:
                    continue
                # None means the paper timed out; absence (pack benchmarks)
                # means the paper never ran it at all.
                paper = PAPER_RESULTS.get(name, "")
                fast = "yes" if name in FAST_BENCHMARKS else ""
                row = [name, group, paper, fast]
                if pack is not None:
                    row.append(pack.name if name in pack_names else "")
                rows.append(row)
        headers = ["Name", "Group", "Paper", "Fast subset"]
        if pack is not None:
            headers.append("Pack")
        print(f"{len(rows)} of {len(BENCHMARKS)} registered benchmarks; "
              "'Paper' is Figure 7's invariant size, t/o = 30-minute timeout:")
        print(format_table(headers, rows))
    if show_benchmarks and show_modes:
        print()
    if show_modes:
        print(f"{len(MODES)} modes:")
        print(format_table(
            ["Mode", "Figure 8", "Description"],
            [[name, "yes" if name in FIGURE8_MODES else "", mode.description]
             for name, mode in MODES.items()]))
    return 0


def _cmd_infer(args: argparse.Namespace) -> int:
    from .experiments.runner import run_module
    from .spec.loader import load_module_file

    try:
        definition = load_module_file(args.file)
    except SpecFileError as exc:
        raise SystemExit(f"error: {exc}")

    config = _config_from_args(args)
    operations = ", ".join(op.name for op in definition.operations)
    print(f"loaded {definition.name} ({definition.group}): "
          f"{len(definition.operations)} operation(s): {operations}")
    print(f"running mode {args.mode!r} with profile {args.profile!r} ...")

    result = run_module(definition, mode=args.mode, config=config)
    size = result.invariant_size if result.invariant_size is not None else "-"
    print(f"status={result.status} size={size} "
          f"iterations={result.iterations} time={result.stats.total_time:.1f}s")
    if args.cache_dir:
        print(f"persistent cache: {result.stats.disk_cache_hits} hit(s), "
              f"{result.stats.disk_cache_misses} miss(es) in {args.cache_dir}")
        print(f"persistent cache: {result.stats.synthesis_replays} of "
              f"{result.stats.synthesis_calls} synthesis call(s) replayed")
        print(f"persistent cache: {result.stats.inductiveness_replays} of "
              f"{result.stats.inductiveness_checks} inductiveness check(s) replayed")
    if result.invariant is not None:
        print()
        print(result.render_invariant())
    elif result.message:
        print(result.message)
    return 0 if result.succeeded else 1


def _cmd_export(args: argparse.Namespace) -> int:
    from .spec.export import export_all, export_benchmark

    if args.benchmark is not None and args.benchmark not in BENCHMARKS:
        raise SystemExit(f"unknown benchmark {args.benchmark!r} "
                         f"(see `python -m repro list --benchmarks`)")
    if args.out is None:
        if args.benchmark is None:
            raise SystemExit("exporting every benchmark needs --out DIR "
                             "(or pick one with --benchmark NAME)")
        print(export_benchmark(args.benchmark), end="")
        return 0
    names = [args.benchmark] if args.benchmark is not None else None
    written = export_all(args.out, names=names)
    for name, path in written:
        print(f"wrote {path}  ({name})")
    print(f"exported {len(written)} benchmark(s) to {args.out}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    store = ResultStore(args.results)
    if not store.exists():
        raise SystemExit(f"no such results file: {args.results}")
    results = store.load()
    if not results:
        raise SystemExit(f"{args.results} contains no results")
    print(render_results(results))
    solved = sum(1 for r in results if r.succeeded)
    print(f"solved {solved} / {len(results)} (from {args.results})")
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as handle:
            handle.write(rows_to_csv(FIGURE7_HEADERS + ["Mode"],
                                     [row + [result.mode] for row, result
                                      in zip(figure7_rows(results), results)]))
        print(f"wrote {args.csv}")
    return 0


def _cmd_figure8(args: argparse.Namespace) -> int:
    modes = args.modes if args.modes else list(FIGURE8_MODES)
    results = _run_sweep(args, modes=modes)
    grouped = group_by_mode(results)
    grouped = {mode: grouped.get(mode, []) for mode in modes}

    print("\nPer-mode summary (Figure 8):")
    print(format_table(MODE_SUMMARY_HEADERS, mode_summary_rows(grouped)))

    print("\nCumulative completion series (seconds at which each solve lands):")
    for mode, times in completion_series(grouped).items():
        rendered = ", ".join(f"{t:.1f}" for t in times) or "(none)"
        print(f"  {mode:18s}: {rendered}")
    print(f"\nresults persisted to {args.output}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    return trace_analyze.run(args)


def _lint_paths(arg_paths: Sequence[str]) -> List[str]:
    """Expand the ``lint`` positional arguments: directories become their
    sorted ``*.hanoi`` entries, files are taken as given."""
    import glob as _glob

    paths: List[str] = []
    for path in arg_paths:
        if os.path.isdir(path):
            entries = sorted(_glob.glob(os.path.join(path, "*.hanoi")))
            if not entries:
                raise SystemExit(f"no .hanoi files in directory {path!r}")
            paths.extend(entries)
        elif os.path.exists(path):
            paths.append(path)
        else:
            raise SystemExit(f"no such file or directory: {path!r}")
    return paths


def _cmd_lint(args: argparse.Namespace) -> int:
    from .analysis.diagnostics import Diagnostic
    from .analysis.lint import AnalysisReport, analyze_definition, analyze_file
    from .obs.sinks import emitter_for_run
    from .suite.registry import get_benchmark

    paths = _lint_paths(args.paths)
    names = list(args.benchmark or [])
    if args.all_builtins:
        names.extend(n for n in all_benchmark_names() if n not in names)
    unknown = [n for n in names if n not in BENCHMARKS]
    if unknown:
        raise SystemExit(f"unknown benchmark(s): {', '.join(unknown)} "
                         f"(see `python -m repro list --benchmarks`)")
    if not paths and not names:
        raise SystemExit("nothing to lint: give PATHs, --benchmark NAME, "
                         "or --all-builtins")

    counts = {"clean": 0, "warned": 0, "errored": 0}
    for path in paths:
        try:
            report = analyze_file(path, emitter=emitter_for_run(f"lint/{path}"))
        except SpecFileError as exc:
            failure = Diagnostic("HAN000", exc.reason, line=exc.line or 1, path=exc.path)
            report = AnalysisReport(module=exc.path, path=exc.path,
                                    diagnostics=(failure,), content_hash="")
        _print_lint_report(report, args, counts)
    for name in names:
        report = analyze_definition(get_benchmark(name), path=name,
                                    emitter=emitter_for_run(f"lint/{name}"))
        _print_lint_report(report, args, counts)

    total = sum(counts.values())
    if args.format != "json":
        print(f"linted {total} module(s): {counts['clean']} clean, "
              f"{counts['warned']} with warnings, "
              f"{counts['errored']} with errors")
    # The exit-code contract (docs/analysis.md): 0 = clean (or warnings
    # without --werror), 1 = warnings promoted by --werror, 2 = errors.
    if counts["errored"]:
        return 2
    if counts["warned"] and args.werror:
        return 1
    return 0


def _print_lint_report(report, args: argparse.Namespace, counts) -> None:
    for diagnostic in report.diagnostics:
        if args.format == "json":
            print(json.dumps({"path": diagnostic.path, "line": diagnostic.line,
                              "code": diagnostic.code,
                              "severity": diagnostic.severity,
                              "decl": diagnostic.decl,
                              "message": diagnostic.message}, sort_keys=True))
        else:
            print(diagnostic.render())
    worst = report.worst
    if worst == "error":
        counts["errored"] += 1
    elif worst == "warning":
        counts["warned"] += 1
    else:
        if args.format != "json":
            suffix = f"  [{report.content_hash[:12]}]" if args.hash else ""
            print(f"{report.path}: ok{suffix}")
        counts["clean"] += 1


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from .experiments.runner import ExperimentTask
    from .gen.diff import (CACHE_MATRIX, PERSISTENCE_VARIANTS, compare_stored,
                           differential)
    from .gen.modgen import generate_corpus, write_corpus
    modes = args.modes if args.modes else list(DEFAULT_FUZZ_MODES)
    _validate_modes(modes)
    if args.count < 1:
        raise SystemExit("--count must be at least 1")

    corpus = generate_corpus(args.seed, args.count)
    corpus_dir = os.path.join(args.out, "corpus")
    write_corpus(corpus, corpus_dir)
    print(f"generated {len(corpus)} module(s) (seed {args.seed}) -> {corpus_dir}")
    if args.lint:
        return _fuzz_lint(corpus, args)
    pack = _register_pack(corpus_dir)
    definitions = {module.name: module.definition for module in corpus}

    config = _config_from_args(args)
    tasks = [ExperimentTask(benchmark=name, mode=mode,
                            config=prepare(definitions[name], config)[1],
                            pack=pack.path, pack_name=pack.name, variant=tag)
             for mode in modes for name in pack.benchmark_names
             for tag, prepare in CACHE_MATRIX.members]
    store = ResultStore(os.path.join(args.out, "results.jsonl"))
    results = _execute_sweep(
        args, tasks, store, unit="cell",
        shape=f"{len(corpus)} module(s) x {len(modes)} mode(s) x "
              f"{len(CACHE_MATRIX.members)} cache variant(s)",
        retry_failed=False)
    report = compare_stored(results, definitions, modes=modes,
                            check_oracle=not args.no_oracle, config=config)
    if args.check_persistence:
        print("cross-checking the persistent disk-cache tier "
              f"({len(definitions)} module(s)) ...")
        for definition in definitions.values():
            report.merge(differential(definition, PERSISTENCE_VARIANTS,
                                      modes=modes, config=config))
    print()
    print(report.describe())

    if report.mismatches and args.shrink:
        shrunk = set()
        for mismatch in report.mismatches:
            if mismatch.benchmark in shrunk:
                continue
            shrunk.add(mismatch.benchmark)

            def still_fails(candidate, _mismatch=mismatch):
                rerun = differential(candidate, _mismatch.variants,
                                     modes=(_mismatch.mode,), config=config)
                return bool(rerun.mismatches)

            minimal, path = _shrink_to_reproducer(
                definitions[mismatch.benchmark], still_fails, args.out)
            print(f"  reproducer: {path} "
                  f"({len(minimal.operations)} operation(s), "
                  f"{len(minimal.source.strip().splitlines())} source line(s))")

    return 0 if report.ok else 1


def _fuzz_lint(corpus, args: argparse.Namespace) -> int:
    """The ``fuzz --lint`` stage: every generated module must be lint-clean.

    Generated modules carry known-by-construction invariants, so an analyzer
    warning on one is an analyzer bug (or a generator bug); the offending
    module is shrunk to a minimal ``.hanoi`` reproducer that still triggers
    one of the same diagnostic codes."""
    from .analysis.lint import analyze_definition

    dirty = []
    for module in corpus:
        report = analyze_definition(module.definition, path=module.name)
        if report.ok:
            continue
        dirty.append((module, report))
        for diagnostic in report.diagnostics:
            print(diagnostic.render())
    print(f"linted {len(corpus)} generated module(s): "
          f"{len(corpus) - len(dirty)} clean, {len(dirty)} with warnings")
    if not dirty:
        return 0

    if args.shrink:
        for module, report in dirty:
            codes = {d.code for d in report.diagnostics if d.rank >= 1}

            def still_warns(candidate, _codes=codes):
                rerun = analyze_definition(candidate)
                return any(d.code in _codes and d.rank >= 1
                           for d in rerun.diagnostics)

            _, path = _shrink_to_reproducer(module.definition, still_warns, args.out)
            print(f"  reproducer: {path} (codes: {', '.join(sorted(codes))})")
    return 1


def _shrink_to_reproducer(definition, still_fails, out: str):
    """Shrink ``definition`` while ``still_fails`` holds and write the result
    under ``OUT/reproducers``; return the module written and its path.

    A failure that does not reproduce in process (e.g. a store-only flaky
    timeout) is reported, and the full module is written instead."""
    from .gen.shrink import shrink_module, write_reproducer

    try:
        minimal = shrink_module(definition, still_fails)
    except ValueError as exc:
        print(f"  shrink: {definition.name}: {exc}")
        minimal = definition
    return minimal, write_reproducer(minimal, os.path.join(out, "reproducers"))


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with _tracing(args):
            return args.func(args)
    except KeyboardInterrupt:  # pragma: no cover - interactive interrupt
        print("\ninterrupted; completed results are persisted and resumable "
              "with --resume", file=sys.stderr)
        return 130
    except BrokenPipeError:
        # stdout was closed early (e.g. piped into `head`); redirect the
        # remaining output to devnull so the interpreter's shutdown flush
        # does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover - exercised via python -m repro
    raise SystemExit(main())
