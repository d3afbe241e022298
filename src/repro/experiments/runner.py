"""Running benchmarks under the different inference modes.

The evaluation of Section 5 compares six modes on the same benchmark suite:

======================  ====================================================
mode name               meaning
======================  ====================================================
``hanoi``               the full Hanoi tool (both optimizations enabled)
``hanoi-src``           Hanoi with synthesis result caching disabled
``hanoi-clc``           Hanoi with counterexample list caching disabled
``conj-str``            the ∧Str (LoopInvGen-style) baseline
``linear-arbitrary``    the LA (LinearArbitrary-style) baseline
``oneshot``             the OneShot baseline
``hanoi-fold``          Hanoi with the fold-capable prototype synthesizer
                        (Section 5.4; not part of Figure 8 but reported in
                        the text)
======================  ====================================================

Two configuration profiles are provided: ``quick`` (small verifier bounds and
short timeouts, suitable for CI and for the ``perfbench/`` workloads) and
``paper`` (the bounds of Section 4.3 and a 30-minute timeout, matching the
paper's experimental setup).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..baselines.conj_str import ConjunctiveStrengtheningInference
from ..baselines.linear_arbitrary import LinearArbitraryInference
from ..baselines.oneshot import OneShotInference
from ..core.config import FAST_VERIFIER_BOUNDS, HanoiConfig, PAPER_VERIFIER_BOUNDS
from ..core.hanoi import HanoiInference
from ..core.module import ModuleDefinition
from ..core.result import InferenceResult
from ..lang.eval import memo_table
from ..suite.registry import all_benchmark_names, get_benchmark
from ..synth.folds import FoldSynthesizer

__all__ = [
    "MODES",
    "MODE_DESCRIPTIONS",
    "PROFILES",
    "ExperimentTask",
    "quick_config",
    "paper_config",
    "run_module",
    "run_benchmark",
    "run_many",
    "expand_tasks",
    "execute_task",
    "execute_tasks",
]


def quick_config(timeout_seconds: Optional[float] = 60.0) -> HanoiConfig:
    """The CI-friendly profile: small verifier bounds, one-minute timeout."""
    return HanoiConfig(verifier_bounds=FAST_VERIFIER_BOUNDS, timeout_seconds=timeout_seconds)


def paper_config(timeout_seconds: Optional[float] = 1800.0) -> HanoiConfig:
    """The paper's profile: Section 4.3 bounds, 30-minute timeout."""
    return HanoiConfig(verifier_bounds=PAPER_VERIFIER_BOUNDS, timeout_seconds=timeout_seconds)


PROFILES: Dict[str, Callable[[Optional[float]], HanoiConfig]] = {
    "quick": quick_config,
    "paper": paper_config,
}


def _run_hanoi(definition: ModuleDefinition, config: HanoiConfig) -> InferenceResult:
    return HanoiInference(definition, config=config, mode_name="hanoi").infer()


def _run_hanoi_src(definition: ModuleDefinition, config: HanoiConfig) -> InferenceResult:
    config = config.without_synthesis_result_caching()
    return HanoiInference(definition, config=config, mode_name="hanoi-src").infer()


def _run_hanoi_clc(definition: ModuleDefinition, config: HanoiConfig) -> InferenceResult:
    config = config.without_counterexample_list_caching()
    return HanoiInference(definition, config=config, mode_name="hanoi-clc").infer()


def _run_hanoi_fold(definition: ModuleDefinition, config: HanoiConfig) -> InferenceResult:
    return HanoiInference(
        definition, config=config, synthesizer_factory=FoldSynthesizer, mode_name="hanoi-fold"
    ).infer()


def _run_conj_str(definition: ModuleDefinition, config: HanoiConfig) -> InferenceResult:
    return ConjunctiveStrengtheningInference(definition, config=config).infer()


def _run_linear_arbitrary(definition: ModuleDefinition, config: HanoiConfig) -> InferenceResult:
    return LinearArbitraryInference(definition, config=config).infer()


def _run_oneshot(definition: ModuleDefinition, config: HanoiConfig) -> InferenceResult:
    return OneShotInference(definition, config=config).infer()


MODES: Dict[str, Callable[[ModuleDefinition, HanoiConfig], InferenceResult]] = {
    "hanoi": _run_hanoi,
    "hanoi-src": _run_hanoi_src,
    "hanoi-clc": _run_hanoi_clc,
    "conj-str": _run_conj_str,
    "linear-arbitrary": _run_linear_arbitrary,
    "oneshot": _run_oneshot,
    "hanoi-fold": _run_hanoi_fold,
}

#: The six modes plotted in Figure 8, in the legend's order.
FIGURE8_MODES = ["hanoi", "hanoi-src", "hanoi-clc", "conj-str", "linear-arbitrary", "oneshot"]

#: One-line description per mode (the module docstring's table, programmatically;
#: rendered by ``python -m repro list`` and docs/modes.md).
MODE_DESCRIPTIONS: Dict[str, str] = {
    "hanoi": "the full Hanoi tool (both Section 4.4 optimizations enabled)",
    "hanoi-src": "Hanoi with synthesis result caching disabled (ablation)",
    "hanoi-clc": "Hanoi with counterexample list caching disabled (ablation)",
    "conj-str": "the ∧Str (LoopInvGen-style) conjunctive strengthening baseline",
    "linear-arbitrary": "the LA (LinearArbitrary-style) decision-tree baseline",
    "oneshot": "the OneShot baseline (single synthesis call, no CEGIS loop)",
    "hanoi-fold": "Hanoi with the fold-capable prototype synthesizer (Section 5.4)",
}


def run_module(definition: ModuleDefinition, mode: str = "hanoi",
               config: Optional[HanoiConfig] = None) -> InferenceResult:
    """Run one module definition (registered or hand-built) under one mode.

    This is the single dispatch point every harness goes through: the serial
    runner, the parallel runner's workers, the ``perfbench/`` workloads, and
    the examples all end up here.  Every mode runs with a memo table open
    (:func:`repro.lang.eval.memo_table`); it is dropped on return, because the
    result keeps the module's program alive.
    """
    if mode not in MODES:
        raise KeyError(f"unknown mode {mode!r}; known: {sorted(MODES)}")
    with memo_table():
        return MODES[mode](definition, config or quick_config())


# -- the shared task model ------------------------------------------------------


@dataclass(frozen=True)
class ExperimentTask:
    """One unit of experiment work: a ``(benchmark, mode)`` pair plus config.

    Tasks are immutable, hashable, and picklable, so the same objects flow
    through the serial runner, the multiprocessing pool, and the result store's
    resume bookkeeping.

    ``pack`` carries the directory of the benchmark pack the benchmark comes
    from (None for the built-in suite); ``execute_task`` registers the pack
    before resolving the name, so tasks stay self-contained even in worker
    processes that did not inherit the parent's registry.  ``pack_name`` is
    the pack's registered name (the tag the result store writes), so resume
    bookkeeping can tell a pack benchmark from a same-named built-in.

    ``variant`` tags a configuration variant: the differential fuzzer runs
    the same ``(benchmark, mode)`` pair under several cache configurations
    and needs their rows to coexist in one store.  Ordinary sweeps leave it
    ``None``.
    """

    benchmark: str
    mode: str = "hanoi"
    config: Optional[HanoiConfig] = None
    pack: Optional[str] = None
    pack_name: Optional[str] = None
    variant: Optional[str] = None

    @property
    def key(self) -> Tuple[str, str]:
        """The bare ``(benchmark, mode)`` identity (pack-blind; prefer
        :attr:`resume_key` for dedup/resume bookkeeping)."""
        return (self.benchmark, self.mode)

    @property
    def label(self) -> str:
        """A human-readable identity for progress lines and event streams
        (``benchmark/mode``, with the variant tag when one is set)."""
        base = f"{self.benchmark}/{self.mode}"
        return f"{base}#{self.variant}" if self.variant is not None else base

    @property
    def resume_key(self) -> Tuple[str, str, Optional[str], Optional[str]]:
        """The identity used for resume bookkeeping.

        Includes the pack tag, so a pack benchmark named like a built-in
        neither supersedes it in the store nor causes ``--resume`` to skip
        the other one, and the variant tag, so one cache configuration's row
        never satisfies a resume check for another.
        """
        return (self.benchmark, self.mode, self.pack_name, self.variant)


def expand_tasks(names: Optional[Iterable[str]] = None,
                 modes: Union[str, Sequence[str]] = "hanoi",
                 config: Optional[HanoiConfig] = None,
                 pack: Optional[str] = None,
                 pack_benchmarks: Optional[Iterable[str]] = None,
                 pack_name: Optional[str] = None) -> List[ExperimentTask]:
    """The full task list of a sweep: every benchmark under every mode.

    Modes vary in the outer loop (matching how Figure 8 is collected: one mode
    finishes its pass over the suite before the next starts), benchmarks in the
    inner loop, so serial and parallel sweeps enumerate identically.

    ``pack`` is attached to tasks so pack benchmarks resolve inside pool
    workers (see :class:`ExperimentTask`); ``pack_benchmarks`` restricts the
    pack tag to those benchmark names (a mixed built-in + pack sweep tags only
    the pack's tasks), and ``pack_name`` sets the tag resume bookkeeping
    matches against stored rows (defaults to the pack directory's basename).
    """
    names = list(names if names is not None else all_benchmark_names())
    mode_list = [modes] if isinstance(modes, str) else list(modes)
    for mode in mode_list:
        if mode not in MODES:
            raise KeyError(f"unknown mode {mode!r}; known: {sorted(MODES)}")
    if pack is not None and pack_name is None:
        # Mirror how Pack.name is derived (basename of the *resolved* path),
        # so default resume keys match the tag the result store writes even
        # for symlinked or relative pack directories.
        pack_name = os.path.basename(os.path.realpath(pack))
    from_pack = (frozenset(pack_benchmarks) if pack_benchmarks is not None
                 else frozenset(names if pack is not None else ()))
    return [ExperimentTask(benchmark=name, mode=mode, config=config, pack=pack,
                           pack_name=pack_name if name in from_pack else None)
            for mode in mode_list for name in names]


def execute_task(task: ExperimentTask) -> InferenceResult:
    """Run one task to completion in the current process."""
    if task.pack is not None:
        from ..spec.pack import ensure_pack_registered

        ensure_pack_registered(task.pack)
    result = run_module(get_benchmark(task.benchmark), mode=task.mode, config=task.config)
    if task.variant is not None:
        # Stamped here (not in the store) so the tag survives the worker
        # boundary: the parallel runner ships results as dict payloads.
        result.variant = task.variant
    return result


def execute_tasks(tasks: Sequence[ExperimentTask],
                  progress: Optional[Callable[[InferenceResult], None]] = None,
                  store=None) -> List[InferenceResult]:
    """Run tasks serially, reporting and persisting each result as it lands.

    ``store`` is any object with an ``append(result)`` method (duck-typed so
    this module does not import :mod:`repro.experiments.store`); the parallel
    runner offers the same signature for the same task lists.
    """
    results: List[InferenceResult] = []
    for task in tasks:
        result = execute_task(task)
        results.append(result)
        if store is not None:
            store.append(result)
        if progress is not None:
            progress(result)
    return results


def run_benchmark(name: str, mode: str = "hanoi",
                  config: Optional[HanoiConfig] = None) -> InferenceResult:
    """Run one benchmark under one mode and return the result."""
    return execute_task(ExperimentTask(benchmark=name, mode=mode, config=config))


def run_many(names: Optional[Iterable[str]] = None, mode: str = "hanoi",
             config: Optional[HanoiConfig] = None,
             progress: Optional[Callable[[InferenceResult], None]] = None,
             store=None) -> List[InferenceResult]:
    """Run a list of benchmarks (all of them by default) under one mode."""
    return execute_tasks(expand_tasks(names, modes=mode, config=config),
                         progress=progress, store=store)
