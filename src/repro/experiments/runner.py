"""Running benchmarks under the different inference modes.

The evaluation of Section 5 compares six modes on the same benchmark suite,
plus the fold-capable prototype of Section 5.4; :data:`MODES` holds one row
per mode.  Two configuration profiles are provided: ``quick`` (small
verifier bounds and short timeouts, suitable for CI and for the
``perfbench/`` workloads) and ``paper`` (the bounds of Section 4.3 and a
30-minute timeout, matching the paper's experimental setup).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Type, Union

from ..baselines.conj_str import ConjunctiveStrengtheningInference
from ..baselines.linear_arbitrary import LinearArbitraryInference
from ..baselines.oneshot import OneShotInference
from ..core.config import FAST_VERIFIER_BOUNDS, HanoiConfig, PAPER_VERIFIER_BOUNDS
from ..core.hanoi import HanoiInference
from ..core.module import ModuleDefinition
from ..core.result import InferenceResult
from ..core.run import InferenceRun, SynthesizerFactory
from ..lang.eval import memo_table
from ..spec.pack import Pack, register_pack
from ..suite.registry import all_benchmark_names, get_benchmark
from ..synth.folds import FoldSynthesizer

__all__ = [
    "MODES",
    "Mode",
    "PROFILES",
    "ExperimentTask",
    "quick_config",
    "paper_config",
    "run_module",
    "run_benchmark",
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


@dataclass(frozen=True)
class Mode:
    """One inference mode: the loop it runs, the configuration ablation it
    applies, and the synthesizer it runs with (``None``: the default Myth
    synthesizer).  Calling it runs one module definition under the mode."""

    name: str
    inference: Type[InferenceRun]
    description: str
    ablation: Optional[Callable[[HanoiConfig], HanoiConfig]] = None
    synthesizer: Optional[SynthesizerFactory] = None

    def __call__(self, definition: ModuleDefinition, config: HanoiConfig) -> InferenceResult:
        if self.ablation is not None:
            config = self.ablation(config)
        return self.inference(definition, config=config, synthesizer_factory=self.synthesizer,
                              mode_name=self.name).infer()


#: Every mode by name, in the order ``python -m repro list --modes`` shows.
MODES: Dict[str, Mode] = {mode.name: mode for mode in (
    Mode("hanoi", HanoiInference,
         "the full Hanoi tool (both Section 4.4 optimizations enabled)"),
    Mode("hanoi-src", HanoiInference,
         "Hanoi with synthesis result caching disabled (ablation)",
         ablation=HanoiConfig.without_synthesis_result_caching),
    Mode("hanoi-clc", HanoiInference,
         "Hanoi with counterexample list caching disabled (ablation)",
         ablation=HanoiConfig.without_counterexample_list_caching),
    Mode("conj-str", ConjunctiveStrengtheningInference,
         "the ∧Str (LoopInvGen-style) conjunctive strengthening baseline"),
    Mode("linear-arbitrary", LinearArbitraryInference,
         "the LA (LinearArbitrary-style) decision-tree baseline"),
    Mode("oneshot", OneShotInference,
         "the OneShot baseline (single synthesis call, no CEGIS loop)"),
    Mode("hanoi-fold", HanoiInference,
         "Hanoi with the fold-capable prototype synthesizer (Section 5.4)",
         synthesizer=FoldSynthesizer),
)}

#: The six modes plotted in Figure 8, in the legend's order.
FIGURE8_MODES = ["hanoi", "hanoi-src", "hanoi-clc", "conj-str", "linear-arbitrary", "oneshot"]


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

    ``pack`` carries the directory of the benchmark pack the sweep registered
    (None for a built-in-only sweep); ``execute_task`` registers the pack
    before resolving the name, so tasks stay self-contained even in worker
    processes that did not inherit the parent's registry.  ``pack_name`` is
    the registered pack's name when the benchmark comes from it, and becomes
    the result's ``pack`` tag, so a pack benchmark and a same-named built-in
    keep separate rows.

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
    def key(self) -> Tuple[str, str, Optional[str], Optional[str]]:
        """The :attr:`~repro.core.result.InferenceResult.key` this task's
        result carries: ``(benchmark, mode, pack, variant)``."""
        return (self.benchmark, self.mode, self.pack_name, self.variant)

    @property
    def label(self) -> str:
        """A human-readable identity for progress lines and event streams
        (``benchmark/mode``, with the variant tag when one is set)."""
        base = f"{self.benchmark}/{self.mode}"
        return f"{base}#{self.variant}" if self.variant is not None else base


def expand_tasks(names: Optional[Iterable[str]] = None,
                 modes: Union[str, Sequence[str]] = "hanoi",
                 config: Optional[HanoiConfig] = None,
                 pack: Optional[Pack] = None) -> List[ExperimentTask]:
    """The full task list of a sweep: every benchmark under every mode.

    Modes vary in the outer loop (matching how Figure 8 is collected: one mode
    finishes its pass over the suite before the next starts), benchmarks in the
    inner loop, so serial and parallel sweeps enumerate identically.

    ``pack`` is the sweep's registered pack: every task carries its directory,
    so pack benchmarks resolve inside pool workers, and the pack's own
    benchmarks carry its name (a mixed built-in + pack sweep tags only those).
    """
    names = list(names if names is not None else all_benchmark_names())
    mode_list = [modes] if isinstance(modes, str) else list(modes)
    for mode in mode_list:
        if mode not in MODES:
            raise KeyError(f"unknown mode {mode!r}; known: {sorted(MODES)}")
    if pack is None:
        return [ExperimentTask(benchmark=name, mode=mode, config=config)
                for mode in mode_list for name in names]
    return [ExperimentTask(benchmark=name, mode=mode, config=config, pack=pack.path,
                           pack_name=pack.name if name in pack.definitions else None)
            for mode in mode_list for name in names]


def execute_task(task: ExperimentTask) -> InferenceResult:
    """Run one task to completion in the current process.

    The task's pack and variant tags are stamped here (not in the store), so
    they survive the worker boundary: the parallel runner ships results as
    dict payloads."""
    if task.pack is not None:
        register_pack(task.pack)
    result = run_module(get_benchmark(task.benchmark), mode=task.mode, config=task.config)
    result.pack = task.pack_name
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

