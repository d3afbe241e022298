"""repro: data-driven inference of representation invariants.

A from-scratch Python reproduction of "Data-Driven Inference of
Representation Invariants" (Miltner, Padhi, Millstein, Walker - PLDI 2020):
the Hanoi CEGIS algorithm built on visible inductiveness, the object language
its modules are written in, an enumerative verifier and a Myth-like
synthesizer, the prior-work baselines, the 28-benchmark suite, and the
harnesses that regenerate the paper's tables and figures.

Quick start::

    from repro import infer_invariant, get_benchmark, HanoiConfig

    result = infer_invariant(get_benchmark("/coq/unique-list-::-set"),
                             HanoiConfig(timeout_seconds=60))
    print(result.status)
    print(result.render_invariant())
"""

from .baselines import (
    ConjunctiveStrengtheningInference,
    LinearArbitraryInference,
    OneShotInference,
)
from .core import (
    HanoiConfig,
    HanoiInference,
    InferenceResult,
    InferenceStats,
    ModuleDefinition,
    ModuleInstance,
    Operation,
    Predicate,
    Status,
    VerifierBounds,
    infer_invariant,
)
from .spec import (
    SpecFileError,
    load_module_file,
    load_module_text,
    load_pack,
    register_pack,
    render_module,
)
from .suite import (
    BENCHMARKS,
    FAST_BENCHMARKS,
    GROUPS,
    PAPER_RESULTS,
    all_benchmark_names,
    benchmarks_in_group,
    fast_benchmarks,
    get_benchmark,
)
from .synth import FoldSynthesizer, MythSynthesizer, SynthesisFailure

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core
    "HanoiInference",
    "infer_invariant",
    "HanoiConfig",
    "VerifierBounds",
    "ModuleDefinition",
    "ModuleInstance",
    "Operation",
    "Predicate",
    "InferenceResult",
    "InferenceStats",
    "Status",
    # synthesis
    "MythSynthesizer",
    "FoldSynthesizer",
    "SynthesisFailure",
    # baselines
    "ConjunctiveStrengtheningInference",
    "LinearArbitraryInference",
    "OneShotInference",
    # benchmark definition files (.hanoi)
    "SpecFileError",
    "load_module_file",
    "load_module_text",
    "render_module",
    "load_pack",
    "register_pack",
    # suite
    "BENCHMARKS",
    "FAST_BENCHMARKS",
    "GROUPS",
    "PAPER_RESULTS",
    "get_benchmark",
    "all_benchmark_names",
    "benchmarks_in_group",
    "fast_benchmarks",
]
