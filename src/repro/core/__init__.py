"""The paper's primary contribution: the Hanoi inference algorithm and the
module / specification / invariant model it operates over."""

from .config import (
    Deadline,
    FAST_VERIFIER_BOUNDS,
    HanoiConfig,
    InferenceTimeout,
    PAPER_VERIFIER_BOUNDS,
    VerifierBounds,
)
from .hanoi import HanoiInference, infer_invariant
from .module import ModuleDefinition, ModuleInstance, Operation
from .predicate import Predicate, always_true
from .result import InferenceResult, Status, StoredInvariant
from .stats import InferenceStats
from .trace import CounterexampleTrace, TraceEntry

__all__ = [
    "HanoiInference",
    "infer_invariant",
    "ModuleDefinition",
    "ModuleInstance",
    "Operation",
    "Predicate",
    "always_true",
    "InferenceResult",
    "Status",
    "StoredInvariant",
    "InferenceStats",
    "CounterexampleTrace",
    "TraceEntry",
    "HanoiConfig",
    "VerifierBounds",
    "Deadline",
    "InferenceTimeout",
    "PAPER_VERIFIER_BOUNDS",
    "FAST_VERIFIER_BOUNDS",
]
