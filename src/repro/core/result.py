"""Inference results.

An :class:`InferenceResult` captures everything the experiment harness needs
about one run: the inferred invariant (if any), a status, the statistics that
populate the Figure-7 columns, and an event log from which the Figure-5 style
trace illustrations are rendered.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .stats import InferenceStats

__all__ = ["InferenceResult", "Status", "StoredInvariant"]


class Status:
    """Outcome of an inference run (string constants, not an enum, so results
    serialize trivially)."""

    SUCCESS = "success"
    TIMEOUT = "timeout"
    #: The synthesizer could not produce a predicate (Figure 4's "No predicate found").
    SYNTHESIS_FAILURE = "synthesis-failure"
    #: A constructible value violating the specification was found
    #: (Figure 4's "Counterexample N"): the module does not satisfy the spec.
    SPEC_VIOLATION = "spec-violation"
    #: The run ended without success for another reason (iteration cap,
    #: unsupported feature, or an invariant that failed post-hoc validation).
    FAILURE = "failure"


@dataclass(frozen=True)
class StoredInvariant:
    """A deserialized invariant: its reported size and rendered source.

    Live runs carry a full :class:`~repro.core.predicate.Predicate`; results
    loaded back from a store only need the two facts the experiment tables
    report, so this stand-in offers the same ``size`` / ``render()`` surface.
    """

    size: Optional[int]
    rendered: str

    def render(self) -> str:
        return self.rendered

    def __str__(self) -> str:
        return self.rendered


@dataclass
class InferenceResult:
    """The outcome of running one inference mode on one benchmark."""

    benchmark: str
    mode: str
    status: str
    invariant: Optional[object]  # Predicate-like: callable with .size / .render()
    stats: InferenceStats
    message: str = ""
    iterations: int = 0
    events: List[Dict[str, object]] = field(default_factory=list)
    #: Name of the benchmark pack the benchmark came from (None = built-in
    #: suite).  Stamped by ``execute_task`` (or the pool, for a task it
    #: killed) from the task's ``pack_name``.
    pack: Optional[str] = None
    #: Configuration-variant tag (None = the sweep's single configuration).
    #: The differential fuzzer runs every benchmark under several cache
    #: configurations; the tag keeps their rows distinct in the store the way
    #: ``pack`` keeps same-named benchmarks distinct.
    variant: Optional[str] = None

    @property
    def key(self) -> Tuple[str, str, Optional[str], Optional[str]]:
        """The ``(benchmark, mode, pack, variant)`` identity of a stored row:
        what the result store deduplicates on and what ``--resume`` matches
        an :attr:`~repro.experiments.runner.ExperimentTask.key` against."""
        return (self.benchmark, self.mode, self.pack, self.variant)

    @property
    def succeeded(self) -> bool:
        return self.status == Status.SUCCESS

    @property
    def invariant_size(self) -> Optional[int]:
        if self.invariant is None:
            return None
        return getattr(self.invariant, "size", None)

    def render_invariant(self) -> str:
        if self.invariant is None:
            return "(none)"
        render = getattr(self.invariant, "render", None)
        return render() if callable(render) else str(self.invariant)

    # -- serialization ----------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """A JSON-safe dictionary capturing the whole result.

        This is the on-disk / cross-process representation used by the result
        store and the parallel runner.  The invariant is stored as its size and
        rendered source (the facts the tables report); :meth:`from_dict`
        rebuilds it as a :class:`StoredInvariant`.
        """
        data = {
            "benchmark": self.benchmark,
            "mode": self.mode,
            "status": self.status,
            "message": self.message,
            "iterations": self.iterations,
            "invariant": (
                None
                if self.invariant is None
                else {"size": self.invariant_size, "rendered": self.render_invariant()}
            ),
            "stats": self.stats.to_dict(),
            "events": list(self.events),
        }
        if self.pack is not None:
            data["pack"] = self.pack
        if self.variant is not None:
            data["variant"] = self.variant
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "InferenceResult":
        """Rebuild a result persisted by :meth:`to_dict`."""
        invariant_data = data.get("invariant")
        invariant: Optional[object] = None
        if invariant_data is not None:
            invariant = StoredInvariant(
                size=invariant_data.get("size"),
                rendered=invariant_data.get("rendered", ""),
            )
        return cls(
            benchmark=data["benchmark"],
            mode=data["mode"],
            status=data["status"],
            invariant=invariant,
            stats=InferenceStats.from_dict(data.get("stats", {})),
            message=data.get("message", ""),
            iterations=int(data.get("iterations", 0)),
            events=list(data.get("events", [])),
            pack=data.get("pack"),
            variant=data.get("variant"),
        )
