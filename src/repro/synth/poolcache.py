"""Cross-iteration synthesis evaluation caching.

PR 3 extended Section 4.4's principle - never throw away work the loop will
redo - from synthesis bookkeeping into verification.  This module extends it
into *enumeration*: every ``MythSynthesizer.synthesize()`` call builds a
fresh :class:`~repro.synth.bottomup.TermPool` for every branch of every
match skeleton, and most of what those pools compute is identical to what
the pools of the previous CEGIS iteration computed, because V+ and V- only
grow between iterations.  Two stores exploit that:

* :class:`ApplicationMemo` memoizes ``program.apply(component.fn, *args)``
  per ``(component function, argument values)`` across **all** pools of a
  run - crash outcomes included, which the uncached path re-raises and
  re-catches on every iteration.  It keeps one ``args -> outcome`` table per
  component function value: first-order module globals are one stable
  object per run (so their applications replay across iterations), while
  the synthesizer's oracle-interpreted recursive call is one ``VNative``
  per oracle mapping (``MythSynthesizer._oracle_fns``: calls with the same
  examples share it, and a changed mapping gets a fresh one, so its
  applications never replay against a stale oracle - the oracle's expected
  values change as examples grow).  A pool fetches a component's table once and
  then looks up argument tuples only.

* :class:`PoolMemo` reuses whole pool skeletons: when a later synthesis call
  reaches a branch whose ``(context, components, example environments,
  bounds)`` key matches a previously built pool, the stored term structure
  is replayed verbatim and no behaviour vector is evaluated at all.  The
  environments are part of the key on purpose: observational-equivalence
  dedup depends on the behaviour vectors, so a pool built over different
  environments can keep a different set of terms - replaying it would change
  the candidate stream.  Branches whose examples *did* change rebuild their
  structure, but every component application over previously seen argument
  values is answered by the :class:`ApplicationMemo`, so only the genuinely
  new example environments are evaluated.

Both stores hang off one per-run :class:`SynthesisEvaluationCache`, created
by :class:`~repro.core.hanoi.HanoiInference` (and the three baselines) when
``HanoiConfig.synthesis_evaluation_caching`` is enabled (the default) and
threaded into every :class:`~repro.synth.bottomup.TermPool` the synthesizer
builds.  The cache changes no candidate: pools replay exactly the entries
the uncached construction would produce, in the same order - see
``tests/synth/test_poolcache.py`` for the end-to-end equivalence suite.
Hit/miss counters live in :class:`~repro.core.stats.InferenceStats`
(``pool_cache_hits`` / ``pool_cache_misses``), incremented at the use sites
so the cache itself stays a pure store.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..lang.values import Value, is_first_order, value_order

__all__ = ["SynthesisEvaluationCache", "ApplicationMemo", "PoolMemo",
           "PoolSnapshot", "CRASHED"]

#: Cap on the outcomes one :class:`ApplicationMemo` stores, over all tables.
MAX_APPLICATION_ENTRIES = 500_000
#: Cap on the pool skeletons one :class:`PoolMemo` stores.
MAX_POOL_ENTRIES = 4096


class _Crashed:
    """Sentinel outcome of a component application that raised."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return "CRASHED"

    def __reduce__(self):
        # Identity matters: use sites compare ``outcome is CRASHED``, so a
        # pickled copy must unpickle back to the module singleton.
        return (_restore_crashed, ())


#: The memoized outcome of an application that raised a language-level error
#: (the uncached enumeration catches the exception and drops the term).
CRASHED = _Crashed()


def _restore_crashed() -> "_Crashed":
    """Unpickle hook: resolve back to the :data:`CRASHED` singleton."""
    return CRASHED


class ApplicationMemo:
    """Memoizes component-application outcomes per ``(function, arguments)``.

    Outcomes live in one table per function value, keyed by the tuple of
    first-order argument values.  Function values hash by identity (module
    globals are one object per run; each oracle mapping's ``VNative`` keys
    its own table) and argument values hash structurally, so a
    pool that fetches a component's :meth:`table` once hashes only argument
    tuples afterwards.  :data:`MAX_APPLICATION_ENTRIES` bounds the entries
    of all tables together: a full memo keeps answering lookups but stops
    storing new outcomes, which only costs speed, never correctness.
    """

    def __init__(self) -> None:
        self._tables: Dict[Value, Dict[Tuple[Value, ...], object]] = {}
        self._entries = 0

    def __len__(self) -> int:
        return self._entries

    def table(self, fn: Value) -> Dict[Tuple[Value, ...], object]:
        """The ``args -> outcome`` table of ``fn``, for lookups only: add
        outcomes through :meth:`put`, which keeps the entry count."""
        table = self._tables.get(fn)
        if table is None:
            table = self._tables[fn] = {}
        return table

    def size(self, fn: Value) -> int:
        """The number of outcomes stored for ``fn``."""
        table = self._tables.get(fn)
        return 0 if table is None else len(table)

    def get(self, fn: Value, args: Tuple[Value, ...]) -> Optional[object]:
        """The stored outcome (a value or :data:`CRASHED`), or None if unseen."""
        table = self._tables.get(fn)
        return None if table is None else table.get(args)

    def put(self, fn: Value, args: Tuple[Value, ...], outcome: object) -> None:
        if self._entries < MAX_APPLICATION_ENTRIES:
            table = self.table(fn)
            if args not in table:
                self._entries += 1
            table[args] = outcome

    def export_outcomes(self, names: Dict[int, str]
                        ) -> List[Tuple[str, Tuple[Value, ...], object]]:
        """Picklable ``(global name, args, outcome)`` triples.

        ``names`` maps ``id(fn)`` to the module-global name bound to that
        function value, so identity-hashed keys can be re-bound to the fresh
        function objects of another process.  Tables keyed by anything else
        (the synthesizer's per-mapping oracle ``VNative``, enumerated function
        arguments) are skipped - their identities are meaningless outside
        this run.  Output order is hash-seed-independent.
        """
        exported = [
            (names[id(fn)], args, outcome)
            for fn, table in self._tables.items()
            if id(fn) in names
            for args, outcome in table.items()
            if all(is_first_order(v) for v in args)
            and (outcome is CRASHED or is_first_order(outcome))
        ]
        exported.sort(key=lambda item: (item[0],
                                        tuple(value_order(v) for v in item[1])))
        return exported

    def restore_outcomes(self, items: List[Tuple[str, Tuple[Value, ...], object]],
                         values: Dict[str, Value]) -> int:
        """Adopt :meth:`export_outcomes` output; returns the number adopted.

        ``values`` maps global names back to this process's function values;
        triples naming globals the module no longer defines are dropped.
        """
        adopted = 0
        for name, args, outcome in items:
            fn = values.get(name)
            if fn is None:
                continue
            if self._entries >= MAX_APPLICATION_ENTRIES:
                break
            table = self.table(fn)
            if args not in table:
                table[args] = outcome
                self._entries += 1
                adopted += 1
        return adopted


@dataclass(frozen=True)
class PoolSnapshot:
    """The replayable result of one pool construction.

    ``entries`` is every surviving :class:`~repro.synth.bottomup.TermEntry`
    paired with its result type, in insertion order (which reproduces the
    per-``(type, size)`` bucket order a fresh build would create);
    ``applications`` is the number of candidate combinations the build
    attempted, so a replay restores the pool's budget accounting; and
    ``evaluations`` is the number of per-environment component applications
    the build looked up (one per argument column, up to the first crash),
    so a replay credits the hit counter in the same unit the memo's own
    hits and misses use.
    """

    entries: Tuple[Tuple[object, object], ...]
    applications: int
    evaluations: int


class PoolMemo:
    """Stores finished pool skeletons per construction key.

    The key (built by ``TermPool._pool_key``) captures everything the
    construction depends on: the typed context, the component identities
    (name, signature, restrictions, and the function value itself), the
    example environments projected onto the context, and the size bound
    (the application cap is the constant ``bottomup.MAX_APPLICATIONS``).
    An exact match therefore replays byte-identically; anything
    less than an exact match rebuilds (backed by the application memo).
    :data:`MAX_POOL_ENTRIES` bounds memory the same way
    :data:`MAX_APPLICATION_ENTRIES` bounds the application memo.
    """

    def __init__(self) -> None:
        self._pools: Dict[tuple, PoolSnapshot] = {}

    def __len__(self) -> int:
        return len(self._pools)

    def get(self, key: tuple) -> Optional[PoolSnapshot]:
        return self._pools.get(key)

    def put(self, key: tuple, snapshot: PoolSnapshot) -> None:
        if len(self._pools) < MAX_POOL_ENTRIES:
            self._pools[key] = snapshot


class SynthesisEvaluationCache:
    """Per-run store of synthesis enumeration work.

    One instance is shared by every :class:`~repro.synth.bottomup.TermPool`
    a run's synthesizer builds; ablation modes simply never create one.
    """

    def __init__(self) -> None:
        self.applications = ApplicationMemo()
        self.pools = PoolMemo()

    def snapshot(self) -> Dict[str, object]:
        """Deterministic occupancy counts, stamped on ``cache-snapshot`` trace
        events so ``repro trace`` can report cache growth per run."""
        return {"application_entries": len(self.applications),
                "pool_entries": len(self.pools)}
