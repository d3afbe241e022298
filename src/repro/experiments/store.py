"""Persistent experiment results: append-only JSONL with resume support.

A :class:`ResultStore` wraps one JSONL file.  Each completed
:class:`~repro.core.result.InferenceResult` is appended as a single JSON line
(via ``InferenceResult.to_dict``) the moment it lands, so an interrupted sweep
loses at most the in-flight benchmarks.  On restart, the keys of
:meth:`ResultStore.load`'s rows tell the harness which tasks are already done
and can be skipped (the ``--resume`` flag of ``python -m repro run``).

A partially written final line - the signature of a run killed mid-append -
is tolerated and skipped on load, and so is a JSON line that is not a result
row.
"""

from __future__ import annotations

import json
import os
from typing import Iterator, List

from ..core.result import InferenceResult

__all__ = ["ResultStore"]

#: The fields ``InferenceResult.from_dict`` cannot do without.
_ROW_FIELDS = frozenset(("benchmark", "mode", "status"))


class ResultStore:
    """An append-only JSONL store of inference results.

    The store keeps no file handle open between operations: every
    :meth:`append` opens, writes one line, flushes, and closes, so results
    survive crashes and several processes may read the file while a sweep is
    still writing it.
    """

    def __init__(self, path: str):
        self.path = os.fspath(path)

    # -- writing ----------------------------------------------------------------

    def append(self, result: InferenceResult) -> None:
        """Persist one result as a single JSON line (crash-safe: flushed and
        closed immediately)."""
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        line = json.dumps(result.to_dict(), separators=(",", ":"), default=str)
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
            handle.flush()

    # -- reading ----------------------------------------------------------------

    def exists(self) -> bool:
        return os.path.exists(self.path)

    def _iter_records(self) -> Iterator[dict]:
        if not self.exists():
            return
        with open(self.path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    # A truncated trailing line from an interrupted append;
                    # the pair it would have recorded simply re-runs.
                    continue
                # A JSON line that is not a result row is skipped the same way.
                if isinstance(record, dict) and _ROW_FIELDS <= record.keys():
                    yield record

    def load(self) -> List[InferenceResult]:
        """Every stored result, in file (completion) order.

        Later entries win over earlier ones for the same
        :attr:`~repro.core.result.InferenceResult.key`, ``(benchmark, mode,
        pack, variant)``, so re-running a pair into the same store supersedes
        its old row.  The pack tag is part of the key: a pack
        benchmark named like a built-in coexists with it instead of silently
        superseding it.  So is the variant tag: the differential fuzzer's
        cache-configuration rows for one pair all coexist.
        """
        by_key = {}
        for record in self._iter_records():
            result = InferenceResult.from_dict(record)
            by_key[result.key] = result
        return list(by_key.values())

    def __len__(self) -> int:
        return sum(1 for _ in self._iter_records())

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"ResultStore({self.path!r})"
