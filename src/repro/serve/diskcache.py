"""Persistent content-addressed disk store for the evaluation caches.

The in-memory caches (:mod:`repro.verify.evalcache`,
:mod:`repro.synth.poolcache`) replay candidate-independent work across CEGIS
*iterations*; this module replays it across *processes*.  Two pieces:

* :class:`DiskCacheStore` - a dumb, versioned, crash-tolerant blob store.
  Every entry is ``magic | version | sha256(payload) | payload`` written
  atomically (temp file + ``os.replace``), so a reader can always tell a
  complete entry from a truncated, corrupted, or foreign one *before*
  unpickling it.  Anything suspicious is reported through the ``warn``
  callback and treated as a miss - corruption costs speed, never
  correctness, and never a crash.  A run's ``warn`` appends a
  ``disk-cache-warning`` entry to its loop log and mirrors it to its trace
  emitter (:func:`repro.core.hanoi._disk_cache_warner`).  It holds those
  two, not the run: the run holds the binding and the binding the store,
  so a callback that reached the run would keep the run's whole state
  alive in a reference cycle after the run returns.

* :class:`PersistentCacheBinding` - the policy layer.  It computes one
  content key per cache *section* from the per-declaration dependency
  hashes of :func:`repro.analysis.canon.declaration_dependency_hashes`,
  sha256 over the structure (dataclass ``repr``) of a declaration and its
  transitive callees:

  ======= ============================== ===================================
  section one file per                   key covers
  ======= ============================== ===================================
  $spec$  module (spec stream)           spec dep-hash, concrete signature,
                                         verifier bounds, eval fuel
  $apps$  synthesis component (app memo) component dep-hash, eval fuel
  ======= ============================== ===================================

  The file name *is* the hash of everything its content depends on, so
  incremental invalidation needs no diffing: any structural edit to one
  declaration changes only the keys of the sections whose declaration
  transitively calls it, and every other section warm-starts.  Layout -
  comments, blank lines, line numbers - changes no key.  An entry under an
  old key is simply never looked up again.  Write-back is
  incremental too: a run writes a section only when its restore missed it
  or the run changed it, so a fully warm run leaves the store untouched.

Only first-order data is persisted.  Entries keyed by identity-hashed
function values are re-bound by module-global *name* where possible
(synthesis components) and dropped otherwise (the synthesizer's per-call
oracle, spec assignments holding functions); see the ``export_*`` seams on
the cache classes.  Restores change no verdict: the memos are pure replay
stores and every semantic input is part of the key, so a warm run's outcome
fingerprint is byte-identical to a cold run's
(``tests/serve/test_diskcache.py``).
"""

from __future__ import annotations

import hashlib
import os
import pickle
import struct
import tempfile
from dataclasses import astuple
from typing import Callable, Dict, List, Optional, Tuple

from ..analysis.canon import (
    PRELUDE_HASH,
    canonical_hash,
    declaration_dependency_hashes,
)
from ..core.config import HanoiConfig
from ..core.module import ModuleDefinition, ModuleInstance
from ..core.stats import InferenceStats
from ..lang.pretty import pretty_type
from ..lang.program import _prelude_declarations
from ..synth.poolcache import SynthesisEvaluationCache
from ..verify.evalcache import EvaluationCache

__all__ = ["DiskCacheStore", "PersistentCacheBinding", "STORE_VERSION"]

#: Store format version.  Bump on any incompatible change to the entry
#: layout *or* the pickled payload shapes; old entries then fail the header
#: check and are skipped (and eventually re-written) rather than misread.
#: Version 2: constructor and tuple values pickle through their constructors.
STORE_VERSION = 2

#: Leading bytes of every entry file - rejects foreign files instantly.
MAGIC = b"HANC"

_HEADER = struct.Struct(">4sI")
_DIGEST_SIZE = hashlib.sha256().digest_size

#: Payload format tag folded into every section key.  Changing what a
#: section stores (not how it is framed) bumps this instead of
#: :data:`STORE_VERSION`, invalidating by key rather than by header.
ENTRY_FORMAT = "fmt1"

WarnFn = Callable[[str, Dict[str, object]], None]


class DiskCacheStore:
    """Content-addressed blob store: ``root/v<N>/<section>/<k[:2]>/<k>.bin``.

    The store never raises on bad data.  A missing entry is a silent miss;
    a malformed one (wrong magic, wrong version, checksum mismatch, pickle
    failure) is a miss reported through ``warn`` so the caller can emit a
    ``disk-cache-warning`` event.  Writes are atomic and best-effort: an
    unwritable store degrades to a cache that never hits.
    """

    def __init__(self, root: str, warn: Optional[WarnFn] = None) -> None:
        self.root = os.path.abspath(root)
        self._warn = warn

    def entry_path(self, section: str, key: str) -> str:
        return os.path.join(self.root, f"v{STORE_VERSION}", section,
                            key[:2], f"{key}.bin")

    def _report(self, message: str, **detail: object) -> None:
        if self._warn is not None:
            self._warn(message, dict(detail))

    def get(self, section: str, key: str) -> Optional[object]:
        """The stored object, or ``None`` on miss or any form of damage."""
        path = self.entry_path(section, key)
        try:
            with open(path, "rb") as handle:
                blob = handle.read()
        except OSError:
            return None  # plain miss: never written (or unreadable store)
        if len(blob) < _HEADER.size + _DIGEST_SIZE:
            self._report("truncated disk-cache entry skipped",
                         section=section, key=key, size=len(blob))
            return None
        magic, version = _HEADER.unpack_from(blob)
        if magic != MAGIC:
            self._report("foreign disk-cache entry skipped",
                         section=section, key=key)
            return None
        if version != STORE_VERSION:
            self._report("wrong-version disk-cache entry skipped",
                         section=section, key=key, version=version)
            return None
        digest = blob[_HEADER.size:_HEADER.size + _DIGEST_SIZE]
        payload = blob[_HEADER.size + _DIGEST_SIZE:]
        if hashlib.sha256(payload).digest() != digest:
            self._report("corrupt disk-cache entry skipped (checksum mismatch)",
                         section=section, key=key)
            return None
        try:
            # The checksum only catches accidental damage: it is unkeyed
            # and stored beside the payload, so anyone who can write the
            # cache directory can forge a matching entry, and unpickling
            # that entry runs their code.  Trust the directory, not the
            # check.
            return pickle.loads(payload)
        except Exception as error:  # stale class layout, interrupted write
            self._report("unreadable disk-cache entry skipped",
                         section=section, key=key, error=repr(error))
            return None

    def put(self, section: str, key: str, obj: object) -> bool:
        """Atomically write one entry; ``False`` (with a warning) on failure."""
        path = self.entry_path(section, key)
        try:
            payload = pickle.dumps(obj, protocol=4)
            blob = (_HEADER.pack(MAGIC, STORE_VERSION)
                    + hashlib.sha256(payload).digest() + payload)
            directory = os.path.dirname(path)
            os.makedirs(directory, exist_ok=True)
            fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(blob)
                os.replace(tmp_path, path)
            except BaseException:
                try:
                    os.unlink(tmp_path)
                except OSError:
                    pass
                raise
            return True
        except Exception as error:
            self._report("disk-cache write failed",
                         section=section, key=key, error=repr(error))
            return False

    def stats(self) -> Dict[str, int]:
        """Entry counts per section, for inspecting a store's contents."""
        counts: Dict[str, int] = {}
        version_root = os.path.join(self.root, f"v{STORE_VERSION}")
        try:
            sections = sorted(os.listdir(version_root))
        except OSError:
            return counts
        for section in sections:
            section_root = os.path.join(version_root, section)
            total = 0
            for _, _, files in os.walk(section_root):
                total += sum(1 for name in files if name.endswith(".bin"))
            counts[section] = total
        return counts


class PersistentCacheBinding:
    """Binds one run's in-memory caches to a :class:`DiskCacheStore`.

    Constructed by :class:`~repro.core.hanoi.HanoiInference` when
    ``HanoiConfig.cache_dir`` is set; :meth:`restore` runs right after the
    caches are created, :meth:`persist` right after the loop finishes.  Both
    are best-effort - any failure downgrades to cold-start behaviour.
    """

    def __init__(self, store: DiskCacheStore, definition: ModuleDefinition,
                 instance: ModuleInstance, config: HanoiConfig) -> None:
        self.store = store
        self.definition = definition
        self.instance = instance
        self.config = config
        # Per-declaration dependency hashes are the invalidation unit; the
        # whole-module hash backstops names the analysis cannot see (it only
        # ever over-invalidates, never under-invalidates).  Both hash the
        # declarations the instance already checked, rather than parsing
        # the source again.
        decls = instance.program.declarations[len(_prelude_declarations()):]
        self._dep = declaration_dependency_hashes(definition, decls)
        self._fallback = canonical_hash(definition, decls)
        self._bounds = repr(astuple(config.verifier_bounds))
        self._fuel = str(config.eval_fuel)
        # What restore() left in memory, per section that hit: the spec
        # stream's state and each component's memo table size.  persist()
        # writes a section only when it is missing here or the run changed it.
        self._restored_spec: Optional[Tuple[int, int, bool]] = None
        self._restored_apps: Dict[str, int] = {}

    # -- keys ---------------------------------------------------------------

    def _hash_of(self, name: str) -> str:
        dep = self._dep.get(name)
        if dep is not None:
            return dep
        if self.instance.program.has_global(name) and name not in self._dep:
            # A prelude definition: its behaviour depends on the prelude
            # alone, so key it off the prelude hash and survive module edits.
            return hashlib.sha256(
                f"prelude\n{PRELUDE_HASH}\n{name}".encode("utf-8")).hexdigest()
        return self._fallback

    @staticmethod
    def _key(*parts: str) -> str:
        return hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()

    def spec_key(self) -> str:
        signature = ", ".join(pretty_type(t)
                              for t in self.instance.spec_concrete_signature())
        return self._key(ENTRY_FORMAT, "spec",
                         self._hash_of(self.definition.spec_name),
                         signature, self._bounds, self._fuel)

    def component_keys(self) -> Dict[str, str]:
        return {
            name: self._key(ENTRY_FORMAT, "apps", self._hash_of(name), self._fuel)
            for name in self.definition.synthesis_components
        }

    def _component_values(self) -> Dict[str, object]:
        program = self.instance.program
        return {name: program.global_value(name)
                for name in self.definition.synthesis_components
                if program.has_global(name)}

    # -- restore / persist --------------------------------------------------

    def restore(self, eval_cache: Optional[EvaluationCache],
                pool_cache: Optional[SynthesisEvaluationCache],
                stats: InferenceStats) -> None:
        """Warm the in-memory caches from disk, counting section hits/misses."""
        if eval_cache is not None:
            payload = self.store.get("spec", self.spec_key())
            if isinstance(payload, dict) and "entries" in payload:
                eval_cache.restore_entries(payload["entries"],
                                           payload.get("exhausted", False))
                self._restored_spec = _stream_state(eval_cache)
                stats.disk_cache_hits += 1
            else:
                stats.disk_cache_misses += 1
        if pool_cache is not None:
            values = self._component_values()
            hits = []
            for name, key in sorted(self.component_keys().items()):
                triples = self.store.get("apps", key)
                if isinstance(triples, list):
                    pool_cache.applications.restore_outcomes(triples, values)
                    hits.append(name)
                    stats.disk_cache_hits += 1
                else:
                    stats.disk_cache_misses += 1
            # Sizes once every section is in: aliased components share a table.
            self._restored_apps = {
                name: pool_cache.applications.size(values.get(name)) for name in hits}

    def persist(self, eval_cache: Optional[EvaluationCache],
                pool_cache: Optional[SynthesisEvaluationCache]) -> int:
        """Write the caches back; returns the number of sections written.

        A section is written only when :meth:`restore` missed it or the run
        changed it: the spec stream gained an entry, resolved a verdict or
        became exhausted, or a component's memo table grew.  A written
        section holds the restored entries plus whatever the run added, so
        repeated runs keep growing one merged snapshot per content key, and
        a run that changed nothing writes nothing.
        """
        written = 0
        if eval_cache is not None and _stream_state(eval_cache) != self._restored_spec:
            entries, exhausted = eval_cache.export_entries()
            written += self.store.put("spec", self.spec_key(),
                                      {"entries": entries, "exhausted": exhausted})
        if pool_cache is not None:
            memo = pool_cache.applications
            values = self._component_values()
            changed = {name for name in self.definition.synthesis_components
                       if memo.size(values.get(name)) != self._restored_apps.get(name)}
            names = {id(value): name for name, value in sorted(values.items())}
            names = {ident: name for ident, name in names.items() if name in changed}
            by_component: Dict[str, List[Tuple[str, tuple, object]]] = {}
            for triple in memo.export_outcomes(names):
                by_component.setdefault(triple[0], []).append(triple)
            for name, key in sorted(self.component_keys().items()):
                if name in changed:
                    written += self.store.put("apps", key, by_component.get(name, []))
        return written


def _stream_state(cache: EvaluationCache) -> Tuple[int, int, bool]:
    """Entries, resolved verdicts and exhaustion of a spec stream.  Entries
    are only appended and verdicts only resolved, so two states of one
    stream that agree here hold the same entries."""
    resolved = sum(entry.verdict is not None for entry in cache.entries)
    return (len(cache.entries), resolved, cache.exhausted)
