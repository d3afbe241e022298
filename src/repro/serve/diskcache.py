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

  ======== ============================== ===================================
  section  one file per                   key covers
  ======== ============================== ===================================
  $spec$   module (spec stream)           spec dep-hash, concrete signature,
                                          verifier bounds, eval fuel
  $apps$   synthesis component (app memo) component dep-hash, eval fuel
  $synth$  module (synthesizer answers)   synth format tag, synthesizer
                                          class, concrete type, type
                                          declarations, prelude hash, each
                                          component's dep-hash, global names,
                                          eval fuel
  $checks$ module (inductiveness          checks format tag, the synth key's
           verdicts)                      facts from the synthesizer class
                                          to the global names, each
                                          operation's name, interface type
                                          and dep-hash, each helper's
                                          dep-hash, verifier bounds, eval
                                          fuel
  ======== ============================== ===================================

  The eval fuel is :data:`repro.lang.eval.DEFAULT_FUEL`, so editing it
  invalidates every stored entry.  A ``synth`` entry maps each synthesis
  input - V+ and V-, each value as its constructor tree, in
  :func:`~repro.lang.values.value_order` - to the synthesizer's answer: the
  syntax-tree code (:mod:`repro.lang.astcode`) of each candidate, best
  first, or the ``SynthesisFailure`` message.  Apart from the module,
  Myth's answer depends only on those two sets, so a warm run replays its
  synthesis calls instead of rebuilding their term pools.  The global names are in
  the key because the synthesizer picks pattern variables around them.  A
  ``checks`` entry maps one conditional-inductiveness check - its kind
  (visible, full, or the synthesis-recovery closure), the candidate's
  syntax-tree code (not for the closure check) and V+ as constructor trees
  in value order (not for the full check) - to its verdict and the number
  of structures it tested.  The check runs the operations (and the
  functional arguments built from them and the helpers) on values of the
  module's types and evaluates the candidate, which calls only synthesis
  components, so a warm run replays every check instead of running the
  module's operations.  The section exists exactly when ``synth`` does.

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
the cache classes.  The ``synth`` section holds only strings: a stored
candidate's tree is rebuilt from its code by
:func:`~repro.lang.astcode.decode_decl`, without the lexer, the parser or
recursion, and an answer of the wrong shape or a code that does not decode
is a warned miss.  So does the ``checks`` section: a verdict is the
structure count, plus, for a counterexample, the operation's name and the
codes of its inputs and outputs, decoded without recursion through the
interning constructors.  A
verdict of the wrong shape, a code naming no constructor of the program or
an operation the module lacks is a warned miss.  Restores change no
verdict: the memos are pure replay stores and every semantic input is part
of the key, so a warm run's outcome fingerprint is byte-identical to a cold
run's (``tests/serve/test_diskcache.py``, ``tests/serve/test_synth_replay.py``,
``tests/serve/test_check_replay.py``).
"""

from __future__ import annotations

import hashlib
import os
import pickle
import re
import struct
import tempfile
import time
from dataclasses import astuple
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..analysis.canon import (
    PRELUDE_HASH,
    canonical_hash,
    declaration_dependency_hashes,
)
from ..core.config import HanoiConfig
from ..core.module import ModuleDefinition, ModuleInstance
from ..core.predicate import Predicate
from ..core.stats import InferenceStats
from ..lang.ast import TypeDecl
from ..lang.astcode import decode_decl, encode_decl
from ..lang.eval import DEFAULT_FUEL
from ..lang.pretty import pretty_type
from ..lang.program import _prelude_declarations
from ..lang.values import Value, VCtor, VTuple, value_order
from ..synth.base import SynthesisFailure
from ..synth.myth import MythSynthesizer
from ..synth.poolcache import SynthesisEvaluationCache
from ..verify.evalcache import EvaluationCache
from ..verify.result import VALID, CheckResult, InductivenessCounterexample

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

#: Format tag of the ``synth`` section.  Its answers are only valid for the
#: search code that produced them, so any change to what the synthesizer
#: returns bumps this tag (``tests/serve/test_synth_replay.py`` pins it
#: together with a digest of the candidates of a few quick runs).
SYNTH_FORMAT = "synth2"

#: Format tag of the ``checks`` section.  Its verdicts are only valid for
#: the checker that produced them, so any change to what an inductiveness
#: check returns or counts bumps this tag (``tests/serve/test_check_replay.py``
#: pins it together with a digest of the verdicts of a few quick runs).
CHECKS_FORMAT = "checks2"

#: Bound on the entries one ``synth`` or ``checks`` section holds, like
#: :data:`repro.synth.poolcache.MAX_POOL_ENTRIES`.
MAX_SYNTH_ENTRIES = 4096

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
    caches are created, :meth:`replay` and :meth:`record` around each
    synthesizer call, :meth:`check_key`, :meth:`replay_check` and
    :meth:`record_check` around each inductiveness check, :meth:`persist`
    right after the loop finishes.  All are best-effort - any failure
    downgrades to cold-start behaviour.

    Only a :class:`~repro.synth.myth.MythSynthesizer` (or subclass) has its
    answers and verdicts stored: its answer is a function of the key and
    the example sets.  Any other synthesizer leaves the ``synth`` and
    ``checks`` sections alone.
    """

    def __init__(self, store: DiskCacheStore, definition: ModuleDefinition,
                 instance: ModuleInstance, config: HanoiConfig,
                 synthesizer: Optional[object] = None) -> None:
        self.store = store
        self.definition = definition
        self.instance = instance
        self.config = config
        # Per-declaration dependency hashes are the invalidation unit; the
        # whole-module hash backstops names the analysis cannot see (it only
        # ever over-invalidates, never under-invalidates), and is computed
        # on first use, which a module whose every name is a global never
        # makes.  Both hash the declarations the instance already checked,
        # rather than parsing the source again.
        decls = instance.program.declarations[len(_prelude_declarations()):]
        self._decls = decls
        self._dep = declaration_dependency_hashes(definition, decls)
        self._fallback: Optional[str] = None
        self._bounds = repr(astuple(config.verifier_bounds))
        self._fuel = str(DEFAULT_FUEL)
        self._operations = {op.name for op in definition.operations}
        self._synth_key: Optional[str] = None
        self._checks_key: Optional[str] = None
        if isinstance(synthesizer, MythSynthesizer):
            facts = self._module_facts(synthesizer, decls)
            self._synth_key = self._key(ENTRY_FORMAT, SYNTH_FORMAT, *facts, self._fuel)
            self._checks_key = self._key(
                ENTRY_FORMAT, CHECKS_FORMAT, *facts,
                *(f"operation {op.name} {pretty_type(op.signature)} "
                  f"{self._hash_of(op.name)}" for op in definition.operations),
                *(f"helper {name} {self._hash_of(name)}"
                  for name in definition.helper_functions),
                self._bounds, self._fuel)
        # What restore() left in memory, per section that hit: the spec
        # stream's state and each component's memo table size.  persist()
        # writes a section only when it is missing here or the run changed it.
        self._restored_spec: Optional[Tuple[int, int, bool]] = None
        self._restored_apps: Dict[str, int] = {}
        # The synth and checks sections' entries (``None`` until restored),
        # the sections the run must write back, and each value's encoding.
        self._answers: Optional[Dict[str, object]] = None
        self._checks: Optional[Dict[str, object]] = None
        self._changed: Set[str] = set()
        self._codes: Dict[Value, str] = {}

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
        if self._fallback is None:
            self._fallback = canonical_hash(self.definition, self._decls)
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

    def _module_facts(self, synthesizer: MythSynthesizer,
                      decls: List[object]) -> List[str]:
        """What the ``synth`` and ``checks`` keys share: the synthesizer's
        class, the concrete type, the type declarations, the prelude hash,
        each synthesis component with its dependency hash (a candidate calls
        only these) and the global names."""
        # _hash_of keys a global that no source declaration defines as a
        # prelude function (hanoi-fold's installed fold_* components too),
        # so the type declarations are keyed explicitly.
        cls = type(synthesizer)
        return [f"{cls.__module__}.{cls.__qualname__}",
                pretty_type(self.instance.concrete_type), PRELUDE_HASH,
                *(repr(decl) for decl in decls if isinstance(decl, TypeDecl)),
                *(f"{c.name} {self._hash_of(c.name)}" for c in synthesizer.components),
                " ".join(sorted(self.instance.program.evaluator.globals))]

    def synth_key(self) -> Optional[str]:
        """The ``synth`` section's key, or ``None`` when its synthesizer's
        answers are not stored."""
        return self._synth_key

    def checks_key(self) -> Optional[str]:
        """The ``checks`` section's key; ``None`` exactly when
        :meth:`synth_key` is."""
        return self._checks_key

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
        if self._synth_key is not None:
            self._answers = self._restore_entries("synth", self._synth_key, stats)
            self._checks = self._restore_entries("checks", self._checks_key, stats)

    def _restore_entries(self, section: str, key: str,
                         stats: InferenceStats) -> Dict[str, object]:
        """A ``synth`` or ``checks`` section's entries; on a miss, none, and
        the section is written back."""
        entries = self.store.get(section, key)
        if isinstance(entries, dict):
            stats.disk_cache_hits += 1
            return entries
        self._changed.add(section)
        stats.disk_cache_misses += 1
        return {}

    # -- synthesizer answers ------------------------------------------------

    def _code(self, value: Value) -> str:
        """``value`` as its constructor tree, never its sugared rendering."""
        code = self._codes.get(value)
        if code is None:
            if isinstance(value, VCtor):
                code = value.ctor if value.payload is None else (
                    f"{value.ctor}({self._code(value.payload)})")
            elif isinstance(value, VTuple):
                code = "(" + ",".join(map(self._code, value.items)) + ")"
            else:
                raise ValueError("a function value has no stable encoding")
            self._codes[value] = code
        return code

    def _entry_key(self, positives: Sequence[Value],
                   negatives: Sequence[Value]) -> Optional[str]:
        """The answer's key within the section; ``None`` for example sets
        holding a function value, whose answers are not stored."""
        try:
            return self._key(*map(self._code, positives), "-",
                             *map(self._code, negatives))
        except ValueError:
            return None

    def replay(self, positives: Sequence[Value], negatives: Sequence[Value],
               stats: InferenceStats) -> Optional[List[Predicate]]:
        """The stored answer for V+ and V- (each sorted by ``value_order``):
        the candidates rebuilt from their codes, or the stored
        ``SynthesisFailure`` raised again.  ``None`` on a miss.  A replayed
        call counts as a synthesis call and a replay."""
        if not self._answers:
            return None
        key = self._entry_key(positives, negatives)
        answer = self._answers.get(key)
        if answer is None:
            return None
        started = time.perf_counter()
        failed = isinstance(answer, str)
        candidates = None if failed else self._rebuild(key, answer)
        if candidates is None and not failed:
            return None
        stats.synthesis_calls += 1
        stats.synthesis_replays += 1
        stats.synthesis_time += time.perf_counter() - started
        if failed:
            raise SynthesisFailure(answer)
        return candidates

    def _rebuild(self, key: str, answer: object) -> Optional[List[Predicate]]:
        program = self.instance.program
        try:
            if not (isinstance(answer, tuple) and answer):
                raise ValueError(f"malformed answer {type(answer).__name__}")
            return [Predicate(decode_decl(code), program) for code in answer]
        except ValueError as error:
            del self._answers[key]
            self.store._report("unusable synth disk-cache entry skipped",
                               section="synth", key=self._synth_key,
                               error=repr(error))
            return None

    def record(self, positives: Sequence[Value], negatives: Sequence[Value],
               answer: object) -> None:
        """Store the synthesizer's answer for V+ and V-: its candidates'
        codes, or the ``SynthesisFailure`` it raised.  An answer with a
        candidate that has no code (one too large to decode) is not stored,
        so a warm run synthesizes it again as a cold run does."""
        if self._answers is None or len(self._answers) >= MAX_SYNTH_ENTRIES:
            return
        key = self._entry_key(positives, negatives)
        if key is None:
            return
        if isinstance(answer, SynthesisFailure):
            self._answers[key] = str(answer)
        else:
            try:
                self._answers[key] = tuple(encode_decl(c.decl) for c in answer)
            except ValueError:
                return
        self._changed.add("synth")

    # -- inductiveness verdicts ----------------------------------------------

    def check_key(self, kind: str, candidate: Optional[Predicate],
                  positives: Iterable[Value]) -> Optional[str]:
        """The entry key of one inductiveness check: its ``kind``
        (``visible``, ``full`` or ``closure``), the candidate's code unless
        the check is the closure check, and all of V+ in
        :func:`~repro.lang.values.value_order` unless it is the full check.
        ``None`` when no verdict is stored."""
        if self._checks is None:
            return None
        parts = [kind]
        try:
            if candidate is not None:
                parts.append(encode_decl(candidate.decl))
            if kind != "full":
                parts.extend(map(self._code, sorted(positives, key=value_order)))
        except ValueError:
            return None
        return self._key(*parts)

    def replay_check(self, key: Optional[str],
                     stats: InferenceStats) -> Optional[CheckResult]:
        """The stored verdict under ``key``: ``VALID`` or the rebuilt
        counterexample.  ``None`` on a miss.  A replayed check counts as a
        verification call, with the structures the check tested, and as an
        inductiveness check and replay."""
        if not self._checks or key not in self._checks:
            return None
        started = time.perf_counter()
        replayed = self._rebuild_check(key, self._checks[key])
        if replayed is None:
            return None
        verdict, structures = replayed
        stats.verification_calls += 1
        stats.inductiveness_checks += 1
        stats.inductiveness_replays += 1
        stats.structures_tested += structures
        stats.verification_time += time.perf_counter() - started
        return verdict

    def _rebuild_check(self, key: str,
                       entry: object) -> Optional[Tuple[CheckResult, int]]:
        try:
            if not (isinstance(entry, tuple) and len(entry) in (1, 4)
                    and all(isinstance(part, str) for part in entry)
                    and entry[0].isdigit()):
                raise ValueError(f"malformed verdict {type(entry).__name__}")
            structures = int(entry[0])
            if len(entry) == 1:
                return VALID, structures
            _, operation, inputs, outputs = entry
            if operation not in self._operations:
                raise ValueError(f"unknown operation {operation!r}")
            if not outputs:
                raise ValueError("a counterexample without outputs")
            return InductivenessCounterexample(
                operation, tuple(map(self._decode, inputs.split())),
                tuple(map(self._decode, outputs.split()))), structures
        except ValueError as error:
            del self._checks[key]
            self.store._report("unusable checks disk-cache entry skipped",
                               section="checks", key=self._checks_key,
                               error=repr(error))
            return None

    def record_check(self, key: Optional[str], result: CheckResult,
                     structures: int) -> None:
        """Store the verdict of the check under ``key``, with the number of
        structures it tested."""
        if key is None or len(self._checks) >= MAX_SYNTH_ENTRIES:
            return
        if isinstance(result, InductivenessCounterexample):
            try:
                entry: Tuple[str, ...] = (
                    str(structures), result.operation,
                    " ".join(map(self._code, result.inputs)),
                    " ".join(map(self._code, result.outputs)))
            except ValueError:
                return
        else:
            entry = (str(structures),)
        self._checks[key] = entry
        self._changed.add("checks")

    def _decode(self, code: str) -> Value:
        """The value :meth:`_code` wrote as ``code``, built bottom-up without
        recursion, so interned like any other; ``ValueError`` for a code
        that is not a value of this program."""
        tokens = _CODE_TOKEN.findall(code)
        if "".join(tokens) != code:
            raise ValueError(f"malformed value code {code!r}")
        ctors = self.instance.program.types.ctors
        # Open constructor applications and tuples: [name or None, items].
        stack: List[list] = []
        position = 0
        try:
            while True:
                token = tokens[position]
                position += 1
                if token == "(":
                    if tokens[position] != ")":
                        stack.append([None, []])
                        continue
                    position += 1
                    value: Value = VTuple(())
                elif token in ",)":
                    raise ValueError(f"malformed value code {code!r}")
                elif position < len(tokens) and tokens[position] == "(":
                    position += 1
                    stack.append([token, []])
                    continue
                else:
                    value = _constructed(ctors, token, None)
                # Close every application and tuple the value completes.
                while stack:
                    frame = stack[-1]
                    frame[1].append(value)
                    token = tokens[position]
                    position += 1
                    if token == "," and frame[0] is None:
                        break
                    if token != ")" or (frame[0] is not None and len(frame[1]) != 1):
                        raise ValueError(f"malformed value code {code!r}")
                    stack.pop()
                    name, items = frame
                    value = (VTuple(tuple(items)) if name is None
                             else _constructed(ctors, name, items[0]))
                else:
                    if position != len(tokens):
                        raise ValueError(f"malformed value code {code!r}")
                    return value
        except IndexError:
            raise ValueError(f"truncated value code {code!r}") from None

    def persist(self, eval_cache: Optional[EvaluationCache],
                pool_cache: Optional[SynthesisEvaluationCache]) -> int:
        """Write the caches back; returns the number of sections written.

        A section is written only when :meth:`restore` missed it or the run
        changed it: the spec stream gained an entry, resolved a verdict or
        became exhausted, a component's memo table grew, or the synthesizer
        answered a call the ``synth`` section did not hold.  A written
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
        for section, key, entries in (("synth", self._synth_key, self._answers),
                                      ("checks", self._checks_key, self._checks)):
            if section in self._changed:
                written += self.store.put(section, key, dict(sorted(entries.items())))
        return written


#: A value code's tokens: a constructor name, or one of ``(``, ``,``, ``)``.
_CODE_TOKEN = re.compile(r"[(),]|[^(),\s]+")


def _constructed(ctors: Dict[str, object], name: str,
                 payload: Optional[Value]) -> VCtor:
    """``name`` applied to ``payload``, if the program has such a constructor."""
    info = ctors.get(name)
    if info is None:
        raise ValueError(f"unknown constructor {name!r}")
    if (info.payload is None) != (payload is None):
        raise ValueError(f"constructor {name!r} applied to the wrong payload")
    return VCtor(name, payload)


def _stream_state(cache: EvaluationCache) -> Tuple[int, int, bool]:
    """Entries, resolved verdicts and exhaustion of a spec stream.  Entries
    are only appended and verdicts only resolved, so two states of one
    stream that agree here hold the same entries."""
    resolved = sum(entry.verdict is not None for entry in cache.entries)
    return (len(cache.entries), resolved, cache.exhausted)
