"""The persistent disk-cache store: framing, corruption tolerance, keys."""

import os
import struct

import pytest

from repro.core.config import FAST_VERIFIER_BOUNDS, HanoiConfig
from repro.serve.diskcache import (
    MAGIC,
    STORE_VERSION,
    DiskCacheStore,
    PersistentCacheBinding,
)
from repro.experiments.runner import run_module
from repro.spec.loader import load_module_file

CONFIG = HanoiConfig(verifier_bounds=FAST_VERIFIER_BOUNDS, timeout_seconds=60)
EXAMPLE = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                       "examples", "modules", "bounded-stack.hanoi")


def _store(tmp_path):
    warnings = []
    store = DiskCacheStore(str(tmp_path / "cache"),
                           warn=lambda msg, detail: warnings.append((msg, detail)))
    return store, warnings


def test_round_trip(tmp_path):
    store, warnings = _store(tmp_path)
    payload = {"entries": [(1, 2, 3)], "exhausted": False}
    assert store.put("spec", "ab" * 32, payload)
    assert store.get("spec", "ab" * 32) == payload
    assert warnings == []


def test_missing_entry_is_a_silent_miss(tmp_path):
    store, warnings = _store(tmp_path)
    assert store.get("spec", "cd" * 32) is None
    assert warnings == []  # plain miss: no warning


def test_stats_counts_entries_per_section(tmp_path):
    store, _ = _store(tmp_path)
    store.put("spec", "aa" * 32, 1)
    store.put("apps", "bb" * 32, 2)
    store.put("apps", "cc" * 32, 3)
    assert store.stats() == {"apps": 2, "spec": 1}


# -- corruption tolerance: every kind of damage is a warned miss, never a
# -- crash, exercised against real on-disk entries ---------------------------


def _entry_path(store):
    store.put("apps", "ee" * 32, ["payload"])
    return store.entry_path("apps", "ee" * 32)


def test_truncated_entry_skipped_with_warning(tmp_path):
    store, warnings = _store(tmp_path)
    path = _entry_path(store)
    with open(path, "r+b") as handle:
        handle.truncate(5)
    assert store.get("apps", "ee" * 32) is None
    assert any("truncated" in msg for msg, _ in warnings)


def test_garbage_entry_skipped_with_warning(tmp_path):
    store, warnings = _store(tmp_path)
    path = _entry_path(store)
    with open(path, "wb") as handle:
        handle.write(os.urandom(256))
    assert store.get("apps", "ee" * 32) is None
    assert any("foreign" in msg or "corrupt" in msg for msg, _ in warnings)


def test_wrong_version_entry_skipped_with_warning(tmp_path):
    store, warnings = _store(tmp_path)
    path = _entry_path(store)
    with open(path, "r+b") as handle:
        blob = bytearray(handle.read())
        blob[:8] = struct.pack(">4sI", MAGIC, STORE_VERSION + 1)
        handle.seek(0)
        handle.write(blob)
    assert store.get("apps", "ee" * 32) is None
    assert any("wrong-version" in msg for msg, _ in warnings)


@pytest.mark.parametrize("offset", [8, 24, -1])
def test_flipped_byte_fails_checksum(tmp_path, offset):
    """Flip one byte anywhere past the header: checksum rejects the entry."""
    store, warnings = _store(tmp_path)
    path = _entry_path(store)
    with open(path, "r+b") as handle:
        blob = bytearray(handle.read())
        blob[offset] ^= 0xFF
        handle.seek(0)
        handle.write(blob)
    assert store.get("apps", "ee" * 32) is None
    assert warnings, "damage must be reported"


def test_unwritable_store_degrades_to_never_hitting(tmp_path):
    blocker = tmp_path / "blocked"
    blocker.write_text("a file where the store root should be")
    warnings = []
    store = DiskCacheStore(str(blocker),
                           warn=lambda msg, detail: warnings.append(msg))
    assert store.put("spec", "aa" * 32, 1) is False
    assert any("write failed" in msg for msg in warnings)
    assert store.get("spec", "aa" * 32) is None


# -- the binding's content keys ----------------------------------------------


@pytest.fixture(scope="module")
def binding():
    definition = load_module_file(EXAMPLE)
    return PersistentCacheBinding(DiskCacheStore("/nonexistent"),
                                  definition, definition.instantiate(), CONFIG)


def test_section_keys_are_hex_and_per_declaration(binding):
    keys = binding.component_keys()
    assert set(keys) == {"notb", "andb", "orb", "nat_eq", "nat_leq", "nat_lt",
                         "size", "within_bound"}
    all_keys = [binding.spec_key(), *keys.values()]
    assert len(set(all_keys)) == len(all_keys)
    assert all(len(k) == 64 and int(k, 16) >= 0 for k in all_keys)


def test_keys_are_deterministic(binding):
    definition = load_module_file(EXAMPLE)
    other = PersistentCacheBinding(DiskCacheStore("/nonexistent"),
                                   definition, definition.instantiate(), CONFIG)
    assert other.spec_key() == binding.spec_key()
    assert other.component_keys() == binding.component_keys()


def _edited_binding(old, new):
    from repro.spec.loader import load_module_text

    text = open(EXAMPLE, encoding="utf-8").read()
    edited_text = text.replace(old, new, 1)
    assert edited_text != text
    definition = load_module_text(edited_text, path=EXAMPLE)
    return PersistentCacheBinding(DiskCacheStore("/nonexistent"), definition,
                                  definition.instantiate(), CONFIG)


def test_editing_an_operation_nothing_stored_calls_keeps_every_key(binding):
    # Neither the spec nor any synthesis component calls ``pop``.
    edited = _edited_binding("| Nil -> Nil", "| Nil -> empty")
    assert edited.spec_key() == binding.spec_key()
    assert edited.component_keys() == binding.component_keys()


def test_editing_an_operation_the_spec_calls_invalidates_only_the_spec_key(binding):
    # The spec calls ``peek``; no synthesis component does.
    edited = _edited_binding(
        "| Nil -> NoneN",
        "| Nil -> (match s with | Nil -> NoneN | Cons (a, b) -> NoneN)")
    assert edited.spec_key() != binding.spec_key()
    assert edited.component_keys() == binding.component_keys()


def test_a_run_stores_one_spec_section_and_one_per_component(tmp_path, binding):
    root = str(tmp_path / "cache")
    result = run_module(load_module_file(EXAMPLE), config=CONFIG.with_cache_dir(root))
    assert result.succeeded
    stats = DiskCacheStore(root).stats()
    assert stats == {"spec": 1, "apps": len(binding.component_keys()), "synth": 1,
                     "checks": 1}
    assert result.stats.disk_cache_misses == sum(stats.values())


def test_bounds_and_fuel_are_part_of_every_key(binding, monkeypatch):
    from dataclasses import replace

    from repro.serve import diskcache

    definition = load_module_file(EXAMPLE)

    def rebind(config):
        return PersistentCacheBinding(DiskCacheStore("/nonexistent"),
                                      definition, definition.instantiate(), config)

    # The verifier bounds shape only the spec stream.
    wider = replace(FAST_VERIFIER_BOUNDS, max_total=FAST_VERIFIER_BOUNDS.max_total + 1)
    rebound = rebind(replace(CONFIG, verifier_bounds=wider))
    assert rebound.spec_key() != binding.spec_key()
    assert rebound.component_keys() == binding.component_keys()

    monkeypatch.setattr(diskcache, "DEFAULT_FUEL", diskcache.DEFAULT_FUEL + 1)
    other = rebind(CONFIG)
    assert other.spec_key() != binding.spec_key()
    assert set(other.component_keys().values()).isdisjoint(
        binding.component_keys().values())


# -- write-back: only what the restore missed or the run changed ---------------


@pytest.fixture
def persisted(monkeypatch):
    """The section counts ``persist`` returns, one per run, in run order."""
    counts = []
    original = PersistentCacheBinding.persist

    def recording(self, eval_cache, pool_cache):
        counts.append(original(self, eval_cache, pool_cache))
        return counts[-1]

    monkeypatch.setattr(PersistentCacheBinding, "persist", recording)
    return counts


def _entry_files(root):
    """``path -> (inode, bytes)`` of every entry in the store."""
    files = {}
    for directory, _, names in os.walk(root):
        for name in names:
            if name.endswith(".bin"):
                path = os.path.join(directory, name)
                with open(path, "rb") as handle:
                    files[path] = (os.stat(path).st_ino, handle.read())
    return files


def _infer_text(text, root):
    from repro.spec.loader import load_module_text

    result = run_module(load_module_text(text, path=EXAMPLE),
                        config=CONFIG.with_cache_dir(root))
    assert result.succeeded
    return result


def test_a_warm_run_writes_nothing_and_edits_write_what_they_changed(tmp_path, persisted):
    root = str(tmp_path / "cache")
    text = open(EXAMPLE, encoding="utf-8").read()
    _infer_text(text, root)
    assert persisted == [11]

    before = _entry_files(root)
    _infer_text(text, root)
    assert persisted[-1] == 0
    assert _entry_files(root) == before  # same inodes, same bytes

    # ``pop`` is an operation but called by nothing else stored: only the
    # inductiveness verdicts' key moves, and only that section is written.
    _infer_text(text.replace("| Nil -> Nil", "| Nil -> empty", 1), root)
    assert persisted[-1] == 1

    # ``peek`` is an operation the spec calls: the spec and checks keys
    # move, and only those two sections are written.
    peek = text.replace(
        "| Nil -> NoneN",
        "| Nil -> (match s with | Nil -> NoneN | Cons (a, b) -> NoneN)", 1)
    _infer_text(peek, root)
    assert persisted[-1] == 2
    _infer_text(peek, root)
    assert persisted == [11, 0, 1, 2, 0]


def test_a_run_that_extends_the_spec_stream_rewrites_it(tmp_path, persisted,
                                                         monkeypatch):
    from repro.core import run

    root = str(tmp_path / "cache")
    text = open(EXAMPLE, encoding="utf-8").read()
    with monkeypatch.context() as patch:
        patch.setattr(run, "MAX_ITERATIONS", 1)
        result = run_module(load_module_file(EXAMPLE), config=CONFIG.with_cache_dir(root))
    assert not result.succeeded
    spec_dir = os.path.join(root, f"v{STORE_VERSION}", "spec")
    filled = {path: entry for path, entry in _entry_files(root).items()
              if path.startswith(spec_dir)}
    assert len(filled) == 1

    _infer_text(text, root)
    assert persisted[-1] >= 1
    (spec_path, (_, blob)), = filled.items()
    assert _entry_files(root)[spec_path][1] != blob

    _infer_text(text, root)
    assert persisted[-1] == 0
