"""Benchmark packs: directories of ``.hanoi`` files usable as a suite.

A *pack* is any directory containing benchmark definition files.  Loading a
pack parses every ``*.hanoi`` file in it (sorted, so ordering is stable) and
registering it installs each definition in
:mod:`repro.suite.registry`, after which the whole experiment stack -
``expand_tasks``, the serial runner, the :class:`ParallelRunner`, and the
result store - works on pack benchmarks exactly as on the built-in 28.

Registration is idempotent per resolved directory path and remembered in
:data:`_REGISTERED`; ``execute_task`` calls :func:`register_pack` inside pool
workers too, so packs resolve even under a ``spawn`` multiprocessing context
where workers do not inherit the parent's registry mutations.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List

from ..core.module import ModuleDefinition
from ..suite.registry import register_benchmark, unregister_benchmark
from .common import SPEC_FILE_SUFFIX
from .errors import SpecFileError
from .loader import load_module_file

__all__ = ["Pack", "load_pack", "register_pack", "unregister_pack"]


@dataclass(frozen=True)
class Pack:
    """A loaded benchmark pack: its name, directory, and definitions."""

    name: str
    path: str
    definitions: Dict[str, ModuleDefinition]

    @property
    def benchmark_names(self) -> List[str]:
        return list(self.definitions)


def _resolve(directory: str) -> str:
    return os.path.realpath(os.fspath(directory))


def load_pack(directory: str) -> Pack:
    """Parse every ``*.hanoi`` file of a directory into a :class:`Pack`.

    The pack's name is the directory's basename; two files declaring the same
    benchmark name are rejected.
    """
    path = _resolve(directory)
    if not os.path.isdir(path):
        raise SpecFileError("not a directory", str(directory))
    files = sorted(entry for entry in os.listdir(path)
                   if entry.endswith(SPEC_FILE_SUFFIX))
    if not files:
        raise SpecFileError(f"no {SPEC_FILE_SUFFIX} files found", str(directory))
    definitions: Dict[str, ModuleDefinition] = {}
    origins: Dict[str, str] = {}
    for filename in files:
        definition = load_module_file(os.path.join(path, filename))
        if definition.name in definitions:
            raise SpecFileError(
                f"benchmark {definition.name!r} is defined both in "
                f"{origins[definition.name]} and {filename}",
                os.path.join(path, filename))
        definitions[definition.name] = definition
        origins[definition.name] = filename
    return Pack(name=os.path.basename(path), path=path, definitions=definitions)


#: Packs already registered this process, keyed by resolved directory path.
_REGISTERED: Dict[str, Pack] = {}


def register_pack(directory: str) -> Pack:
    """Load a pack and install its benchmarks in the global registry.

    Pack benchmarks register as *fast* (they run under every profile's
    default selection) and under each file's declared group.  Registering the
    same directory twice returns the already-loaded pack.
    """
    path = _resolve(directory)
    if path in _REGISTERED:
        return _REGISTERED[path]
    pack = load_pack(path)
    registered: List[str] = []
    try:
        for name, definition in pack.definitions.items():
            register_benchmark(
                name,
                _factory(definition),
                group=definition.group,
                fast=True,
            )
            registered.append(name)
    except ValueError:
        for name in registered:
            unregister_benchmark(name)
        raise
    _REGISTERED[path] = pack
    return pack


def _factory(definition: ModuleDefinition):
    """A registry factory for an already-loaded (immutable) definition."""
    return lambda: definition


def unregister_pack(directory: str) -> None:
    """Remove a previously registered pack's benchmarks from the registry."""
    path = _resolve(directory)
    pack = _REGISTERED.pop(path, None)
    if pack is None:
        return
    for name in pack.definitions:
        unregister_benchmark(name)
