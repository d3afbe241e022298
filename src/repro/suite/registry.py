"""The benchmark registry: all 28 verification problems of Section 5.1.

Benchmarks are registered by the exact names used in the paper's Figure 7.
Each registry entry is a zero-argument factory returning a fresh
:class:`~repro.core.module.ModuleDefinition`, so callers can freely mutate or
instantiate without sharing state.

Group sizes match the paper: VFA (5), VFAExt (3), Coq (14), Other (6).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..core.module import ModuleDefinition
from . import heaps, listsets, other, tables, trees

__all__ = [
    "BENCHMARKS",
    "GROUPS",
    "FAST_BENCHMARKS",
    "PAPER_RESULTS",
    "all_benchmark_names",
    "get_benchmark",
    "benchmarks_in_group",
    "fast_benchmarks",
    "register_benchmark",
    "unregister_benchmark",
    "benchmark_group",
]

BenchmarkFactory = Callable[[], ModuleDefinition]

#: name -> factory, in the order of the paper's Figure 7 (alphabetical by path).
BENCHMARKS: Dict[str, BenchmarkFactory] = {
    "/coq/bst-::-set*": trees.bst_set,
    "/coq/bst-::-set+binfuncs": trees.bst_set_binfuncs,
    "/coq/bst-::-set+hofs*": trees.bst_set_hofs,
    "/coq/rbtree-::-set*": trees.rbtree_set,
    "/coq/rbtree-::-set+binfuncs": trees.rbtree_set_binfuncs,
    "/coq/rbtree-::-set+hofs*": trees.rbtree_set_hofs,
    "/coq/maxfirst-list-::-heap": heaps.maxfirst_list_heap,
    "/coq/maxfirst-list-::-heap+binfuncs": heaps.maxfirst_list_heap_binfuncs,
    "/coq/sorted-list-::-set": listsets.sorted_list_set,
    "/coq/sorted-list-::-set+binfuncs": listsets.sorted_list_set_binfuncs,
    "/coq/sorted-list-::-set+hofs": listsets.sorted_list_set_hofs,
    "/coq/unique-list-::-set": listsets.unique_list_set,
    "/coq/unique-list-::-set+binfuncs": listsets.unique_list_set_binfuncs,
    "/coq/unique-list-::-set+hofs": listsets.unique_list_set_hofs,
    "/other/cache": other.cache,
    "/other/listlike-tree": other.listlike_tree,
    "/other/nat-nat-option-::-range": other.nat_nat_option_range,
    "/other/rational": other.rational,
    "/other/sized-list": other.sized_list,
    "/other/stutter-list": other.stutter_list,
    "/vfa-extended/assoc-list-::-table": tables.assoc_list_table_extended,
    "/vfa-extended/bst-::-table": tables.bst_table_extended,
    "/vfa-extended/trie-::-table": tables.trie_table_extended,
    "/vfa/assoc-list-::-table": tables.assoc_list_table,
    "/vfa/bst-::-table": tables.bst_table,
    "/vfa/tree-::-priqueue*": heaps.tree_priqueue,
    "/vfa/tree-::-priqueue+binfuncs*": heaps.tree_priqueue_binfuncs,
    "/vfa/trie-::-table": tables.trie_table,
}

#: Benchmark groups of Section 5.1.
GROUPS: Dict[str, List[str]] = {
    "vfa": [name for name in BENCHMARKS if name.startswith("/vfa/")],
    "vfa-extended": [name for name in BENCHMARKS if name.startswith("/vfa-extended/")],
    "coq": [name for name in BENCHMARKS if name.startswith("/coq/")],
    "other": [name for name in BENCHMARKS if name.startswith("/other/")],
}

#: Benchmarks that complete within a few seconds under the FAST verifier
#: bounds; the test suite and the quick benchmark harness restrict themselves
#: to these so CI stays fast.
FAST_BENCHMARKS: List[str] = [
    "/coq/unique-list-::-set",
    "/coq/sorted-list-::-set",
    "/coq/maxfirst-list-::-heap",
    "/other/cache",
    "/other/listlike-tree",
    "/other/nat-nat-option-::-range",
    "/other/rational",
    "/other/sized-list",
    "/other/stutter-list",
    "/vfa/assoc-list-::-table",
    "/vfa/bst-::-table",
    "/vfa/trie-::-table",
    "/vfa-extended/assoc-list-::-table",
    "/vfa-extended/trie-::-table",
]

#: The paper's Figure 7 headline results, used by ``repro list`` and by the
#: Figure-7 report's "Paper" column: whether Hanoi solved the benchmark within 30 minutes,
#: and the reported invariant size (None = timeout).
PAPER_RESULTS: Dict[str, Optional[int]] = {
    "/coq/bst-::-set*": None,
    "/coq/bst-::-set+binfuncs": 15,
    "/coq/bst-::-set+hofs*": None,
    "/coq/rbtree-::-set*": None,
    "/coq/rbtree-::-set+binfuncs": None,
    "/coq/rbtree-::-set+hofs*": None,
    "/coq/maxfirst-list-::-heap": 35,
    "/coq/maxfirst-list-::-heap+binfuncs": 35,
    "/coq/sorted-list-::-set": 49,
    "/coq/sorted-list-::-set+binfuncs": 49,
    "/coq/sorted-list-::-set+hofs": 49,
    "/coq/unique-list-::-set": 35,
    "/coq/unique-list-::-set+binfuncs": 15,
    "/coq/unique-list-::-set+hofs": 17,
    "/other/cache": 29,
    "/other/listlike-tree": 53,
    "/other/nat-nat-option-::-range": 23,
    "/other/rational": 28,
    "/other/sized-list": 45,
    "/other/stutter-list": 49,
    "/vfa-extended/assoc-list-::-table": 4,
    "/vfa-extended/bst-::-table": None,
    "/vfa-extended/trie-::-table": 4,
    "/vfa/assoc-list-::-table": 4,
    "/vfa/bst-::-table": 4,
    "/vfa/tree-::-priqueue*": 47,
    "/vfa/tree-::-priqueue+binfuncs*": 47,
    "/vfa/trie-::-table": 4,
}


def register_benchmark(name: str, factory: BenchmarkFactory, group: str,
                       fast: bool = False, replace: bool = False) -> None:
    """Register an external benchmark alongside the built-in suite.

    Registered benchmarks flow through the same machinery as the paper's 28:
    ``expand_tasks`` / ``run_benchmark`` resolve them by name, ``GROUPS``
    gains the benchmark under its group, and ``fast=True`` opts it into the
    quick subset.  Registering a name that already exists raises ``ValueError``
    unless ``replace`` is set (which keeps the existing group placement).
    """
    if name in BENCHMARKS:
        if not replace:
            raise ValueError(f"benchmark {name!r} is already registered")
    else:
        # Group placement happens only on first registration; a replacement
        # keeps the existing placement (see docstring).
        GROUPS.setdefault(group, []).append(name)
    BENCHMARKS[name] = factory
    if fast and name not in FAST_BENCHMARKS:
        FAST_BENCHMARKS.append(name)


def unregister_benchmark(name: str) -> None:
    """Remove an externally registered benchmark (no-op when unknown).

    Built-in group lists shrink too, and a group emptied by the removal is
    dropped entirely, so registering and unregistering a pack restores the
    registry to its prior state.
    """
    BENCHMARKS.pop(name, None)
    for group in list(GROUPS):
        if name in GROUPS[group]:
            GROUPS[group].remove(name)
            if not GROUPS[group]:
                del GROUPS[group]
    if name in FAST_BENCHMARKS:
        FAST_BENCHMARKS.remove(name)


def benchmark_group(name: str) -> Optional[str]:
    """The group a benchmark is registered under, or None when unknown."""
    for group, names in GROUPS.items():
        if name in names:
            return group
    return None


def all_benchmark_names() -> List[str]:
    """Every registered benchmark name, in Figure-7 order (externally
    registered benchmarks follow, in registration order)."""
    return list(BENCHMARKS)


def get_benchmark(name: str) -> ModuleDefinition:
    """A fresh :class:`ModuleDefinition` for the named benchmark."""
    try:
        factory = BENCHMARKS[name]
    except KeyError:
        raise KeyError(f"unknown benchmark {name!r}; known: {sorted(BENCHMARKS)}") from None
    return factory()


def benchmarks_in_group(group: str) -> List[ModuleDefinition]:
    """All benchmarks of one of the Section 5.1 groups."""
    try:
        names = GROUPS[group]
    except KeyError:
        raise KeyError(f"unknown group {group!r}; known: {sorted(GROUPS)}") from None
    return [get_benchmark(name) for name in names]


def fast_benchmarks() -> List[ModuleDefinition]:
    """The quick-running subset used by tests and the quick harness."""
    return [get_benchmark(name) for name in FAST_BENCHMARKS]
