"""Benchmark packs and their integration with the experiment stack.

A pack (directory of ``.hanoi`` files) must register alongside the built-in
suite so that the registry, ``expand_tasks``, the serial executor, and the
result store all work on it unchanged - and unregistering must restore the
registry exactly.
"""

import json

import pytest

from repro.core.result import InferenceResult, Status
from repro.core.stats import InferenceStats
from repro.experiments.runner import execute_task, execute_tasks, expand_tasks
from repro.experiments.store import ResultStore
from repro.spec import SpecFileError, load_pack, register_pack, unregister_pack
from repro.suite import registry

COUNTER = """
benchmark "/pack/counter"
group counters

abstract type t = nat

operation zero : t
operation incr : t -> t

spec spec : t -> bool

let zero : nat = O
let incr (c : nat) : nat = S c
let spec (c : nat) : bool = True
"""

TOGGLE = """
benchmark "/pack/toggle"
group toggles

abstract type t = bool

operation off : t
operation flip : t -> t

spec spec : t -> bool

let off : bool = False
let flip (b : bool) : bool = notb b
let spec (b : bool) : bool = orb b (notb b)
"""


@pytest.fixture
def pack_dir(tmp_path):
    directory = tmp_path / "mypack"
    directory.mkdir()
    (directory / "counter.hanoi").write_text(COUNTER)
    (directory / "toggle.hanoi").write_text(TOGGLE)
    return str(directory)


@pytest.fixture
def registered(pack_dir):
    pack = register_pack(pack_dir)
    try:
        yield pack
    finally:
        unregister_pack(pack_dir)


def test_load_pack_reads_every_file(pack_dir):
    pack = load_pack(pack_dir)
    assert pack.name == "mypack"
    assert pack.benchmark_names == ["/pack/counter", "/pack/toggle"]
    assert pack.definitions["/pack/counter"].group == "counters"


def test_load_pack_rejects_missing_directory(tmp_path):
    with pytest.raises(SpecFileError):
        load_pack(str(tmp_path / "absent"))


def test_load_pack_rejects_empty_directory(tmp_path):
    with pytest.raises(SpecFileError):
        load_pack(str(tmp_path))


def test_load_pack_rejects_duplicate_benchmark_names(tmp_path):
    (tmp_path / "a.hanoi").write_text(COUNTER)
    (tmp_path / "b.hanoi").write_text(COUNTER)
    with pytest.raises(SpecFileError) as excinfo:
        load_pack(str(tmp_path))
    assert "both" in excinfo.value.reason


def test_register_pack_installs_and_unregister_restores(pack_dir):
    before_benchmarks = dict(registry.BENCHMARKS)
    before_groups = {group: list(names) for group, names in registry.GROUPS.items()}
    before_fast = list(registry.FAST_BENCHMARKS)

    pack = register_pack(pack_dir)
    try:
        assert "/pack/counter" in registry.BENCHMARKS
        assert registry.get_benchmark("/pack/counter").name == "/pack/counter"
        assert "/pack/counter" in registry.GROUPS["counters"]
        assert registry.benchmark_group("/pack/toggle") == "toggles"
        # Pack benchmarks join the fast subset so default sweeps include them.
        assert "/pack/counter" in registry.FAST_BENCHMARKS
        # Idempotent: registering the same directory again is a no-op.
        assert register_pack(pack_dir) is pack
    finally:
        unregister_pack(pack_dir)

    assert registry.BENCHMARKS == before_benchmarks
    assert {g: list(n) for g, n in registry.GROUPS.items()} == before_groups
    assert registry.FAST_BENCHMARKS == before_fast


def test_register_pack_rejects_name_collision_with_builtin(tmp_path):
    text = COUNTER.replace('"/pack/counter"', '"/coq/unique-list-::-set"')
    (tmp_path / "clash.hanoi").write_text(text)
    with pytest.raises(ValueError):
        register_pack(str(tmp_path))
    # The failed registration must not leave partial state behind.
    assert "/pack/counter" not in registry.BENCHMARKS


def test_tasks_resolve_pack_benchmarks(registered):
    tasks = expand_tasks(registered.benchmark_names, modes="oneshot",
                         pack=registered)
    assert [t.benchmark for t in tasks] == ["/pack/counter", "/pack/toggle"]
    assert all(t.pack == registered.path for t in tasks)
    assert all(t.pack_name == "mypack" for t in tasks)
    result = execute_task(tasks[0])
    assert result.benchmark == "/pack/counter"
    assert result.key == tasks[0].key


def test_execute_task_registers_pack_on_demand(pack_dir):
    # Simulates a spawn-context worker: the registry has never seen the pack.
    unregister_pack(pack_dir)
    task = expand_tasks(["/pack/toggle"], modes="oneshot", pack=load_pack(pack_dir))[0]
    try:
        result = execute_task(task)
        assert result.benchmark == "/pack/toggle"
    finally:
        unregister_pack(pack_dir)


def _result(benchmark):
    return InferenceResult(benchmark=benchmark, mode="hanoi",
                           status=Status.SUCCESS, invariant=None,
                           stats=InferenceStats())


def test_store_tags_pack_results(tmp_path, registered):
    """A mixed built-in + pack sweep tags only the pack's rows."""
    path = str(tmp_path / "results.jsonl")
    store = ResultStore(path)
    tasks = expand_tasks(["/pack/counter", "/other/sized-list"], modes="oneshot",
                         pack=registered)
    execute_tasks(tasks, store=store)

    records = [json.loads(line) for line in open(path, encoding="utf-8")]
    assert records[0]["pack"] == "mypack"
    assert "pack" not in records[1]

    by_name = {r.benchmark: r for r in store.load()}
    assert by_name["/pack/counter"].pack == "mypack"
    assert by_name["/other/sized-list"].pack is None
    assert [r.key for r in store.load()] == [task.key for task in tasks]


def test_store_without_pack_is_untagged(tmp_path):
    path = str(tmp_path / "results.jsonl")
    ResultStore(path).append(_result("/pack/counter"))
    record = json.loads(open(path, encoding="utf-8").read())
    assert "pack" not in record
