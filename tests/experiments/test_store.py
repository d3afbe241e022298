"""Tests for the JSONL result store (serialization round-trip, resume bookkeeping)."""

import json

import pytest

from repro.core.config import FAST_VERIFIER_BOUNDS, HanoiConfig
from repro.core.result import InferenceResult, Status, StoredInvariant
from repro.core.stats import InferenceStats
from repro.experiments.report import figure7_rows
from repro.experiments.runner import run_benchmark
from repro.experiments.store import ResultStore

CONFIG = HanoiConfig(verifier_bounds=FAST_VERIFIER_BOUNDS, timeout_seconds=60)
BENCHMARK = "/coq/unique-list-::-set"


@pytest.fixture(scope="module")
def solved_result() -> InferenceResult:
    result = run_benchmark(BENCHMARK, mode="hanoi", config=CONFIG)
    assert result.succeeded
    return result


def test_result_dict_round_trip_preserves_everything(solved_result):
    payload = solved_result.to_dict()
    # The payload must be pure JSON (this is what crosses process and disk
    # boundaries).
    restored = InferenceResult.from_dict(json.loads(json.dumps(payload)))

    assert restored.benchmark == solved_result.benchmark
    assert restored.mode == solved_result.mode
    assert restored.status == Status.SUCCESS
    assert restored.iterations == solved_result.iterations
    assert restored.invariant_size == solved_result.invariant_size
    assert restored.render_invariant() == solved_result.render_invariant()
    assert isinstance(restored.invariant, StoredInvariant)
    # Events survive verbatim (the Figure-5 traces are rendered from them).
    assert restored.events == solved_result.events
    # Every Figure-7 column survives exactly, including derived means.
    assert figure7_rows([restored]) == figure7_rows([solved_result])


def test_stats_round_trip_freezes_total_time(solved_result):
    stats = InferenceStats.from_dict(solved_result.stats.to_dict())
    assert stats.total_time == pytest.approx(solved_result.stats.total_time)
    assert stats.verification_calls == solved_result.stats.verification_calls
    assert stats.mean_synthesis_time == pytest.approx(
        solved_result.stats.mean_synthesis_time)
    # A deserialized stats object is finished: total_time must not keep growing.
    frozen = stats.total_time
    assert stats.total_time == frozen


def test_store_append_load_and_completed_pairs(tmp_path, solved_result):
    store = ResultStore(str(tmp_path / "results.jsonl"))
    assert not store.exists()
    assert store.load() == []

    store.append(solved_result)
    assert store.exists()
    assert len(store) == 1

    loaded = store.load()
    assert [result.key for result in loaded] == [(BENCHMARK, "hanoi", None, None)]
    assert figure7_rows(loaded) == figure7_rows([solved_result])


def test_store_tolerates_truncated_trailing_line(tmp_path, solved_result):
    path = tmp_path / "results.jsonl"
    store = ResultStore(str(path))
    store.append(solved_result)
    # Simulate a sweep killed mid-append: a partial JSON line at the end.
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"benchmark": "/other/rational", "mode": "han')
    assert [result.key for result in store.load()] == [(BENCHMARK, "hanoi", None, None)]


def test_store_skips_json_lines_that_are_not_rows(tmp_path, solved_result):
    path = tmp_path / "results.jsonl"
    store = ResultStore(str(path))
    store.append(solved_result)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"note": "not a result"}\n[1, 2]\n"text"\n')
    assert [result.key for result in store.load()] == [solved_result.key]
    assert len(store) == 1


def test_store_later_entries_supersede_earlier_ones(tmp_path, solved_result):
    store = ResultStore(str(tmp_path / "results.jsonl"))
    store.append(solved_result)
    rerun = InferenceResult.from_dict(solved_result.to_dict())
    rerun.message = "second run"
    store.append(rerun)
    loaded = store.load()
    assert len(loaded) == 1
    assert loaded[0].message == "second run"


def test_superseding_row_takes_the_position_of_its_last_write(tmp_path, solved_result):
    """Appending A, B, A' loads as [B, A']: a re-run pair is listed where it
    last ran, not where it first ran."""
    store = ResultStore(str(tmp_path / "results.jsonl"))
    first = solved_result
    other = InferenceResult.from_dict(solved_result.to_dict())
    other.mode = "hanoi-src"
    rerun = InferenceResult.from_dict(solved_result.to_dict())
    rerun.message = "re-run"
    for result in (first, other, rerun):
        store.append(result)
    loaded = store.load()
    assert [result.key for result in loaded] == [other.key, first.key]
    assert loaded[1].message == "re-run"


def test_pack_benchmark_does_not_collide_with_same_named_builtin(tmp_path, solved_result):
    """Regression: rows used to be keyed by (benchmark, mode) only, so a pack
    benchmark named like a built-in silently superseded it on load and made
    --resume wrongly skip the other one."""
    path = str(tmp_path / "results.jsonl")
    ResultStore(path).append(solved_result)
    packed = InferenceResult.from_dict(solved_result.to_dict())
    packed.message = "from the pack"
    packed.pack = "my-pack"
    ResultStore(path).append(packed)

    store = ResultStore(path)
    loaded = store.load()
    assert len(loaded) == 2
    by_pack = {result.pack: result for result in loaded}
    assert by_pack[None].message == solved_result.message
    assert by_pack["my-pack"].message == "from the pack"

    assert {result.key for result in loaded} == {
        (BENCHMARK, "hanoi", None, None),
        (BENCHMARK, "hanoi", "my-pack", None),
    }


def test_pack_rows_supersede_within_their_pack_only(tmp_path, solved_result):
    path = str(tmp_path / "results.jsonl")
    store = ResultStore(path)
    for message in ("first pack run", "second pack run"):
        packed = InferenceResult.from_dict(solved_result.to_dict())
        packed.message = message
        packed.pack = "my-pack"
        store.append(packed)
    store.append(solved_result)

    loaded = ResultStore(path).load()
    assert len(loaded) == 2
    by_pack = {result.pack: result for result in loaded}
    assert by_pack["my-pack"].message == "second pack run"


def test_task_resume_keys_distinguish_packs(solved_result):
    from repro.experiments.runner import ExperimentTask, expand_tasks
    from repro.spec.pack import Pack

    builtin = ExperimentTask(benchmark=BENCHMARK, mode="hanoi")
    packed = ExperimentTask(benchmark=BENCHMARK, mode="hanoi",
                            pack="/tmp/my-pack", pack_name="my-pack")
    assert builtin.key != packed.key
    assert packed.key == (BENCHMARK, "hanoi", "my-pack", None)
    # A task's key is the key of the result it produces.
    assert builtin.key == solved_result.key

    # expand_tasks tags only the pack's benchmarks with the pack name.
    pack = Pack(name="my-pack", path="/tmp/my-pack", definitions={"pack-only": None})
    tasks = expand_tasks([BENCHMARK, "pack-only"], modes="hanoi", pack=pack)
    keyed = {task.benchmark: task for task in tasks}
    assert keyed[BENCHMARK].key == (BENCHMARK, "hanoi", None, None)
    assert keyed["pack-only"].key == ("pack-only", "hanoi", "my-pack", None)
    # Both carry the pack path so pool workers can register it.
    assert all(task.pack == "/tmp/my-pack" for task in tasks)
