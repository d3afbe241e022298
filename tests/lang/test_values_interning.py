"""Hash-consed first-order values: one live object per value.

``VCtor`` and ``VTuple`` are interned at construction, so equality is the
identity test and hashing reads a stored field.  Interning must stay
transparent: the hash is the structural one the dataclass would derive (set
and dict iteration orders, and so outcomes, do not move), unpickled values
are the interned objects, and the intern tables hold values weakly.
"""

import gc
import pickle

import pytest

from repro.experiments.runner import run_module
from repro.lang import values
from repro.lang.values import VCtor, VTuple, nat_of_int, v_bool, v_list
from repro.serve.diskcache import DiskCacheStore
from repro.suite.registry import get_benchmark


def _deep_list():
    return v_list([nat_of_int(i % 3) for i in range(50_000)])


@pytest.mark.parametrize("build", [lambda: nat_of_int(100_000), _deep_list],
                         ids=["nat-100000", "list-50000"])
def test_deep_values_compare_and_hash_without_recursion(build):
    a, b = build(), build()
    assert a == b
    assert hash(a) == hash(b)
    assert {a: 1}[b] == 1
    assert a is b


def test_equal_values_are_one_object():
    pair = VTuple((nat_of_int(2), v_bool(True)))
    assert VTuple((VCtor("S", nat_of_int(1)), VCtor("True"))) is pair
    assert VCtor("Some", pair) is VCtor("Some", VTuple((nat_of_int(2), v_bool(True))))
    assert VCtor("S", nat_of_int(1)) is not nat_of_int(1)
    assert VTuple((nat_of_int(1),)) != nat_of_int(1)


def test_hash_is_the_structural_dataclass_hash():
    payload = VTuple((nat_of_int(1), v_list([VCtor("True")])))
    assert hash(VCtor("Some", payload)) == hash(("Some", payload))
    assert hash(VCtor("Nil")) == hash(("Nil", None))
    items = (nat_of_int(3), VCtor("Nil"))
    assert hash(VTuple(items)) == hash((items,))


@pytest.mark.parametrize("cls", [VCtor, VTuple])
def test_value_classes_cannot_be_subclassed(cls):
    with pytest.raises(TypeError, match="cannot be subclassed"):
        type("Sub", (cls,), {"__slots__": ()})


def test_unpickled_value_is_the_interned_object():
    value = VCtor("Cons", VTuple((nat_of_int(2), v_list([nat_of_int(1)]))))
    assert pickle.loads(pickle.dumps(value)) is value


def test_disk_store_returns_the_interned_object(tmp_path):
    store = DiskCacheStore(str(tmp_path / "cache"))
    value = v_list([nat_of_int(1), nat_of_int(0)])
    assert store.put("spec", "ab" * 32, (value, 7))
    restored, fuel = store.get("spec", "ab" * 32)
    assert restored is value
    assert fuel == 7


def test_intern_tables_do_not_keep_a_run_alive():
    definition = get_benchmark("/other/sized-list")
    gc.collect()
    before = len(values._ctors), len(values._tuples)
    result = run_module(definition)
    assert result.status == "success"
    del result
    gc.collect()
    assert len(values._ctors) <= before[0] + 5
    assert len(values._tuples) <= before[1] + 5
