"""A run's state is freed when the run returns, not by a later full collection.

Nothing reachable from an inference run may refer back to it: otherwise the
run, its spec stream, pools, verifier and checker form one reference cycle
that outlives ``run_module`` until a generation-2 collection finds it.  Each
case runs one module under one mode with the collector off and
``DEBUG_SAVEALL`` on, then collects once: whatever the collector finds is
cyclic garbage, and none of it may be a run or a piece of a run's state.

A ``Program``'s global environment is a known cycle (a recursive top-level
function reaches itself through the globals dict, as a Python function's
``__globals__`` reaches its module), so program objects are not checked.

The default selection covers the three fastest built-ins; set
``DIFFERENTIAL_FULL=1`` to sweep all 28 built-ins and the example modules
(the nightly CI job does).
"""

import gc
import os

import pytest

from repro.core.config import FAST_VERIFIER_BOUNDS, HanoiConfig
from repro.core.run import InferenceRun
from repro.experiments.runner import MODES, run_module
from repro.serve.diskcache import DiskCacheStore, PersistentCacheBinding
from repro.spec import load_module_file
from repro.suite.registry import all_benchmark_names, get_benchmark
from repro.synth.bottomup import TermEntry, TermPool
from repro.synth.poolcache import SynthesisEvaluationCache
from repro.verify.evalcache import EvaluationCache, SpecEntry
from repro.verify.tester import Verifier

CONFIG = HanoiConfig(verifier_bounds=FAST_VERIFIER_BOUNDS, timeout_seconds=90)

EXAMPLES_DIR = os.path.join(
    os.path.dirname(__file__), os.pardir, os.pardir, "examples", "modules")

#: The state a run builds; none of it may be left to the cycle collector.
RUN_STATE = (InferenceRun, EvaluationCache, SpecEntry, SynthesisEvaluationCache,
             TermPool, TermEntry, Verifier, PersistentCacheBinding, DiskCacheStore)

MODULES = ["/other/sized-list", "/other/nat-nat-option-::-range", "/other/cache"]
if os.environ.get("DIFFERENTIAL_FULL"):
    MODULES = list(all_benchmark_names()) + sorted(
        name for name in os.listdir(EXAMPLES_DIR) if name.endswith(".hanoi"))

STORES = ("no-store", "cold-store", "warm-store")


def _definition(name):
    if name.endswith(".hanoi"):
        return load_module_file(os.path.join(EXAMPLES_DIR, name))
    return get_benchmark(name)


def _cyclic_run_state(body):
    """Names of the run-state objects that ``body`` leaves as cyclic garbage."""
    enabled, flags = gc.isenabled(), gc.get_debug()
    gc.collect()
    gc.garbage.clear()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        body()
        gc.collect()
        return sorted({type(obj).__name__ for obj in gc.garbage
                       if isinstance(obj, RUN_STATE)})
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        if enabled:
            gc.enable()


@pytest.mark.parametrize("store", STORES)
@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("name", MODULES)
def test_run_state_is_freed_on_return(name, mode, store, tmp_path):
    definition = _definition(name)
    config = CONFIG
    if store != "no-store":
        config = CONFIG.with_cache_dir(str(tmp_path / "cache"))
        if store == "warm-store":
            run_module(definition, mode, config)

    result = None

    def body():
        nonlocal result
        result = run_module(definition, mode, config)

    assert _cyclic_run_state(body) == []
    assert result is not None and result.status


@pytest.mark.parametrize("stage", ["restore", "persist"])
def test_run_state_is_freed_when_the_store_fails(stage, tmp_path, monkeypatch):
    """A binding that fails half-built, or a failed write-back, leaves no
    cycle either: nothing the store holds refers to the run."""
    def fail(*args, **kwargs):
        raise RuntimeError(f"{stage} failed")

    monkeypatch.setattr(PersistentCacheBinding, stage, fail)
    definition = get_benchmark(MODULES[0])
    config = CONFIG.with_cache_dir(str(tmp_path / "cache"))
    result = None

    def body():
        nonlocal result
        result = run_module(definition, "hanoi", config)

    assert _cyclic_run_state(body) == []
    warnings = [event for event in result.events
                if event["event"] == "disk-cache-warning"]
    assert [event["error"] for event in warnings] == [f"RuntimeError('{stage} failed')"]
