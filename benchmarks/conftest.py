"""Shared configuration for the pytest-benchmark harnesses.

The benchmark harnesses use the ``quick`` profile (small verifier bounds,
short timeouts) so a full ``pytest benchmarks/ --benchmark-only`` run stays in
the range of minutes.  To reproduce the paper's setup instead, run the module
harnesses directly, e.g. ``python -m repro.experiments.figure7 --all
--profile paper``.
"""

import os
import sys

_SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

import pytest

from repro.core.config import FAST_VERIFIER_BOUNDS, HanoiConfig


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "poolcache: synthesis term-pool cache ablation "
        "(run with `python -m pytest benchmarks -m poolcache`)")
    config.addinivalue_line(
        "markers",
        "fuzz: property-based generator / differential-fuzzing tests "
        "(deselect with `-m 'not fuzz'`; deep sweeps gate on FUZZ_FULL=1)")


@pytest.fixture(scope="session")
def quick_config() -> HanoiConfig:
    """The configuration every benchmark harness runs under."""
    return HanoiConfig(verifier_bounds=FAST_VERIFIER_BOUNDS, timeout_seconds=120)
