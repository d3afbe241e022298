"""Shared fixtures for the test suite.

Tests run under the ``FAST_VERIFIER_BOUNDS`` profile so the whole suite stays
fast; the bounds only affect how unsound the enumerative verifier is, not the
structure of the algorithms under test.
"""

import os
import sys

_SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

import pytest

from repro.core.config import FAST_VERIFIER_BOUNDS, HanoiConfig
from repro.lang.values import nat_of_int, v_list
from repro.suite.registry import get_benchmark

LIST_SET_NAME = "/coq/unique-list-::-set"


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "fuzz: property-based generator / differential-fuzzing tests "
        "(deselect with `-m 'not fuzz'`; deep sweeps gate on FUZZ_FULL=1)")


@pytest.fixture(scope="session")
def fast_config() -> HanoiConfig:
    """The configuration used by end-to-end tests."""
    return HanoiConfig(verifier_bounds=FAST_VERIFIER_BOUNDS, timeout_seconds=90)


@pytest.fixture(scope="session")
def listset_definition():
    """The motivating-example benchmark definition (fresh copy per session)."""
    return get_benchmark(LIST_SET_NAME)


@pytest.fixture(scope="session")
def listset_instance(listset_definition):
    """The motivating-example module, loaded and ready to execute."""
    return listset_definition.instantiate()


def make_list(*ints):
    """A prelude list value of Peano naturals from Python ints."""
    return v_list([nat_of_int(i) for i in ints])


@pytest.fixture(scope="session")
def listv():
    """Factory fixture: ``listv(1, 2, 3)`` builds the object-language list."""
    return make_list
