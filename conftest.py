"""Keeps every test on the expanderlab modules the suite was collected with,
and every property test on the same examples in every run.

The benchmark's smoke test re-imports expanderlab from scratch, as a fresh
process would.  Test modules collected before it still hold the classes and
functions of the first import, so a later `from expanderlab import ...` or
monkeypatch must reach those same modules, whatever order the tests run in.

Hypothesis draws its examples from a seed fixed by each test, and keeps no
example database, so no run replays what an earlier run in the same
directory saved.  Its home directory, where it caches the constants it
mines from the source, is a temporary directory of the session, and so is
the storage that pytest-benchmark, when installed, makes at start-up: a run
writes nothing under the directory it is started from.
"""
import sys
import tempfile

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("expanderlab", derandomize=True)
settings.load_profile("expanderlab")

_SESSION_DIR = pytest.StashKey[tempfile.TemporaryDirectory]()


@pytest.hookimpl(tryfirst=True)
def pytest_configure(config):
    home = config.stash[_SESSION_DIR] = tempfile.TemporaryDirectory(
        prefix="expanderlab-tests-")
    set_hypothesis_home_dir(home.name)
    if hasattr(config.option, "benchmark_storage"):
        config.option.benchmark_storage = f"file://{home.name}/benchmarks"


def pytest_unconfigure(config):
    set_hypothesis_home_dir(None)
    config.stash[_SESSION_DIR].cleanup()

PACKAGE = "expanderlab"


def _package_modules() -> dict:
    return {name: module for name, module in sys.modules.items()
            if name == PACKAGE or name.startswith(PACKAGE + ".")}


@pytest.fixture(autouse=True)
def _restore_package_modules():
    saved = _package_modules()
    yield
    for name in _package_modules():
        del sys.modules[name]
    sys.modules.update(saved)
