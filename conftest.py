"""Keeps every test on the expanderlab modules the suite was collected with,
and every property test on the same examples in every run.

The benchmark's smoke test re-imports expanderlab from scratch, as a fresh
process would.  Test modules collected before it still hold the classes and
functions of the first import, so a later `from expanderlab import ...` or
monkeypatch must reach those same modules, whatever order the tests run in.

Hypothesis draws its examples from a seed fixed by each test, and keeps no
example database, so no run replays what an earlier run in the same
directory saved.  It would also mix into its draws the constants it mines
from every local module in `sys.modules`, so a test's examples would change
with what else was collected (the tier-1 command collects `perfbench/`
after `tests/`) and with any constant edited in `src/`.  The pool of those
constants is pinned empty: `_get_local_constants` is a private Hypothesis
function (6.155.2), with no public switch, so it is replaced with one that
returns the empty pool it starts from.  Its home directory is a temporary
directory of the session, and so is the storage that pytest-benchmark,
when installed, makes at start-up: a run writes nothing under the
directory it is started from.
"""
import sys
import tempfile

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir
from hypothesis.internal.conjecture import providers

settings.register_profile("expanderlab", derandomize=True)
settings.load_profile("expanderlab")

# no draw has been made yet, so the pool is still the empty one it starts as
_NO_LOCAL_CONSTANTS = providers._local_constants
providers._get_local_constants = lambda: _NO_LOCAL_CONSTANTS

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
