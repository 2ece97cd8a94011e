"""Keeps every test on the expanderlab modules the suite was collected with.

The benchmark's smoke test re-imports expanderlab from scratch, as a fresh
process would.  Test modules collected before it still hold the classes and
functions of the first import, so a later `from expanderlab import ...` or
monkeypatch must reach those same modules, whatever order the tests run in.
"""
import sys

import pytest

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
