"""A property test draws the same examples whatever else is imported.

Hypothesis would mix into its draws the constants it mines from the local
modules in `sys.modules`; `conftest.py` pins that pool empty.  The test
draws a derandomized strategy, imports `perfbench/workloads.py` (which the
tier-1 command collects after `tests/`) and a module of new constants (as
an edit to a constant in `src/` would add), each under a new name, and
draws again.  The new constants sort below every other in the pool, so
without the pin each index into it moves and the second draw differs,
whether the test runs alone or in the whole suite.
"""
import importlib.util
import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def draws() -> list:
    """The examples of one derandomized property test, in draw order."""
    seen = []

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(st.lists(st.integers(-(2 ** 40), 2 ** 40), max_size=8))
    def record(xs):
        seen.append(xs)

    record()
    return seen


def test_imported_modules_leave_the_examples_alone(tmp_path, monkeypatch):
    before = draws()
    probe = tmp_path / "fresh_constants.py"
    probe.write_text("CONSTANTS = (-999999999989, -999999999959)\n")
    for name, path in (("hermetic_probe_workloads", PERFBENCH / "workloads.py"),
                       ("hermetic_probe_constants", probe)):
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, name, module)
        spec.loader.exec_module(module)
    assert draws() == before
