import hashlib
import random
from fractions import Fraction

import pytest

from expanderlab import (
    FieldCtx,
    FSet,
    finite_field_pipeline,
    real_pipeline,
)
from expanderlab import constructions as cons
from expanderlab import sets
from expanderlab.errors import (
    DensityViolated,
    FieldMismatch,
    SetTooSmall,
    SideConditionViolated,
)
from helpers import Q

# frozen full-trace instances, one per branch (found by seeded search)
RNEQ_P, RNEQ_A = 109, [1, 5, 10, 31, 36, 40, 43, 65, 71]
REQ_P, REQ_A = 103, [24, 27, 39, 58, 61, 62, 65, 88, 93]


def test_guard_too_small():
    with pytest.raises(SetTooSmall):
        finite_field_pipeline(FSet(FieldCtx.prime(7), [2, 4]))


def test_guard_density():
    with pytest.raises(DensityViolated):
        finite_field_pipeline(FSet(FieldCtx.prime(7), [1, 2, 3]))


def test_guard_field():
    with pytest.raises(FieldMismatch):
        finite_field_pipeline(FSet(Q, [2, 3, 5]))
    with pytest.raises(FieldMismatch):
        real_pipeline(FSet(FieldCtx.prime(101), [2, 3, 5]))


def test_guard_epsilon():
    a = FSet(FieldCtx.prime(101), [1, 2, 4])
    with pytest.raises(SideConditionViolated):
        finite_field_pipeline(a, epsilon=Fraction(1, 8))


def test_selection_example_mod_101():
    a = FSet(FieldCtx.prime(101), [1, 2, 4])
    trace = finite_field_pipeline(a)
    sel = trace.selected
    assert sel["b0"] is not None and sel["N"] >= 1 and sel["A1"]
    # dyadic membership, recomputed independently
    p = 101
    av = a.vals
    b0 = int(sel["b0"])
    n_val = sel["N"]
    shifted_b0 = {(b0 * (b + 1)) % p for b in av}
    for text in sel["A1"]:
        x = int(text)
        c = len({(x * (b + 1)) % p for b in av} & shifted_b0)
        assert n_val <= c < 2 * n_val


def test_degenerate_class_traced():
    a = FSet(FieldCtx.prime(101), [1, 2, 4])
    trace = finite_field_pipeline(a)
    assert trace.selected["branch"] == "degenerate"
    assert not trace.has_fails()


def test_full_branch_rneqfp():
    a = FSet(FieldCtx.prime(RNEQ_P), RNEQ_A)
    trace = finite_field_pipeline(a)
    sel = trace.selected
    assert sel["branch"] == "RneqFp"
    assert not sel["R_A1_full"]
    assert sel["xi"] is not None and len(sel["quad"]) == 4
    assert not trace.has_fails() and not trace.has_inconclusive()
    names = [s.report.name for s in trace.steps]
    for expected in ("fp-no-repetition", "fp-cover-alpha", "fp-cover-delta",
                     "fp-plunnecke", "fp-core-bound", "fp-translate-product",
                     "fp-final-exponent"):
        assert expected in names, expected
    # the twist quadruple actually produces xi
    p = RNEQ_P
    al, be, ga, de = (int(t) for t in sel["quad"])
    xi = (al - be) * pow(ga - de, -1, p) % p
    assert str(xi) == sel["xi"]


def test_full_branch_reqfp():
    a = FSet(FieldCtx.prime(REQ_P), REQ_A)
    trace = finite_field_pipeline(a)
    sel = trace.selected
    assert sel["branch"] == "ReqFp"
    assert sel["R_A1_full"]
    assert not trace.has_fails() and not trace.has_inconclusive()
    names = [s.report.name for s in trace.steps]
    for expected in ("fp-twist-energy", "fp-energy-monotone", "fp-twisted-cs",
                     "fp-twisted-embed", "fp-translate-product"):
        assert expected in names, expected


@pytest.mark.parametrize("p, vals, branch", [
    (RNEQ_P, RNEQ_A, "RneqFp"),
    (109, [1, 5, 10, 31, 36, 40, 43], "degenerate"),
    (401, list(range(5, 15)), "RneqFp"),
    (REQ_P, REQ_A, "ReqFp"),
])
def test_each_partial_difference_set_is_built_once(monkeypatch, p, vals, branch):
    # every call on one graph returns the one set built for it; the spy keeps
    # each graph alive, so no id is reused
    real = cons.partial_combine
    calls = []
    monkeypatch.setattr(cons, "partial_combine",
                        lambda g: calls.append((g, real(g))) or calls[-1][1])
    trace = finite_field_pipeline(FSet(FieldCtx.prime(p), vals))
    assert trace.selected["branch"] == branch
    built = {}
    for g, pdiff in calls:
        assert pdiff is built.setdefault(id(g), pdiff)
    assert len(calls) > len(built)


def test_fp_trace_deterministic():
    a = FSet(FieldCtx.prime(RNEQ_P), RNEQ_A)
    assert finite_field_pipeline(a).to_bytes() == finite_field_pipeline(a).to_bytes()


# Two benchmark-sized sets whose sumset sizes are counted on residue masks:
# a near-dense random set over F_3001 (branch ReqFp) and the progression
# [37, 97) over F_40009 (branch RneqFp), with the sha256 of their traces as
# recorded when every sumset was built as an FSet.
DENSE_P, DENSE_A = 3001, [
    2, 6, 23, 182, 223, 240, 378, 400, 506, 561, 574, 632, 641, 764, 790, 859, 898, 932,
    1101, 1111, 1160, 1194, 1248, 1295, 1308, 1362, 1438, 1454, 1594, 1666, 1784, 1820,
    1830, 1866, 1971, 2005, 2095, 2125, 2212, 2226, 2419, 2493, 2545, 2549, 2652, 2715,
    2794, 2822, 2854, 2864, 2906]
PROGRESSION_P, PROGRESSION_A = 40009, [
    37, 38, 39, 40, 41, 42, 43, 44, 45, 46, 47, 48, 49, 50, 51, 52, 53, 54, 55, 56, 57, 58,
    59, 60, 61, 62, 63, 64, 65, 66, 67, 68, 69, 70, 71, 72, 73, 74, 75, 76, 77, 78, 79, 80,
    81, 82, 83, 84, 85, 86, 87, 88, 89, 90, 91, 92, 93, 94, 95, 96]


@pytest.mark.parametrize("p, vals, branch, digest", [
    (DENSE_P, DENSE_A, "ReqFp",
     "d050991db18c71d422dbe15b6d4e409b6ea6e3349e878de854dbdb1e319f4d19"),
    (PROGRESSION_P, PROGRESSION_A, "RneqFp",
     "0b27a99b3b97bc9b011d51c368df16e0c7bd28aec2c0dd5887dd088683c7cc2c"),
])
def test_fp_trace_bytes_where_residue_masks_count(monkeypatch, p, vals, branch, digest):
    real = sets._mask_of
    widths = []
    monkeypatch.setattr(sets, "_mask_of",
                        lambda ints, width: widths.append(width) or real(ints, width))
    trace = finite_field_pipeline(FSet(FieldCtx.prime(p), vals))
    assert trace.selected["branch"] == branch
    assert p in widths  # a residue mask; a log mask has p - 1 bits
    assert hashlib.sha256(trace.to_bytes()).hexdigest() == digest


def test_real_pipeline_chain():
    a = FSet(Q, [2, 3])
    trace = real_pipeline(a)
    assert len(trace.steps) >= 5
    assert not trace.has_fails() and not trace.has_inconclusive()
    names = [s.report.name for s in trace.steps]
    assert names[-1] == "R13"
    assert "real-combined" in names


def test_real_pipeline_geometric_progression():
    a = FSet(Q, [2, 4, 8, 16])
    trace = real_pipeline(a)
    assert not trace.has_fails() and not trace.has_inconclusive()


def test_real_pipeline_guards():
    with pytest.raises(SideConditionViolated):
        real_pipeline(FSet(Q, [1, 2, 3]))
    with pytest.raises(SetTooSmall):
        real_pipeline(FSet(Q, [5]))


def test_real_trace_deterministic():
    a = FSet(Q, [2, 3, 5])
    assert real_pipeline(a).to_bytes() == real_pipeline(a).to_bytes()


def test_random_fp_pipelines_never_fail():
    rng = random.Random(50)
    done = 0
    while done < 6:
        p = rng.choice([101, 103, 107, 109, 113])
        size = rng.randint(4, 9)
        vals = rng.sample([v for v in range(1, p - 1)], size)
        trace = finite_field_pipeline(FSet(FieldCtx.prime(p), vals))
        assert not trace.has_fails()
        done += 1


def test_trace_bytes_independent_of_hash_seed(tmp_path):
    import json
    import os
    import subprocess
    import sys
    from pathlib import Path

    script = tmp_path / "run.py"
    script.write_text(
        "import sys\n"
        "from expanderlab import FieldCtx, FSet, finite_field_pipeline\n"
        "A = FSet(FieldCtx.prime(109), [1, 5, 10, 31, 36, 40, 43, 65, 71])\n"
        "sys.stdout.buffer.write(finite_field_pipeline(A).to_bytes())\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    outs = []
    for seed in ("0", "424242"):
        proc = subprocess.run(
            [sys.executable, "-B", str(script)],
            capture_output=True,
            env={"PYTHONHASHSEED": seed, "PATH": os.environ.get("PATH", ""),
                 "PYTHONPATH": str(src)},
            cwd=tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    json.loads(outs[0])  # well-formed


def test_a_test_run_writes_nothing_under_its_cwd(tmp_path):
    # a copy of the repo's test setup, so the run's rootdir is its cwd: pytest
    # writes its own files (its cache) under the rootdir, not the cwd
    import os
    import shutil
    import subprocess
    import sys
    from pathlib import Path

    repo = Path(__file__).resolve().parents[1]
    cwd = tmp_path / "root"
    (cwd / "tests").mkdir(parents=True)
    for name in ("pyproject.toml", "conftest.py", "tests/test_field.py"):
        shutil.copy(repo / name, cwd / name)
    before = sorted(cwd.rglob("*"))
    proc = subprocess.run(
        [sys.executable, "-B", "-m", "pytest", "-q", "tests/test_field.py"],
        capture_output=True, text=True, cwd=cwd,
        env={"PATH": os.environ.get("PATH", ""), "PYTHONPATH": str(repo / "src")},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert " passed" in proc.stdout
    assert sorted(cwd.rglob("*")) == before
