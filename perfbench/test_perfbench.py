"""Smoke test of the benchmark's own code: every workload on one or two tiny
operations, untraced and traced.

    python3 -m pytest perfbench
"""
import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

SEED = 7  # not the default seed, whose frozen digests belong to the full-size ops
TINY = {
    "real-chain": (workloads.real_chain, [("random", 6, None), ("geometric", 5, Fraction(2))]),
    "fp-chain": (workloads.fp_chain, [("sparse", 1009, 20, (1, 1, None)),
                                      ("dense", 211, 13, (8, 13, True))]),
    "verify-all": (workloads.verify_all, [("q", 6, 2), ("fp", 12, 2)]),
    "search": (workloads.search, [("exhaustive", (31,), (3,)), ("anneal", None, (6,))]),
}
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_smoke(workload, trace, monkeypatch, tmp_path):
    make_pass, slots = TINY[workload]
    monkeypatch.setitem(workloads.PASS_MAKERS, workload, lambda rng, k: make_pass(rng, k, slots))
    monkeypatch.setattr(run, "SCRATCH", tmp_path)
    result = run.run_workload(workload, SEED, seconds=0, trace=trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace:
        assert result["metrics"]["cli.main.calls"]["value"] == 1
        assert list(tmp_path.glob("spans-*.tsv.gz"))


def test_fp_slots_reach_their_branch(monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    ops = workloads.fp_chain(random.Random(SEED), 0, TINY["fp-chain"][1])
    run.write_files([ops], tmp_path)
    cli = run.fresh_import()
    branches = []
    for op in ops:
        assert cli.main(list(op.argv)) == 0
        branches.append(json.loads(Path(op.out).read_text())["selected"]["branch"])
    assert branches == ["degenerate", "ReqFp"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / HERE.name / "run.py"), "--workload", "search",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
