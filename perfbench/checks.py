"""Seed-independent output checks, written without expanderlab's code.

Each check reads the files an operation wrote and returns a list of
problems; an empty list means the output is accepted.
"""
from __future__ import annotations

import csv
import hashlib
import json
from fractions import Fraction
from typing import List

from workloads import Op

BAD_VERDICTS = ("Fails", "Inconclusive")
Q_ONLY = {"R7", "R9"}


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def expander_count(p, vals) -> int:
    """|A(A+1)| by brute force, over F_p when p is an int, else over Q."""
    if p is None:
        return len({x * (y + 1) for x in vals for y in vals})
    return len({x * (y + 1) % p for x in vals for y in vals})


def _pipeline(op: Op, problems: List[str]) -> None:
    with open(op.out, "rb") as fh:
        doc = json.loads(fh.read())
    verdicts = [s["report"]["verdict"] for s in doc["steps"]]
    bad = sorted(set(verdicts) & set(BAD_VERDICTS))
    if bad:
        problems.append(f"trace holds {bad}")
    (path, text), = op.files.items()
    if doc["input"] != json.loads(text):
        problems.append("trace input differs from the set file")


def _verify(op: Op, problems: List[str]) -> None:
    with open(op.out, "rb") as fh:
        doc = json.loads(fh.read())
    verdicts = {r["name"]: r["verdict"] for r in doc["reports"]}
    bad = sorted(k for k, v in verdicts.items() if v in BAD_VERDICTS)
    if bad:
        problems.append(f"relations {bad} gave Fails or Inconclusive")
    violated = {v["name"] for v in doc["violations"]}
    expected = Q_ONLY if op.group == "fp2" else set()
    if violated != expected:
        problems.append(f"violations {sorted(violated)}, expected {sorted(expected)}")
    paths = list(op.files)
    if any(r["inputs_path"] != paths for r in doc["reports"]):
        problems.append("inputs_path differs from the set files given")


def _search(op: Op, problems: List[str]) -> None:
    with open(op.out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    p = op.meta["p"]
    sizes = sorted(op.meta["sizes"])
    if sorted(int(r["n"]) for r in rows) != sizes:
        problems.append(f"rows for sizes {[r['n'] for r in rows]}, asked {sizes}")
    for row in rows:
        if row["p"] != ("Q" if p is None else str(p)):
            problems.append(f"row field {row['p']} for p = {p}")
        vals = [Fraction(v) if p is None else int(v) for v in row["witness"].split()]
        if len(set(vals)) != int(row["n"]):
            problems.append(f"witness {row['witness']} has not n distinct elements")
        degenerate = {0, -1} if p is None else {0, p - 1}
        if degenerate & set(vals):
            problems.append(f"witness {row['witness']} holds 0 or -1")
        count = expander_count(p, vals)
        if count != int(row["value"]):
            problems.append(f"witness {row['witness']}: |A(A+1)| = {count}, "
                            f"reported {row['value']}")


KIND_CHECKS = {"pipeline": _pipeline, "verify": _verify, "search": _search}


def check_output(op: Op, rc: int) -> List[str]:
    """Exit-code rule for the op's group, then the output's own checks."""
    if rc != op.expect_rc:
        return [f"exit code {rc}, expected {op.expect_rc}"]
    problems: List[str] = []
    try:
        KIND_CHECKS[op.argv[0]](op, problems)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
    return problems
