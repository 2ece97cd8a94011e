"""Seeded workloads: each pass is a fixed schedule of slots, and the seed
only chooses the elements (and small parameters) inside each slot.

One operation is one `expanderlab.cli.main(argv)` call on one instance.  A
slot fixes an operation's family and size, so the mix of sizes, and with it
the cost of a pass, is the same for every seed; the seed moves the random
content.  Every pass draws fresh instances, so a cache kept across calls
by the program cannot serve a later pass from an earlier one.

Nothing here imports expanderlab: the program only ever sees the set files
and the argv written from these descriptions.
"""
from __future__ import annotations

import json
import math
import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Tuple

WORKLOADS = ("real-chain", "fp-chain", "verify-all", "search")


@dataclass(frozen=True)
class Op:
    """One CLI call: its argv, the set files it reads, and what it must give."""

    ident: str                   # "<pass>.<slot>", unique within a workload
    group: str                   # family or group name, used by the checks
    argv: Tuple[str, ...]
    out: str                     # the declared output file
    expect_rc: int
    files: Dict[str, str] = field(default_factory=dict)  # relative path -> text
    meta: Dict[str, object] = field(default_factory=dict)  # search: p and sizes


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in range(2, math.isqrt(n) + 1):
        if n % q == 0:
            return False
    return True


def primes_in(lo: int, hi: int) -> List[int]:
    return [v for v in range(lo, hi + 1) if is_prime(v)]


def _set_text(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True) + "\n"


def fp_doc(p: int, vals) -> str:
    return _set_text({"field": "fp", "p": p, "elements": sorted(vals)})


def q_doc(vals) -> str:
    return _set_text({"field": "q", "elements": [str(v) for v in sorted(vals)]})


# -- rational families ----------------------------------------------------------
# Every rational set avoids 0, 1 and -1, which the registry relations and the
# real pipeline exclude.

_BANNED_Q = {Fraction(0), Fraction(1), Fraction(-1)}


def q_random(rng: random.Random, n: int, num: int = 60, den: int = 12) -> set:
    vals = set()
    while len(vals) < n:
        v = Fraction(rng.randint(-num, num), rng.randint(1, den))
        if v not in _BANNED_Q:
            vals.add(v)
    return vals


# A slot fixes the ratio or the step, which set the size of the numbers and
# with it the cost; the seed picks the first term.  The first term c >= 2
# and a ratio or step above 0 keep every term >= 2.

def q_geometric(rng: random.Random, n: int, ratio: Fraction) -> set:
    c = rng.randint(2, 9)
    return {c * ratio ** i for i in range(n)}


def q_arithmetic(rng: random.Random, n: int, step: Fraction) -> set:
    """step * [t, t + n) with an integer t, so that every slot's progression
    has the same shape up to scale and shift."""
    t = rng.randint(2, 9) * step.denominator
    return {(t + i) * step for i in range(n)}


# -- prime-field families ---------------------------------------------------------
# Every F_p set avoids 0 and -1 (= p - 1), which the fp pipeline excludes, and 1.

def fp_random(rng: random.Random, p: int, n: int) -> List[int]:
    return rng.sample(range(2, p - 1), n)


def fp_progression(rng: random.Random, n: int) -> List[int]:
    start = rng.randint(2, 60)
    return list(range(start, start + n))


def dyadic_class(p: int, vals) -> List[int]:
    """A1 as the fp pipeline selects it: the base point b0 maximises the
    total overlap sum_a |a(A+1) & b0(A+1)| (ties to the smallest b0), and A1
    is the dyadic overlap class of largest mass 2^j |class j|.  The total
    for b is sum over x in b(A+1) of #{a : x in a(A+1)}, so this is O(n^2)."""
    shifted = {a: frozenset(a * (b + 1) % p for b in vals) for a in vals}
    mult = Counter(x for s in shifted.values() for x in s)
    _, neg_b0 = max((sum(mult[x] for x in shifted[b]), -b) for b in vals)
    base = shifted[-neg_b0]
    level = {a: len(shifted[a] & base).bit_length() - 1 for a in vals}
    classes = Counter(j for j in level.values() if j >= 0)
    top = min(classes, key=lambda k: (-(1 << k) * classes[k], k))
    return [a for a in vals if level[a] == top]


def ratio_set_is_full(p: int, a1) -> bool:
    """Whether R(A1) = {(a - b)/(c - d) : c != d} is all of F_p, the test
    that sends the pipeline to `ReqFp` rather than `RneqFp`."""
    diffs = {(a - b) % p for a in a1 for b in a1}
    invs = [pow(d, -1, p) for d in diffs if d]
    return len({x * y % p for x in diffs for y in invs}) == p


def fp_conditioned(rng: random.Random, p: int, draw: Callable[[], List[int]],
                   target: Tuple[int, int, object]) -> List[int]:
    """Redraw until |A1| lies in [lo, hi] and, unless `full` is None,
    ratio_set_is_full(A1) == full; so a slot keeps its pipeline branch for
    every seed and its cost within a narrow band."""
    lo, hi, full = target
    for _ in range(2000):
        vals = draw()
        a1 = dyadic_class(p, vals)
        if lo <= len(a1) <= hi and (full is None or ratio_set_is_full(p, a1) == full):
            return vals
    raise RuntimeError(f"no set with |A1| in [{lo}, {hi}] at p = {p}")


# -- schedules ------------------------------------------------------------------
# Each pass maker returns the ops of one pass.  Families take turns and each
# family's sizes come in a scrambled order, so any prefix of a pass holds
# every family and a spread of sizes.

def interleave(*families):
    """Round-robin over the families' slot lists."""
    out = []
    for k in range(max(map(len, families))):
        out.extend(f[k] for f in families if k < len(f))
    return out


def _pipeline_op(ident: str, group: str, mode: str, text: str) -> Op:
    path = f"sets/{ident}.json"
    out = f"out/{ident}.json"
    return Op(ident, group, ("pipeline", path, "--mode", mode, "--out", out), out, 0,
              {path: text})


_RATIOS = (Fraction(3, 2), Fraction(2), Fraction(4, 3))
_STEPS = (Fraction(1), Fraction(1, 2), Fraction(1, 3))
REAL_SLOTS = interleave(  # (family, |A|, geometric ratio or arithmetic step)
    [("random", n, None) for n in (20, 28, 23, 40, 21, 26, 22, 31, 24)],
    [("geometric", n, _RATIOS[k % 3]) for k, n in enumerate((24, 21, 30, 22, 36, 25, 28, 20, 26))],
    [("arithmetic", n, _STEPS[k % 3]) for k, n in enumerate((26, 20, 33, 22, 38, 24, 29, 21, 25))],
)


def real_chain(rng: random.Random, pass_no: int, slots=REAL_SLOTS) -> List[Op]:
    """`pipeline --mode real` on random fractions, geometric progressions
    and arithmetic progressions with |A| from 20 to 40."""
    ops = []
    for i, (family, n, shape) in enumerate(slots):
        if family == "random":
            vals = q_random(rng, n)
        elif family == "geometric":
            vals = q_geometric(rng, n, shape)
        else:
            vals = q_arithmetic(rng, n, shape)
        ops.append(_pipeline_op(f"{pass_no}.{i}", family, "real", q_doc(vals)))
    return ops


# Targets (lo, hi, full) for |A1| and for R(A1) = F_p: the branch, and the
# cost of the R(A1) loop and of the twist scan, follow them, so a target
# keeps each slot's cost close for all seeds.
DEGENERATE = (1, 1, None)
REQ_FP = (16, 17, True)
RNEQ_FP = (8, 10, False)      # the R(A1) loop grows as |A1|^4

FP_SLOTS = interleave(  # (family, p, |A|, target)
    [("sparse", p, n, DEGENERATE) for p, n in (
        (40009, 80), (160001, 90), (40009, 100), (160001, 80), (40009, 90), (160001, 110),
        (40009, 85))],
    [("dense", p, math.isqrt(9 * p // 10), REQ_FP)
     for p in (3001, 2503, 4001, 3499, 3607, 3001, 4001, 2503, 3499)],
    [("progression", p, n, RNEQ_FP) for p, n in (
        (40009, 60), (160001, 100), (10007, 80), (20011, 120), (40009, 100))],
    [("subset", p, n, RNEQ_FP) for p, n in (
        (80021, 60), (160001, 100), (40009, 80), (40009, 60))],
)


def fp_chain(rng: random.Random, pass_no: int, slots=FP_SLOTS) -> List[Op]:
    """Three branch families.  Sparse random sets end in `degenerate`.
    Near-dense random sets (n^2 ~ 0.9p) reach `ReqFp` only when A1 is
    large and R(A1) = F_p, which is fewer than half of them, so they are
    drawn to REQ_FP.  Progressions [s, s + n) and random n-subsets of
    [2, 2n] are drawn to RNEQ_FP."""
    def draw(family, p, n):
        if family == "progression":
            return fp_progression(rng, n)
        if family == "subset":
            return rng.sample(range(2, 2 * n + 1), n)
        return fp_random(rng, p, n)

    ops = []
    for i, (family, p, n, target) in enumerate(slots):
        vals = fp_conditioned(rng, p, lambda: draw(family, p, n), target)
        ops.append(_pipeline_op(f"{pass_no}.{i}", family, "fp", fp_doc(p, vals)))
    return ops


VERIFY_GROUPS = interleave(  # (field, |A|) of a group of 1, 2 and 3 sets
    [("q", n) for n in (16, 23, 30, 20, 27, 18, 25, 29, 21)],
    [("fp", n) for n in (100, 130, 160)],
)
VERIFY_SLOTS = [(fld, n, k) for fld, n in VERIFY_GROUPS for k in (1, 2, 3)]
VERIFY_PRIMES = primes_in(39990, 40030)


def verify_all(rng: random.Random, pass_no: int, slots=VERIFY_SLOTS) -> List[Op]:
    """`verify --all` on groups of 1, 2 or 3 sets.  Over F_p the 2-set group
    exits 64 by design: R7 and R9 run over the rationals only."""
    ops = []
    for i, (fld, n, k) in enumerate(slots):
        ident = f"{pass_no}.{i}"
        files = {}
        p = rng.choice(VERIFY_PRIMES) if fld == "fp" else None
        for j in range(k):
            path = f"sets/{ident}.{'ABC'[j]}.json"
            files[path] = q_doc(q_random(rng, n, 40, 8)) if p is None else fp_doc(
                p, fp_random(rng, p, n))
        out = f"out/{ident}.json"
        argv = ("verify", *files, "--all", "--out", out)
        if p is None:
            argv += ("--t", "2")
        rc = 64 if (fld, k) == ("fp", 2) else 0
        ops.append(Op(ident, f"{fld}{k}", argv, out, rc, files))
    return ops


SEARCH_SLOTS = interleave(  # (mode, prime choices or None, sizes); None is Q for exhaustive
    [("exhaustive", primes, sizes) for primes, sizes in (
        ((31, 37), (3, 4)), (None, (4,)), ((41, 43), (4,)), ((53, 59, 61), (3,)),
        ((47,), (4,)), (None, (3, 4)), ((31, 37), (4,)), ((43, 47), (3, 4)),
        (None, (4,)), ((37, 41), (4,)), ((59, 61), (3,)), (None, (3, 4)),
        ((41, 43), (3, 4)), ((31,), (3, 4)))],
    [("hillclimb", None, (n,)) for n in (6, 12, 8, 10, 7, 9, 11, 6, 12, 8, 10, 7, 9, 11)],
    [("anneal", None, (n,)) for n in (10, 8, 12, 6, 7, 11, 9, 10, 8, 12, 6, 7, 11, 9)],
)
STOCHASTIC_PRIMES = primes_in(997, 4999)


def search(rng: random.Random, pass_no: int, slots=SEARCH_SLOTS) -> List[Op]:
    """Exhaustive search over small primes and a rational range, and seeded
    hillclimb/anneal over p in [997, 4999], with the CLI's other defaults
    (iterations, restarts and the thread count)."""
    ops = []
    for i, (mode, primes, sizes) in enumerate(slots):
        ident = f"{pass_no}.{i}"
        out = f"out/{ident}.csv"
        if mode == "exhaustive" and primes is None:
            lo = -rng.randint(6, 9)
            field_args = ("--rational-range", str(lo), str(lo + 16))
            p = None
        else:
            p = rng.choice(primes or STOCHASTIC_PRIMES)
            field_args = ("--p", str(p))
        argv = ("search", *field_args, "--n", *map(str, sizes), "--mode", mode,
                "--seed", str(rng.getrandbits(32)), "--out", out)
        ops.append(Op(ident, mode, argv, out, 0, {}, {"p": p, "sizes": sizes}))
    return ops


PASS_MAKERS = {
    "real-chain": real_chain,
    "fp-chain": fp_chain,
    "verify-all": verify_all,
    "search": search,
}


def build(workload: str, seed: int, passes: int) -> List[List[Op]]:
    """The ops of `passes` passes of a workload, from the seed alone."""
    make_pass = PASS_MAKERS[workload]
    return [make_pass(random.Random(f"{workload}/{seed}/{k}"), k) for k in range(passes)]
