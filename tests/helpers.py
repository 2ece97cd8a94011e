"""Shared instance generators for the test suite; all seeded and deterministic."""
from __future__ import annotations

import contextlib
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

from expanderlab import FieldCtx, FSet
from expanderlab import constructions as cons
from expanderlab.energy import PRECISION_START, precision_cap
from expanderlab.incidence import Line
from expanderlab.intervals import RatInterval, iroot_floor, pow_interval
from expanderlab.sets import _lcd, _scaled

PRIMES_TO_101 = [7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
                 59, 61, 67, 71, 73, 79, 83, 89, 97, 101]

Q = FieldCtx.rational()


def random_fp_set(rng: random.Random, p: int, size: int, exclude=(0,)) -> FSet:
    ctx = FieldCtx.prime(p)
    banned = {ctx.canon(v) for v in exclude}
    pool = [v for v in range(p) if v not in banned]
    size = min(size, len(pool))
    return FSet(ctx, rng.sample(pool, size))


def random_q_set(rng: random.Random, size: int, exclude=(0, 1, -1),
                 num_range=12, den_range=4) -> FSet:
    banned = {Fraction(v) for v in exclude}
    vals = set()
    while len(vals) < size:
        v = Fraction(rng.randint(-num_range, num_range), rng.randint(1, den_range))
        if v not in banned:
            vals.add(v)
    return FSet(Q, vals)


def random_pair(rng: random.Random, exclude=(0,), max_size=10, p=None):
    """A matched (A, B) pair over a random small prime."""
    p = p or rng.choice(PRIMES_TO_101)
    a = random_fp_set(rng, p, rng.randint(2, max_size), exclude)
    b = random_fp_set(rng, p, rng.randint(2, max_size), exclude)
    return a, b


def dense_random_graph(rng: random.Random, a: FSet, b: FSet, epsilon: Fraction):
    """A PairGraph with at least (1 - epsilon)|A||B| edges, built by deleting
    at most floor(epsilon |A||B|) random edges from the complete graph."""
    from expanderlab import PairGraph

    full = [(i, j) for i in range(len(a)) for j in range(len(b))]
    max_del = int(epsilon * len(full))
    n_del = rng.randint(0, max_del)
    removed = set(rng.sample(full, n_del))
    return PairGraph(a, b, [e for e in full if e not in removed])


SCAN_PATHS = ("array", "no-numpy")


@contextlib.contextmanager
def scan_path(path: str):
    """Run `partial_ruzsa`'s witness scan on numpy arrays where they fit
    ("array"), or as if numpy were not installed ("no-numpy")."""
    saved = cons._numpy
    if path == "no-numpy":
        cons._numpy = lambda: None
    try:
        yield
    finally:
        cons._numpy = saved


# -- literal copies of the enclosure code that `energy_at` replaced ----------------

def old_energy_loop(hist, alpha, cap, min_bits):
    """The refinement loop of the old `energy(hist, alpha, cap, min_bits)` on a
    spectrum that is not all perfect q-th powers.  Returns the enclosure, its
    precision and whether the cap stopped the loop."""
    cap = precision_cap(cap)
    bits = min(max(PRECISION_START, min_bits or 0), cap)
    while True:
        acc = RatInterval.point(0)
        for m, c in hist.entries:
            acc = acc + pow_interval(m, alpha, bits) * c
        if acc.lo > 0 and (acc.hi - acc.lo) * (1 << 64) < acc.lo:
            return acc, bits, False
        if bits >= cap:
            return acc, bits, True
        bits = min(bits * 2, cap)


def old_e15_capped(hist, cap, bits):
    """The old `verify._e15_capped`: the old energy's exact branches, else the
    enclosure its loop ended on, at the cap or not."""
    roots = [iroot_floor(m, 2) for m, _ in hist.entries]
    if all(r * r == m for r, (m, _) in zip(roots, hist.entries)):
        return RatInterval.point(sum(c * r ** 3 for r, (_, c) in zip(roots, hist.entries)))
    return old_energy_loop(hist, Fraction(3, 2), cap, bits)[0]


# -- literal copies of the Fraction slope family that `st_lower_bound_check` replaced --

def line_from_expander_params(alpha, b) -> Line:
    """The old `Line.from_expander_params`: l_{alpha,b} as a Fraction Line."""
    # y = (alpha*x - 1)*b  ==  y = (alpha*b)*x - b
    alpha, b = Fraction(alpha), Fraction(b)
    return Line(False, alpha * b, -b, provenance=(alpha, b))


@dataclass(frozen=True)
class LineFamily:
    lines: Tuple[Line, ...]
    expected_size: int           # |A(A+1)| * |B|
    duplicates: Tuple            # colliding parameter pairs, if any


def literal_line_family(alphas: FSet, b: FSet) -> LineFamily:
    """The old `incidence._line_family`: the family {y = (alpha*x - 1)*b :
    alpha in `alphas`, b in B} for the slopes `alphas` = A(A+1), with 0 not
    in b, as sorted Fraction Lines with their parameters as provenance."""
    sa, sb = _lcd(alphas.vals), _lcd(b.vals)
    b_scaled = list(zip(b.vals, _scaled(b.vals, sb)))
    # l_{alpha,b} has slope alpha*b = k*j/(sa*sb) and intercept -b = -j/sb, so
    # (k*j, -j) is an integer key in the same order as (slope, intercept)
    seen: dict = {}
    dups = []
    for alpha, k in zip(alphas.vals, _scaled(alphas.vals, sa)):
        for bv, j in b_scaled:
            key = (k * j, -j)
            if key in seen:
                dups.append((seen[key], (alpha, bv)))
            else:
                seen[key] = (alpha, bv)
    lines = []
    for key in sorted(seen):
        alpha, bv = prov = seen[key]
        lines.append(Line(False, alpha * bv, -bv, provenance=prov))
    lines = tuple(lines)
    return LineFamily(
        lines=lines,
        expected_size=len(alphas) * len(b),
        duplicates=tuple(dups),
    )
