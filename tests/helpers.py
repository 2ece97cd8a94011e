"""Shared instance generators for the test suite; all seeded and deterministic."""
from __future__ import annotations

import contextlib
import random
from fractions import Fraction

from expanderlab import FieldCtx, FSet
from expanderlab import constructions as cons
from expanderlab.energy import PRECISION_START, precision_cap
from expanderlab.intervals import RatInterval, iroot_floor, pow_interval

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
