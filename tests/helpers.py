"""Shared instance generators for the test suite; all seeded and deterministic."""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple
from unittest import mock

from expanderlab import FieldCtx, FSet, PairGraph, combine, sets
from expanderlab import constructions as cons
from expanderlab.energy import PRECISION_START, EnergyValue, _exact_energy, precision_cap
from expanderlab.errors import CollisionFound, InvariantViolation
from expanderlab.incidence import Line
from expanderlab.intervals import RatInterval, iroot_floor, pow_interval
from expanderlab.sets import DiscreteLog, _lcd, _mask_of, _scaled

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
    full = [(i, j) for i in range(len(a)) for j in range(len(b))]
    max_del = int(epsilon * len(full))
    n_del = rng.randint(0, max_del)
    removed = set(rng.sample(full, n_del))
    return PairGraph(a, b, [e for e in full if e not in removed])


def transpose(g: PairGraph) -> PairGraph:
    """The graph on right x left with the edge (j, i) for each edge (i, j) of g."""
    return PairGraph(g.right, g.left, ((j, i) for i, j in g.edges))


def force_kernels(kernel: bool, *forks):
    """A patch of the price table under which `sets.choose` takes the kernel
    (kernel=True) or the pair kernel at each of `forks`, or at every fork
    when none is named."""
    costs = (0, 1) if kernel else (1, 0)
    return mock.patch.dict(sets.KERNELS, {f: lambda *args: costs for f in forks or sets.KERNELS})


def log_mask(a: FSet) -> int:
    """The log mask of a subset of F_p^*: the (p-1)-bit int with bit log(x)
    set for each member x."""
    p = a.ctx.p
    return _mask_of(DiscreteLog(p)._logs_of(a), p - 1)


# -- edge-set oracles for the flag-byte PairGraph ------------------------------------

def neighbour_masks(edges, n: int, rows) -> list:
    """For each r in `rows`, the int with bit j set for every (r, j) in
    `edges`: the neighbour mask of vertex r, one of n."""
    masks = [0] * n
    for r, j in edges:
        masks[r] |= 1 << j
    return [masks[r] for r in rows]


def neighbors_left(g: PairGraph) -> dict:
    """Map of left value -> sorted tuple of right neighbour values."""
    adj = {v: [] for v in g.left.vals}
    lv, rv = g.left.vals, g.right.vals
    for i, j in g.edges:
        adj[lv[i]].append(rv[j])
    return {v: tuple(sorted(ns)) for v, ns in adj.items()}


def literal_partial_diff(g) -> FSet:
    """The old `partial_combine(g, "diff")`: one `ctx.sub` per edge."""
    ctx = g.left.ctx
    lv, rv = g.left.vals, g.right.vals
    return FSet(ctx, {ctx.sub(lv[i], rv[j]) for i, j in g.edges})


# -- the pure-int witness scan that the mask scan of `partial_ruzsa` replaced --

def _index_rows(g, side: FSet, part) -> list:
    """[(v, B_v, row)] for v in `side`: B_v is the set of indices of the
    right neighbours of v in g, and row maps the index j of each right
    vertex w to part(v, w), leaving out the j where that is None."""
    nbrs = {v: set() for v in side.vals}
    lv = g.left.vals
    for i, j in g.edges:
        if lv[i] in nbrs:
            nbrs[lv[i]].add(j)
    out = []
    for v in side.vals:
        row = {}
        for j, w in enumerate(g.right.vals):
            key = part(v, w)
            if key is not None:
                row[j] = key
        out.append((v, frozenset(nbrs[v]), row))
    return out


def pure_scan(g, ht, a_side, c_side, least, pab, pbc):
    """The old `constructions._pure_scan`: (|A' - C'|, |Y|), or the first
    failing check raised: the overlap of every (a, c) in order, then each
    difference x in sorted order through its first pair (a, c), witness by
    witness, an escaping image before a repeated one.

    A witness (x, b) maps to (a - b, b - c), keyed by the int
    i * |B -_H C| + j of its indices i, j in the sorted partial difference
    sets; rows hold the key parts per a and per c, keyed by the index of b
    in B.  The keys of each difference go into one set in bulk; only after
    a failure are the witnesses walked one by one to name it.
    """
    sub = g.left.ctx.sub
    ab_index = {v: i * len(pbc) for i, v in enumerate(pab.vals)}
    bc_index = {v: j for j, v in enumerate(pbc.vals)}
    a_rows = _index_rows(g, a_side, lambda av, bv: ab_index.get(sub(av, bv)))
    c_rows = _index_rows(ht, c_side, lambda cv, bv: bc_index.get(sub(bv, cv)))

    diffs = set()
    seen = set()
    y_size = 0
    escaped = False
    for av, b_a, a_row in a_rows:
        for cv, b_c, c_row in c_rows:
            common = b_a & b_c
            if len(common) < least:
                raise InvariantViolation(
                    f"overlap below (1 - 2 sqrt(eps))|B| at ({av}, {cv})"
                )
            x = sub(av, cv)
            if x in diffs:
                continue
            diffs.add(x)
            try:
                seen.update([a_row[j] + c_row[j] for j in common])
            except KeyError:  # an image coordinate escapes
                escaped = True
            y_size += len(common)
    if not escaped and len(seen) == y_size:
        return len(diffs), y_size

    reps = {}
    for av, b_a, a_row in a_rows:
        for cv, b_c, c_row in c_rows:
            reps.setdefault(sub(av, cv), (av, cv, a_row, c_row, b_a & b_c))
    bvals = g.right.vals
    images: dict = {}
    for x in sorted(reps):
        av, cv, a_row, c_row, common = reps[x]
        for j in sorted(common):
            if j not in a_row or j not in c_row:
                raise InvariantViolation("witness image escapes the partial difference sets")
            key, bv = a_row[j] + c_row[j], bvals[j]
            if key in images:
                raise CollisionFound(f"image {(sub(av, bv), sub(bv, cv))} reached twice",
                                     images[key], (x, bv))
            images[key] = (x, bv)
    raise InvariantViolation("witness scan failed where its rescan passes")


def pure_partial_ruzsa(g, h, epsilon) -> cons.PartialTriangleResult:
    """The old `partial_ruzsa` with `pure_scan` as its scan, from the
    validated graphs on.  Its helpers are looked up in `constructions`, so a
    test can patch them."""
    eps = Fraction(epsilon)
    a_side = cons.dense_degree_subset(g, eps)
    ht = transpose(h)
    c_side = cons.dense_degree_subset(ht, eps)
    nb = len(g.right)
    least = cons._least_passing(nb, eps, k=2)
    pab = cons.partial_combine(g)
    pbc = cons.partial_combine(h)
    n_diffs, y_size = pure_scan(g, ht, a_side, c_side, least, pab, pbc)
    diff_ac = combine(a_side, c_side, "diff")
    assert len(diff_ac) == n_diffs
    return cons.PartialTriangleResult(
        a_side=a_side,
        c_side=c_side,
        y_size=y_size,
        partial_ab=pab,
        partial_bc=pbc,
        diff_ac=diff_ac,
        slack=Fraction(len(diff_ac) * nb, len(pab) * len(pbc)),
    )


# -- literal copies of the root and energy enclosures before their int forms ------

def newton_iroot_floor(n: int, q: int) -> int:
    """The old `iroot_floor`: Newton iteration seeded at a power of two at
    least twice the root."""
    if q == 1 or n in (0, 1):
        return n
    if q == 2:
        return math.isqrt(n)
    x = 1 << ((n.bit_length() + q - 1) // q + 1)
    while True:
        y = ((q - 1) * x + n // x ** (q - 1)) // q
        if y >= x:
            break
        x = y
    while x ** q > n:
        x -= 1
    return x


def newton_root_interval(x, q: int, bits: int) -> RatInterval:
    """The old `root_interval`, on `newton_iroot_floor`."""
    x = Fraction(x)
    if x == 0:
        return RatInterval.point(0)
    scale = 1 << bits
    shifted = (x.numerator << (q * bits)) // x.denominator
    r = newton_iroot_floor(shifted, q)
    s = newton_iroot_floor(shifted + 1, q)
    return RatInterval(Fraction(r, scale), Fraction(s + 1, scale))


def rat_interval_energy_at(hist, alpha, bits: int) -> EnergyValue:
    """The old `energy_at`: the enclosure as a sum of `RatInterval` terms."""
    alpha = Fraction(alpha)
    exact = _exact_energy(hist, alpha)
    if exact is not None:
        return exact
    acc = RatInterval.point(0)
    for m, c in hist.entries:
        acc = interval_add(acc, pow_interval(m, alpha, bits) * c)
    return EnergyValue(alpha, acc.lo, acc.hi, bits)


# -- interval readers only tests use, and the general-path interval oracles --------

def width(iv: RatInterval) -> Fraction:
    return iv.hi - iv.lo


def is_point(iv: RatInterval) -> bool:
    return iv.lo == iv.hi


def contains(iv: RatInterval, x) -> bool:
    return iv.lo <= x <= iv.hi


def interval_add(a, b) -> RatInterval:
    """The old `RatInterval.__add__` and `__radd__`: the sums of the endpoints,
    with a number taken as a point."""
    a, b = (x if isinstance(x, RatInterval) else RatInterval.point(x) for x in (a, b))
    return RatInterval(a.lo + b.lo, a.hi + b.hi)


def interval_rmul(k, iv: RatInterval) -> RatInterval:
    """The old `RatInterval.__rmul__`: k * iv for a number k, taken as iv * k."""
    return iv * k


def contains_interval(outer: RatInterval, inner: RatInterval) -> bool:
    return outer.lo <= inner.lo and inner.hi <= outer.hi


def four_product_mul(a: RatInterval, b: RatInterval) -> RatInterval:
    """The old `RatInterval.__mul__`: min and max of the four endpoint products."""
    products = (a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi)
    return RatInterval(min(products), max(products))


def four_quotient_div(a: RatInterval, b: RatInterval) -> RatInterval:
    """The old `RatInterval.__truediv__`: min and max of the four quotients."""
    if b.lo <= 0 <= b.hi:
        raise ZeroDivisionError("interval division through zero")
    quotients = (a.lo / b.lo, a.lo / b.hi, a.hi / b.lo, a.hi / b.hi)
    return RatInterval(min(quotients), max(quotients))


def kfold_power(iv: RatInterval, k: int) -> RatInterval:
    """The old `RatInterval.power`: k four-product multiplications from 1."""
    out = RatInterval.point(1)
    for _ in range(k):
        out = four_product_mul(out, iv)
    return out


def fraction_decimal(x, digits: int, direction: str) -> str:
    """The old `fraction_to_decimal` on Fractions (x * 10^digits reduced by
    its gcd), with the integer part kept at 0 digits."""
    x = Fraction(x)
    if x == 0:
        return "0"
    sign = "-" if x < 0 else ""
    mag = -x if x < 0 else x
    scaled = mag * Fraction(10) ** digits
    n, rem = divmod(scaled.numerator, scaled.denominator)
    if rem:
        if direction == "ceil" and sign == "":
            n += 1
        elif direction == "floor" and sign == "-":
            n += 1
        elif direction == "nearest" and 2 * rem >= scaled.denominator:
            n += 1
    if n == 0:  # the old code kept the sign here and gave "-0"
        return "0"
    if digits == 0:
        return f"{sign}{n}"
    text = str(n).rjust(digits + 1, "0")
    whole, frac = text[:-digits], text[-digits:]
    frac = frac.rstrip("0")
    return f"{sign}{whole}.{frac}" if frac else f"{sign}{whole}"


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
            acc = interval_add(acc, pow_interval(m, alpha, bits) * c)
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
