"""Executable proof constructions: popular-ratio graphs, dense-degree
subsets, greedy covering by translates, dense partial triangle extraction,
iterated-sumset witness search, and the injectivity certificate behind the
partial difference-set bound.

Thresholds of the form (1 - k*sqrt(eps)) * scale are irrational; every
comparison against them is decided exactly in rationals by isolating the
square root and squaring (see `ge_one_minus_k_sqrt`).  A failed internal
check raises InvariantViolation rather than degrading the result: each such
check is a theorem on the instance, so a failure is either a bug or news.

Over F_p the witness scan of `partial_ruzsa` runs on numpy int64 arrays
when every residue, difference and witness key fits: p and
|A -_G B| * |B -_H C| below 2^62.  numpy is imported on the first such
scan, never at import time, so the other commands never load it.  Without
numpy, or outside the guard, the pure-int scan runs; it is also the oracle
the array scan is tested against.  A failed array scan is replayed on the
pure scan, which raises the first failing check, so both paths give the
same results and the same errors.
"""
from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple

from .errors import (
    BudgetExceeded,
    CollisionFound,
    ContextMismatch,
    EpsilonOutOfRange,
    GraphTooSparse,
    InvariantViolation,
    SetTooSmall,
    ZeroElementPresent,
)
from .field import KIND_PRIME
from .sets import (
    FSet,
    PairGraph,
    _from_ints,
    _pair_groups,
    _pair_ints,
    _same_ctx,
    combine,
    expander_set,
    partial_combine,
)


def ge_one_minus_k_sqrt(value, scale, eps: Fraction, k: int = 1) -> bool:
    """Exact test of  value >= (1 - k*sqrt(eps)) * scale  for rationals >= 0.

    Rearranged to k*sqrt(eps)*scale >= scale - value; if the right side is
    non-positive the inequality is immediate, otherwise both sides are
    non-negative and squaring decides it.
    """
    value, scale, eps = Fraction(value), Fraction(scale), Fraction(eps)
    rhs = scale - value
    if rhs <= 0:
        return True
    return k * k * eps * scale * scale >= rhs * rhs


def gt_k_sqrt(value, scale, eps: Fraction, k: int = 1) -> bool:
    """Exact test of  value > k*sqrt(eps) * scale  for rationals >= 0."""
    value, scale, eps = Fraction(value), Fraction(scale), Fraction(eps)
    if value <= 0:
        return False
    return value * value > k * k * eps * scale * scale


def _check_density(g: PairGraph, eps: Fraction) -> None:
    full = len(g.left) * len(g.right)
    if Fraction(len(g)) < (1 - eps) * full:
        raise GraphTooSparse(
            f"|G| = {len(g)} below (1 - {eps}) * {full} = {(1 - eps) * full}"
        )


# -- popular ratio graph -------------------------------------------------------

@dataclass(frozen=True)
class PopularRatioResult:
    x_set: FSet                     # popular ratios X
    graph: PairGraph                # G = {(a, b) : a/b in X}
    epsilon: Fraction
    threshold: Fraction             # eps |A||B| / |A/B|
    partial_diff: FSet              # A -_G B
    ratio_support: int              # |A/B|


def popular_ratio_graph(a: FSet, b: FSet, epsilon) -> PopularRatioResult:
    """Keep the ratios x with |A ∩ xB| >= eps|A||B|/|A/B| and take all pairs
    realising them; the kept graph has at least (1 - eps)|A||B| edges."""
    ctx = _same_ctx(a, b)
    eps = Fraction(epsilon)
    if not 0 < eps < 1:
        raise EpsilonOutOfRange(f"epsilon = {eps} outside (0, 1)")
    if 0 in a.member_set() or 0 in b.member_set():
        raise ZeroElementPresent("popular-ratio construction needs 0 excluded")

    ints, scale = _pair_ints(a, b, "ratio")
    ratios = list(ints)  # pair (i, j) at position i * |B| + j
    mult = Counter(ratios)
    na, nb = len(a), len(b)
    threshold = eps * na * nb / len(mult)
    least = math.ceil(threshold)  # c >= threshold iff c >= least, for ints c
    popular = {r for r, c in mult.items() if c >= least}

    x_set = _from_ints(ctx, popular, scale)
    edges = [divmod(k, nb) for k, r in enumerate(ratios) if r in popular]
    graph = PairGraph._in_range(a, b, edges)

    if sum(mult[r] for r in popular) != len(graph):
        raise InvariantViolation("sum of popular multiplicities != |G|")
    if Fraction(len(graph)) < (1 - eps) * na * nb:
        raise InvariantViolation("popular graph lost more than an eps-fraction of pairs")

    return PopularRatioResult(
        x_set=x_set,
        graph=graph,
        epsilon=eps,
        threshold=threshold,
        partial_diff=partial_combine(graph),
        ratio_support=len(mult),
    )


# -- injectivity certificate ---------------------------------------------------

@dataclass(frozen=True)
class InjectionResult:
    s_size: int
    image_bound: int                # |A(B+1)| * |B(A+1)|
    partial_diff: FSet
    lower_bound_lhs: Optional[Fraction]  # eps|A||B|/|A/B| * |A -_G B| when eps given
    representatives: Tuple          # ((xi, a, b), ...) in canonical order


def injection_witness(a: FSet, b: FSet, g: PairGraph, epsilon=None) -> InjectionResult:
    """Enumerate S = {(xi, (c, d)) : c/d = a(xi)/b(xi)} for the edge-borne
    representatives of each partial difference, push it through
    (xi, (c, d)) -> (a(xi)(1+d), b(xi)(1+c)), and certify injectivity by an
    exhaustive collision scan.

    Raises CollisionFound on any collision (which would falsify the bound
    |S| <= |A(B+1)||B(A+1)| on this instance).
    """
    ctx = _same_ctx(a, b)
    if 0 in b.member_set():
        raise ZeroElementPresent("ratios need 0 excluded from the right set")

    # representative edge per partial difference: lexicographically smallest
    reps = {}
    for av, bv in g.value_edges():  # already sorted
        xi = ctx.sub(av, bv)
        if xi not in reps:
            reps[xi] = (av, bv)

    # all (c, d) pairs with the same ratio as a given pair
    by_ratio, _ = _pair_groups(a, b, "ratio")
    same_ratio = {pair: group for group in by_ratio.values() for pair in group}

    one = ctx.one
    image_seen: dict = {}
    s_size = 0
    for xi in sorted(reps):
        av, bv = reps[xi]
        for cv, dv in same_ratio[av, bv]:
            s_size += 1
            image = (ctx.mul(av, ctx.add(one, dv)), ctx.mul(bv, ctx.add(one, cv)))
            prior = image_seen.get(image)
            if prior is not None:
                raise CollisionFound(
                    f"image {image} reached twice", first=prior, second=(xi, cv, dv)
                )
            image_seen[image] = (xi, cv, dv)

    bound = len(expander_set(a, b)) * len(expander_set(b, a))
    if s_size > bound:
        raise InvariantViolation("injective map into a smaller product set")

    lower = None
    if epsilon is not None:
        eps = Fraction(epsilon)
        ratio_support = len(combine(a, b, "ratio"))
        lower = eps * len(a) * len(b) / ratio_support * len(reps)
        if s_size < lower:
            raise InvariantViolation(
                "fewer ordinates than the popularity threshold guarantees"
            )

    return InjectionResult(
        s_size=s_size,
        image_bound=bound,
        partial_diff=partial_combine(g),
        lower_bound_lhs=lower,
        representatives=tuple((xi,) + reps[xi] for xi in sorted(reps)),
    )


# -- dense degree subset ---------------------------------------------------------

def dense_degree_subset(g: PairGraph, epsilon) -> FSet:
    """Left vertices of degree at least (1 - sqrt(eps))|B|.

    Requires |G| >= (1 - eps)|A||B|; the result then provably contains at
    least (1 - sqrt(eps))|A| vertices, which is re-checked exactly.
    """
    eps = Fraction(epsilon)
    if not 0 <= eps < 1:
        raise EpsilonOutOfRange(f"epsilon = {eps} outside [0, 1)")
    _check_density(g, eps)
    least = _least_passing(len(g.right), eps, 1)
    kept = [v for v, d in zip(g.left.vals, g.left_degrees()) if d >= least]
    if not ge_one_minus_k_sqrt(len(kept), len(g.left), eps):
        raise InvariantViolation("dense-degree subset smaller than guaranteed")
    return g.left.with_values(kept)


# -- greedy covering --------------------------------------------------------------

@dataclass(frozen=True)
class CoverResult:
    covered: FSet                   # A': the union of everything discarded
    base: FSet                      # A1: the dense-degree subset iterated on
    translates: Tuple               # shift values t, one per iteration
    sign: str                       # "+" covers by t + B, "-" by t - B
    iterations: int
    per_step: Tuple                 # ((shift, discarded count), ...)


def greedy_cover(a: FSet, b: FSet, g: PairGraph, epsilon, sign: str = "+") -> CoverResult:
    """Greedy covering of most of `a` by translates of b (or -b).

    Repeatedly picks the pair (x, y) in A* x B whose translate covers the
    most of the remainder (ties to the smallest shift), discards the covered
    elements, and stops once the remainder is at most sqrt(eps)|A1|.  Each
    step's discard count is checked exactly against the pigeonhole guarantee
    |A*| (1 - sqrt(eps))^2 |B| / |A -_G B|.
    """
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    ctx = _same_ctx(a, b)
    eps = Fraction(epsilon)
    if not 0 < eps < Fraction(1, 4):
        raise EpsilonOutOfRange(f"epsilon = {eps} outside (0, 1/4)")
    _check_density(g, eps)

    a1 = dense_degree_subset(g, eps)
    degree = dict(zip(g.left.vals, g.left_degrees()))
    pdiff_size = len(partial_combine(g))
    bvals = b.vals
    bset = b.member_set()
    nb = len(b)
    # translate t covers r in the remainder iff r = t + w (sign "+") or
    # r = t - w (sign "-") for some w in b, so the pair counts of r - w (or
    # r + w) over remainder x b give the coverage of every candidate shift
    pair_op = "diff" if sign == "+" else "sum"

    remaining = set(a1.vals)
    n1 = len(a1)
    translates = []
    per_step = []
    while gt_k_sqrt(len(remaining), n1, eps):
        gstar = sum(degree[v] for v in remaining)
        rem = FSet._from_canonical(ctx, frozenset(remaining))
        ints, scale = _pair_ints(rem, b, pair_op)
        # the most coverage, ties to the smallest shift (ints sort as values)
        best_int, best_cov = min(Counter(ints).items(), key=lambda kc: (-kc[1], kc[0]))
        best_shift = best_int if ctx.kind == KIND_PRIME else Fraction(best_int, scale)
        # pigeonhole: the best translate covers at least the average, which the
        # Cauchy-Schwarz energy bound pushes up to |G*|^2 / (|A*||B| |A -_G B|)
        nstar = len(remaining)
        if best_cov * nstar * nb * pdiff_size < gstar * gstar:
            raise InvariantViolation("greedy step below the energy guarantee")
        r = Fraction(best_cov * pdiff_size, nstar * nb)
        t = 1 + eps - r
        if t > 0 and 4 * eps < t * t:
            raise InvariantViolation("greedy step below (1 - sqrt(eps))^2 form")
        if sign == "+":
            covered_now = {w for w in (ctx.add(best_shift, y) for y in bvals) if w in remaining}
        else:
            covered_now = {w for w in (ctx.sub(best_shift, y) for y in bvals) if w in remaining}
        remaining -= covered_now
        translates.append(best_shift)
        per_step.append((best_shift, len(covered_now)))

    covered = a1.with_values(set(a1.vals) - remaining)
    # exact containment and size contracts
    for v in covered.vals:
        ok = any(
            (ctx.sub(v, t) in bset) if sign == "+" else (ctx.sub(t, v) in bset)
            for t in translates
        )
        if not ok:
            raise InvariantViolation(f"covered element {v} outside every translate")
    if not ge_one_minus_k_sqrt(len(covered), len(a), eps, k=2):
        raise InvariantViolation("covered fewer than (1 - 2 sqrt(eps))|A| elements")

    return CoverResult(
        covered=covered,
        base=a1,
        translates=tuple(translates),
        sign=sign,
        iterations=len(translates),
        per_step=tuple(per_step),
    )


# -- dense partial triangle (Ruzsa with high-density graphs) ----------------------

@dataclass(frozen=True)
class PartialTriangleResult:
    a_side: FSet                    # A'
    c_side: FSet                    # C'
    y_size: int                     # |Y|, the counted witness pairs
    partial_ab: FSet                # A -_G B
    partial_bc: FSet                # B -_H C
    diff_ac: FSet                   # A' - C'
    slack: Fraction                 # |A' - C'| |B| / (|A -_G B| |B -_H C|)


def _least_passing(scale: int, eps: Fraction, k: int) -> int:
    """The least int v with ge_one_minus_k_sqrt(v, scale, eps, k); the test is
    monotone in v and holds at v = scale."""
    lo, hi = 0, scale
    while lo < hi:
        mid = (lo + hi) // 2
        if ge_one_minus_k_sqrt(mid, scale, eps, k):
            hi = mid
        else:
            lo = mid + 1
    return lo


def _index_rows(g: PairGraph, side: FSet, part) -> list:
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


def _pure_scan(g, ht, a_side, c_side, least, pab, pbc):
    """(|A' - C'|, |Y|), or the first failing check raised: the overlap of
    every (a, c) in order, then each difference x in sorted order through
    its first pair (a, c), witness by witness, an escaping image before a
    repeated one.

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


def _neighbour_matrix(np, g: PairGraph, side: FSet):
    """Boolean |side| x |right| matrix: row r marks the right neighbours in
    g of the r-th value of `side`, a subset of g's left values."""
    full = np.zeros((len(g.left), len(g.right)), dtype=bool)
    if g.edges:
        ij = np.fromiter(itertools.chain.from_iterable(g.edges), dtype=np.int64,
                         count=2 * len(g.edges))
        full[ij[0::2], ij[1::2]] = True
    row_of = {v: i for i, v in enumerate(g.left.vals)}
    return full[[row_of[v] for v in side.vals]]


def _positions(np, fset: FSet, keys):
    """Index of each key in the sorted values of `fset`, and whether the key
    is there at all."""
    vals = np.array(fset.vals, dtype=np.int64)
    pos = np.minimum(np.searchsorted(vals, keys), len(vals) - 1)
    return pos, vals[pos] == keys


def _array_scan(np, g, ht, a_side, c_side, least, pab, pbc):
    """`_pure_scan` over F_p on int64 arrays: the same result, or None when
    the same check fails."""
    p = g.left.ctx.p
    bv = np.array(g.right.vals, dtype=np.int64)
    av = np.array(a_side.vals, dtype=np.int64)
    cv = np.array(c_side.vals, dtype=np.int64)
    na = _neighbour_matrix(np, g, a_side)
    nc = _neighbour_matrix(np, ht, c_side)
    overlaps = na.astype(np.int64) @ nc.T.astype(np.int64)
    if overlaps.min() < least:
        return None

    # the representative of each difference: its first pair in (a, c) order
    _, first = np.unique(((av[:, None] - cv[None, :]) % p).ravel(), return_index=True)
    ra, rc = np.divmod(first, len(cv))
    common = na[ra] & nc[rc]
    i_ab, in_ab = _positions(np, pab, (av[:, None] - bv[None, :]) % p)
    i_bc, in_bc = _positions(np, pbc, (bv[None, :] - cv[:, None]) % p)
    if (common & ~(in_ab[ra] & in_bc[rc])).any():  # an image coordinate escapes
        return None
    keys = i_ab[ra]
    keys *= len(pbc)
    keys += i_bc[rc]
    keys = keys[common]
    keys.sort()
    if (keys[1:] == keys[:-1]).any():
        return None
    return len(first), int(keys.size)


_INT64_SAFE = 1 << 62


def _array_scan_fits(ctx, n_ab: int, n_bc: int) -> bool:
    """Whether the array scan is exact: over F_p, residues and their
    differences below p, and witness keys below n_ab * n_bc, all < 2^62."""
    return ctx.kind == KIND_PRIME and ctx.p < _INT64_SAFE and n_ab * n_bc < _INT64_SAFE


@functools.cache
def _numpy():
    """numpy, imported on first use, or None when it is not installed."""
    try:
        import numpy
    except ImportError:
        return None
    return numpy


def _witness_scan(g, ht, a_side, c_side, least, pab, pbc):
    """The one dispatch point between the scans: the array scan where it is
    exact and numpy is installed, else the pure scan.  A failed array scan
    is replayed on the pure scan, which raises the first failing check."""
    np = _numpy() if _array_scan_fits(g.left.ctx, len(pab), len(pbc)) else None
    if np is None:
        return _pure_scan(g, ht, a_side, c_side, least, pab, pbc)
    scanned = _array_scan(np, g, ht, a_side, c_side, least, pab, pbc)
    if scanned is None:
        _pure_scan(g, ht, a_side, c_side, least, pab, pbc)
        raise InvariantViolation("witness scan failed where its rescan passes")
    return scanned


def partial_ruzsa(g: PairGraph, h: PairGraph, epsilon) -> PartialTriangleResult:
    """Triangle inequality through dense partial difference sets.

    Extracts dense-degree subsets A' and C', verifies the pairwise overlap
    |B_a ∩ B_c| >= (1 - 2 sqrt(eps))|B| exactly, builds the witness set Y and
    its injection into (A -_G B) x (B -_H C), and certifies

        (1 - 2 sqrt(eps)) |B| |A' - C'|  <=  |A -_G B| |B -_H C|

    exactly (squared form).  eps = 0 with complete graphs recovers the plain
    triangle inequality.
    """
    eps = Fraction(epsilon)
    if not 0 <= eps < Fraction(1, 4):
        raise EpsilonOutOfRange(f"epsilon = {eps} outside [0, 1/4)")
    if g.right != h.left:
        raise ContextMismatch("graphs must share the middle set B")
    if not (len(g.left) and len(g.right) and len(h.right)):
        raise SetTooSmall("partial triangle needs nonempty A, B and C")
    _check_density(g, eps)
    _check_density(h, eps)

    a_side = dense_degree_subset(g, eps)
    ht = h.transpose()
    c_side = dense_degree_subset(ht, eps)
    nb = len(g.right)
    least = _least_passing(nb, eps, k=2)
    pab = partial_combine(g)
    pbc = partial_combine(h)
    n_diffs, y_size = _witness_scan(g, ht, a_side, c_side, least, pab, pbc)

    diff_ac = combine(a_side, c_side, "diff")
    if len(diff_ac) != n_diffs:
        raise InvariantViolation("difference-set enumeration mismatch")
    # (1 - 2 sqrt(eps)) |B| |A' - C'| <= |Y| <= |A -_G B| |B -_H C|
    if not ge_one_minus_k_sqrt(y_size, nb * len(diff_ac), eps, k=2):
        raise InvariantViolation("witness count below the overlap guarantee")
    if y_size > len(pab) * len(pbc):
        raise InvariantViolation("injection bound violated")

    return PartialTriangleResult(
        a_side=a_side,
        c_side=c_side,
        y_size=y_size,
        partial_ab=pab,
        partial_bc=pbc,
        diff_ac=diff_ac,
        slack=Fraction(len(diff_ac) * nb, len(pab) * len(pbc)),
    )


# -- iterated sumset witness ---------------------------------------------------

@dataclass(frozen=True)
class PlunneckeResult:
    subset: FSet                    # the minimising A'
    slack: Fraction                 # |A' + X1 + ... + Xk| |A|^(k-1) / prod |A + Xj|
    subset_ratio: Fraction          # |A'| / |A|
    iterated_size: int              # |A' + X1 + ... + Xk|
    single_sizes: Tuple[int, ...]   # (|A + Xj|, ...)


def plunnecke_witness(a: FSet, xs: Sequence[FSet], budget: int = 10) -> PlunneckeResult:
    """Search all subsets A' with |A'| >= |A|/2 for the one minimising the
    iterated-sumset ratio |A' + X1 + ... + Xk| |A|^(k-1) / prod |A + Xj|.

    Exhaustive (2^|A| subsets), so |A| is capped by `budget`.  No pass/fail:
    the inequality this probes carries an absolute constant, so only the
    minimised slack is reported.  A' + X1 + ... + Xk = A' + S for the one
    sumset S = X1 + ... + Xk, so each a in A gets the bitmask of the sums
    a + S it reaches, and |A' + S| is the popcount of the OR over A'.
    """
    if not xs:
        raise SetTooSmall("need at least one summand set")
    for x in xs:
        _same_ctx(a, x)
    n = len(a)
    if n == 0:
        raise SetTooSmall("empty base set")
    if not all(xs):
        raise SetTooSmall("empty summand set")
    if n > budget:
        raise BudgetExceeded(f"|A| = {n} exceeds subset-search budget {budget}")

    k = len(xs)
    denom = 1
    single = []
    for x in xs:
        size = len(combine(a, x, "sum"))
        single.append(size)
        denom *= size
    scale = n ** (k - 1)

    total = xs[0]
    for x in xs[1:]:
        total = combine(total, x, "sum")
    width = len(total)
    bit_of: dict = {}
    masks = [0] * n
    for pos, s in enumerate(_pair_ints(a, total, "sum")[0]):
        masks[pos // width] |= 1 << bit_of.setdefault(s, len(bit_of))

    # slack grows with |A' + S|, and index tuples order as value tuples, so
    # the least (size, indices) is the least (slack, subset)
    best = None
    min_size = -(-n // 2)  # ceil(n/2)
    for r in range(min_size, n + 1):
        for sub in itertools.combinations(range(n), r):
            union = 0
            for i in sub:
                union |= masks[i]
            key = (union.bit_count(), sub)
            if best is None or key < best:
                best = key

    iterated, sub = best
    return PlunneckeResult(
        subset=a.with_values(a.vals[i] for i in sub),
        slack=Fraction(iterated * scale, denom),
        subset_ratio=Fraction(len(sub), n),
        iterated_size=iterated,
        single_sizes=tuple(single),
    )
