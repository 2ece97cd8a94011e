"""Executable proof constructions: popular-ratio graphs, dense-degree
subsets, greedy covering by translates, dense partial triangle extraction,
iterated-sumset witness search, and the injectivity certificate behind the
partial difference-set bound.

Thresholds of the form (1 - k*sqrt(eps)) * scale are irrational; every
comparison against them is decided exactly in rationals by isolating the
square root and squaring (see `ge_one_minus_k_sqrt`).  A failed internal
check raises InvariantViolation rather than degrading the result: each such
check is a theorem on the instance, so a failure is either a bug or news.
"""
from __future__ import annotations

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
    ZeroElementPresent,
)
from .field import KIND_PRIME
from .sets import (
    FSet,
    PairGraph,
    _from_ints,
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
    bound_rhs_shape: Fraction       # |A(B+1)| |B(A+1)| |A/B| / (|A||B|)
    slack: Fraction                 # |A -_G B| / bound_rhs_shape


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
    graph = PairGraph(a, b, edges)

    if sum(mult[r] for r in popular) != len(graph):
        raise InvariantViolation("sum of popular multiplicities != |G|")
    if Fraction(len(graph)) < (1 - eps) * na * nb:
        raise InvariantViolation("popular graph lost more than an eps-fraction of pairs")

    pdiff = partial_combine(graph, "diff")
    shape = Fraction(
        len(expander_set(a, b)) * len(expander_set(b, a)) * len(mult), na * nb
    )
    return PopularRatioResult(
        x_set=x_set,
        graph=graph,
        epsilon=eps,
        threshold=threshold,
        partial_diff=pdiff,
        bound_rhs_shape=shape,
        slack=Fraction(len(pdiff)) / shape,
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

    # all (c, d) pairs per ratio
    by_ratio: dict = {}
    for cv in a.vals:
        for dv in b.vals:
            by_ratio.setdefault(ctx.div(cv, dv), []).append((cv, dv))

    one = ctx.one
    image_seen: dict = {}
    s_size = 0
    for xi in sorted(reps):
        av, bv = reps[xi]
        for cv, dv in by_ratio[ctx.div(av, bv)]:
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
        partial_diff=partial_combine(g, "diff"),
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
    nb = len(g.right)
    degs = g.left_degrees()
    kept = [v for v, d in zip(g.left.vals, degs) if ge_one_minus_k_sqrt(d, nb, eps)]
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
    adj = g.neighbors_left()
    pdiff_size = len(partial_combine(g, "diff"))
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
        gstar = sum(len(adj[v]) for v in remaining)
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


def _raise_first_failure(g, ht, a_side, c_side, nb, eps, pab, pbc) -> None:
    """Replay the checks of `partial_ruzsa` on value tuples, in their order,
    and raise the first failure with its message and witnesses."""
    ctx = g.left.ctx
    b_of_a = {v: frozenset(ns) for v, ns in g.neighbors_left().items()}
    b_of_c = {v: frozenset(ns) for v, ns in ht.neighbors_left().items()}
    for av in a_side.vals:
        for cv in c_side.vals:
            if not ge_one_minus_k_sqrt(len(b_of_a[av] & b_of_c[cv]), nb, eps, k=2):
                raise InvariantViolation(
                    f"overlap below (1 - 2 sqrt(eps))|B| at ({av}, {cv})"
                )
    reps = {}
    for av in a_side.vals:
        for cv in c_side.vals:
            x = ctx.sub(av, cv)
            if x not in reps:
                reps[x] = (av, cv)
    pab_set, pbc_set = pab.member_set(), pbc.member_set()
    seen: dict = {}
    for x in sorted(reps):
        av, cv = reps[x]
        common = b_of_a[av] & b_of_c[cv]
        if not ge_one_minus_k_sqrt(len(common), nb, eps, k=2):
            raise InvariantViolation("representative pair lost its overlap")
        for bv in common:
            image = (ctx.sub(av, bv), ctx.sub(bv, cv))
            if image[0] not in pab_set or image[1] not in pbc_set:
                raise InvariantViolation("witness image escapes the partial difference sets")
            prior = seen.get(image)
            if prior is not None:
                raise CollisionFound(f"image {image} reached twice", prior, (x, bv))
            seen[image] = (x, bv)


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
    _check_density(g, eps)
    _check_density(h, eps)
    ctx = g.left.ctx
    sub = ctx.sub

    a_side = dense_degree_subset(g, eps)
    ht = h.transpose()
    c_side = dense_degree_subset(ht, eps)
    nb = len(g.right)
    least = _least_passing(nb, eps, k=2)
    pab = partial_combine(g, "diff")
    pbc = partial_combine(h, "diff")

    # a witness (x, b) maps to (a - b, b - c), keyed by the int i * |B -_H C| + j
    # of its indices i, j in the sorted partial difference sets; rows hold
    # the key parts per a and per c, keyed by the index of b in B
    ab_index = {v: i * len(pbc) for i, v in enumerate(pab.vals)}
    bc_index = {v: j for j, v in enumerate(pbc.vals)}
    a_rows = _index_rows(g, a_side, lambda av, bv: ab_index.get(sub(av, bv)))
    c_rows = _index_rows(ht, c_side, lambda cv, bv: bc_index.get(sub(bv, cv)))

    def scan():
        """(|A' - C'|, |Y|), or None if a check fails on any item.  The first
        pair (a, c) of each difference is its representative, and its
        overlap test is the "lost overlap" check."""
        diffs = set()
        seen = set()
        y_size = 0
        for av, b_a, a_row in a_rows:
            for cv, b_c, c_row in c_rows:
                common = b_a & b_c
                if len(common) < least:
                    return None
                x = sub(av, cv)
                if x in diffs:
                    continue
                diffs.add(x)
                try:
                    seen.update([a_row[j] + c_row[j] for j in common])
                except KeyError:  # an image coordinate escapes
                    return None
                y_size += len(common)
        return (len(diffs), y_size) if len(seen) == y_size else None

    scanned = scan()
    if scanned is None:
        _raise_first_failure(g, ht, a_side, c_side, nb, eps, pab, pbc)
        raise InvariantViolation("witness scan failed where its rescan passes")
    n_diffs, y_size = scanned

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
    minimised slack is reported.
    """
    if not xs:
        raise ValueError("need at least one summand set")
    for x in xs:
        _same_ctx(a, x)
    n = len(a)
    if n == 0:
        raise ValueError("empty base set")
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

    ctx = a.ctx
    best = None  # (slack, subset values)
    min_size = -(-n // 2)  # ceil(n/2)
    for r in range(min_size, n + 1):
        for sub in itertools.combinations(a.vals, r):
            acc = set(sub)
            for x in xs:
                acc = {ctx.add(u, v) for u in acc for v in x.vals}
            slack = Fraction(len(acc) * scale, denom)
            key = (slack, sub)
            if best is None or key < best[:2]:
                best = (slack, sub, len(acc))

    slack, sub, iterated = best
    return PlunneckeResult(
        subset=a.with_values(sub),
        slack=slack,
        subset_ratio=Fraction(len(sub), n),
        iterated_size=iterated,
        single_sizes=tuple(single),
    )
