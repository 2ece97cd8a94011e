"""Executable proof constructions: popular-ratio graphs, dense-degree
subsets, greedy covering by translates, dense partial triangle extraction,
iterated-sumset witness search, and the injectivity certificate behind the
partial difference-set bound.

Thresholds of the form (1 - k*sqrt(eps)) * scale are irrational; every
comparison against them is decided exactly in rationals by isolating the
square root and squaring (see `ge_one_minus_k_sqrt`).  A failed internal
check raises InvariantViolation rather than degrading the result: each such
check is a theorem on the instance, so a failure is either a bug or news.

The witness scan of `partial_ruzsa` reads one |B|-bit neighbour mask per
vertex of A' and of C' off the graphs' flag bytes, so each pairwise overlap
is one AND and one popcount on plain ints, over F_p and Q alike; |Y| and
A' - C' come off the same pass over the pairs.  That the witness map lands
in the partial difference sets follows from their definitions: a witness
(x, b) of the pair (a, c) has (a, b) an edge of G and (b, c) one of H, and
`partial_combine` takes a - b and b - c over every edge of each graph.  So
no check re-derives the differences of the edges at A' and C': it would run
the same kernel on a subset of the same edges and could not fail.  The map
is injective as the image sums to x and, given x, fixes b; the scan's one
guard is for a middle set that repeats a value, which only a corrupt FSet
can.

A popular-ratio graph keeps a ratio when its count reaches
least = ceil(eps|A||B|/|A/B|), which is 1 whenever |A/B| >= eps|A||B|: for
any pair of sets without strong multiplicative structure the graph is all
of A x B.  Complete graphs take an exact short path.  `_popular_graph`
keeps every ratio and flags no pair, `partial_combine` is the difference
set A - B, and `partial_ruzsa` on two complete graphs has A' = A, C' = C,
every overlap |B| and so |Y| = |A - C||B|, with no neighbour mask: for a
self graph on A one A - A is A -_G B, B -_H C and A' - C' at once.  The
checks read only sizes, and `sets.partial_diff_size` counts |A - B| of a
complete graph without building the set, so a caller that reads only the
sizes builds none.  The overlap, witness-count and injection-bound checks
stay on this path, and a middle set that repeats a value takes the scan.
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
    InvalidKernelArgument,
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
    partial_diff_size,
    sumset_size,
)


def ge_one_minus_k_sqrt(value, scale, eps: Fraction, k: int = 1) -> bool:
    """Exact test of  value >= (1 - k*sqrt(eps)) * scale  for rationals >= 0.

    Rearranged to k*sqrt(eps)*scale >= scale - value; if the right side is
    non-positive the inequality is immediate, otherwise both sides are
    non-negative and squaring decides it, with eps's numerator and
    denominator multiplied across: on ints, for int value and scale.
    """
    rhs = scale - value
    if rhs <= 0:
        return True
    return k * k * eps.numerator * scale * scale >= rhs * rhs * eps.denominator


def gt_k_sqrt(value, scale, eps: Fraction, k: int = 1) -> bool:
    """Exact test of  value > k*sqrt(eps) * scale  for rationals >= 0,
    squared as in `ge_one_minus_k_sqrt`."""
    if value <= 0:
        return False
    return value * value * eps.denominator > k * k * eps.numerator * scale * scale


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
    ratio_support: int              # |A/B|

    @property
    def partial_diff(self) -> FSet:
        """A -_G B, built on first read and kept with the graph."""
        return partial_combine(self.graph)


def popular_ratio_graph(a: FSet, b: FSet, epsilon) -> PopularRatioResult:
    """Keep the ratios x with |A ∩ xB| >= eps|A||B|/|A/B| and take all pairs
    realising them; the kept graph has at least (1 - eps)|A||B| edges.

    When |A/B| >= eps|A||B| every ratio is kept, and the graph is the
    complete graph A x B, its partial difference set A - B."""
    _same_ctx(a, b)
    eps = Fraction(epsilon)
    if not 0 < eps < 1:
        raise EpsilonOutOfRange(f"epsilon = {eps} outside (0, 1)")
    if not (len(a) and len(b)):
        raise SetTooSmall("popular-ratio graph needs nonempty A and B")
    if 0 in a or 0 in b:
        raise ZeroElementPresent("popular-ratio construction needs 0 excluded")

    ints, scale = _pair_ints(a, b, "ratio")
    return _popular_graph(a, b, eps, scale, Counter(ints))


def _popular_graph(a: FSet, b: FSet, eps: Fraction, scale: int,
                   mult: Counter) -> PopularRatioResult:
    """`popular_ratio_graph(a, b, eps)` from the Counter `mult` of the ratio
    ints of a x b and their scale; eps in (0, 1), both sets nonempty and 0
    in neither.  Only an incomplete graph makes a second ratio pass, to
    flag its edges in pair order."""
    na, nb = len(a), len(b)
    threshold = eps * na * nb / len(mult)
    least = math.ceil(threshold)  # c >= threshold iff c >= least, for ints c
    if least <= 1:
        # every ratio is popular: X is A/B and G is all of A x B
        x_set = _from_ints(a.ctx, mult, scale)
        graph = PairGraph.complete(a, b)
    else:
        popular = {r for r, c in mult.items() if c >= least}
        x_set = _from_ints(a.ctx, popular, scale)
        ratios = _pair_ints(a, b, "ratio")[0]  # pair (i, j) at i * |b| + j
        graph = PairGraph._from_flags(a, b, bytes(map(popular.__contains__, ratios)))

    if Fraction(len(graph)) < (1 - eps) * na * nb:
        raise InvariantViolation("popular graph lost more than an eps-fraction of pairs")

    return PopularRatioResult(
        x_set=x_set,
        graph=graph,
        epsilon=eps,
        threshold=threshold,
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
    if 0 in b:
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
    return _dense_side(g.left, g.left_degrees(), len(g.right), eps)


def _dense_side(side: FSet, degrees: Sequence[int], other: int, eps: Fraction) -> FSet:
    """The members of `side` whose degree into the `other` vertices of the
    far side is at least (1 - sqrt(eps)) * other, re-checked to number at
    least (1 - sqrt(eps))|side|."""
    least = _least_passing(other, eps, 1)
    kept = [v for v, d in zip(side.vals, degrees) if d >= least]
    if not ge_one_minus_k_sqrt(len(kept), len(side), eps):
        raise InvariantViolation("dense-degree subset smaller than guaranteed")
    return FSet._from_canonical(side.ctx, frozenset(kept))


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

    The translate by t covers r iff r - w = t (sign "+") or r + w = t
    (sign "-") for some w in b, so the pair counts of the shifts r -+ w over
    remainder x b are the coverages of every candidate.  They are counted
    once, over A1 x b, and each step takes off the pairs of the elements it
    covers; the count of the chosen shift must equal the elements covered.
    On a complete graph A1 is all of A, so for sign "+" the shifts counted
    are A - B = A -_G B, and no second difference pass is made; for sign
    "-" |A -_G B| is `partial_diff_size`, which builds no set there.
    """
    if sign not in ("+", "-"):
        raise InvalidKernelArgument(f"sign must be '+' or '-', not {sign!r}")
    ctx = _same_ctx(a, b)
    eps = Fraction(epsilon)
    if not 0 < eps < Fraction(1, 4):
        raise EpsilonOutOfRange(f"epsilon = {eps} outside (0, 1/4)")
    _check_density(g, eps)

    a1 = dense_degree_subset(g, eps)
    degree = dict(zip(g.left.vals, g.left_degrees()))
    bvals = b.vals
    bset = b.member_set()
    nb = len(b)
    ints, scale = _pair_ints(a1, b, "diff" if sign == "+" else "sum")
    ints = list(ints)
    shifts_of = {v: ints[i * nb:(i + 1) * nb] for i, v in enumerate(a1.vals)}
    coverage = Counter(ints)
    if sign == "+" and g.is_complete and b == g.right:
        pdiff_size = len(coverage)
    else:
        pdiff_size = partial_diff_size(g)

    en, ed = eps.numerator, eps.denominator
    remaining = set(a1.vals)
    gstar = sum(degree[v] for v in remaining)
    n1 = len(a1)
    translates = []
    per_step = []
    while gt_k_sqrt(len(remaining), n1, eps):
        if not coverage:
            raise SetTooSmall("no translate of an empty set covers anything")
        # the most coverage, ties to the smallest shift (ints sort as values)
        best_cov = max(coverage.values())
        best_int = min(itertools.compress(coverage, map(best_cov.__eq__, coverage.values())))
        best_shift = best_int if ctx.kind == KIND_PRIME else Fraction(best_int, scale)
        # pigeonhole: the best translate covers at least the average, which the
        # Cauchy-Schwarz energy bound pushes up to |G*|^2 / (|A*||B| |A -_G B|)
        nstar = len(remaining)
        if best_cov * nstar * nb * pdiff_size < gstar * gstar:
            raise InvariantViolation("greedy step below the energy guarantee")
        # t = 1 + eps - best_cov |A -_G B| / (|A*||B|) = tn / (ed |A*||B|) must
        # have t <= 0 or t^2 <= 4 eps, for eps = en / ed: on ints
        den = nstar * nb
        tn = (ed + en) * den - best_cov * pdiff_size * ed
        if tn > 0 and 4 * en * ed * den * den < tn * tn:
            raise InvariantViolation("greedy step below (1 - sqrt(eps))^2 form")
        if sign == "+":
            covered_now = {w for w in (ctx.add(best_shift, y) for y in bvals) if w in remaining}
        else:
            covered_now = {w for w in (ctx.sub(best_shift, y) for y in bvals) if w in remaining}
        if len(covered_now) != best_cov:
            raise InvariantViolation(
                f"shift {best_shift} covers {len(covered_now)}, counted {best_cov}")
        remaining -= covered_now
        gstar -= sum(map(degree.__getitem__, covered_now))
        for k in itertools.chain.from_iterable(map(shifts_of.__getitem__, covered_now)):
            coverage[k] -= 1
        translates.append(best_shift)
        per_step.append((best_shift, len(covered_now)))

    covered = FSet._from_canonical(ctx, a1.member_set() - remaining)
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

class PartialTriangleResult:
    """A' (`a_side`), C' (`c_side`), |Y| (`y_size`), the counted witness
    pairs, A -_G B (`partial_ab`), B -_H C (`partial_bc`), A' - C'
    (`diff_ac`) and `slack` = |A' - C'| |B| / (|A -_G B| |B -_H C|).

    Each of the three sets is given as an FSet or as a PairGraph whose
    partial difference set it is (A' - C' as the complete graph on
    A' x C').  A graph's set is built on first read and kept with the
    graph (`partial_combine`), and `sizes` reads its size from
    `partial_diff_size`, so a caller that reads only sizes builds no set of
    a complete graph.  Two results are equal when what they read is."""

    __slots__ = ("a_side", "c_side", "y_size", "_sets", "slack")

    def __init__(self, a_side: FSet, c_side: FSet, y_size: int, partial_ab, partial_bc,
                 diff_ac, slack: Fraction):
        self.a_side, self.c_side, self.y_size, self.slack = a_side, c_side, y_size, slack
        self._sets = (partial_ab, partial_bc, diff_ac)

    partial_ab = property(lambda self: _partial_set(self._sets[0]))
    partial_bc = property(lambda self: _partial_set(self._sets[1]))
    diff_ac = property(lambda self: _partial_set(self._sets[2]))

    @property
    def sizes(self) -> Tuple[int, int, int]:
        """(|A -_G B|, |B -_H C|, |A' - C'|)."""
        return tuple(partial_diff_size(x) if isinstance(x, PairGraph) else len(x)
                     for x in self._sets)

    def _key(self) -> tuple:
        return (self.a_side, self.c_side, self.y_size, self.partial_ab, self.partial_bc,
                self.diff_ac, self.slack)

    def __eq__(self, other):
        return isinstance(other, PartialTriangleResult) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return (f"PartialTriangleResult(|A'| = {len(self.a_side)}, |C'| = {len(self.c_side)}, "
                f"|Y| = {self.y_size}, sizes = {self.sizes}, slack = {self.slack})")


def _partial_set(x) -> FSet:
    return partial_combine(x) if isinstance(x, PairGraph) else x


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


def _rows(side: FSet, of: FSet) -> list:
    """The index in `of` of each value of `side`, a subset of `of`."""
    row_of = {v: r for r, v in enumerate(of.vals)}
    return [row_of[v] for v in side.vals]


def _repeats_a_value(side: FSet) -> bool:
    """Whether two members of `side` are one field element, which only a
    corrupt FSet can have."""
    vals = side.vals
    return len({side.ctx.canon(v) for v in vals}) < len(vals)


def _overlap_failure(av, cv) -> InvariantViolation:
    return InvariantViolation(f"overlap below (1 - 2 sqrt(eps))|B| at ({av}, {cv})")


def _witness_scan(g, h, a_side, c_side, least):
    """(|Y|, A' - C'), or the first failing check raised.

    Overlap: |B_a ∩ B_c| >= least for every (a, c) in order, on the |B|-bit
    neighbour masks of g's rows at A' and h's columns at C', one AND and one
    popcount per pair.  Y holds the witnesses (x, b), b in B_a ∩ B_c, of the
    first pair (a, c) of each difference x = a - c, so |Y| sums the overlaps
    of those pairs.

    The witness (x, b) maps to (a - b, b - c), which lies in
    (A -_G B) x (B -_H C) by the definition of both sets (see the module
    docstring).  The map is injective, as the image sums to x and, given x,
    fixes b, unless B repeats a value, which only a corrupt FSet can: then
    the witnesses are walked to name the first repeated image.
    """
    ctx = g.left.ctx
    a_masks = g.row_masks(_rows(a_side, g.left))
    c_masks = h.column_masks(_rows(c_side, h.right))
    nc = len(c_masks)
    overlaps = [(ma & mc).bit_count() for ma in a_masks for mc in c_masks]
    if min(overlaps) < least:
        i, k = divmod(next(n for n, o in enumerate(overlaps) if o < least), nc)
        raise _overlap_failure(a_side.vals[i], c_side.vals[k])
    ints, scale = _pair_ints(a_side, c_side, "diff")
    xs = list(ints)
    # difference -> the position i * |C'| + k of its first pair: walked
    # backwards, the first pair is the last to write its key
    first = dict(zip(reversed(xs), range(len(xs) - 1, -1, -1)))
    y_size = sum(map(overlaps.__getitem__, first.values()))

    bvals = g.right.vals
    if _repeats_a_value(g.right):
        # only a corrupt FSet repeats a value: name the first repeated image,
        # difference by difference in sorted order, then b by b in B's order
        for x in sorted(first):
            i, k = divmod(first[x], nc)
            av, cv = a_side.vals[i], c_side.vals[k]
            common, named = a_masks[i] & c_masks[k], {}
            for j, bv in enumerate(bvals):
                if not common >> j & 1:
                    continue
                key = ctx.canon(bv)
                if key in named:
                    xv = ctx.sub(av, cv)
                    raise CollisionFound(
                        f"image {(ctx.sub(av, bv), ctx.sub(bv, cv))} reached twice",
                        (xv, named[key]), (xv, bv))
                named[key] = bv
    return y_size, _from_ints(ctx, first, scale)


def partial_ruzsa(g: PairGraph, h: PairGraph, epsilon) -> PartialTriangleResult:
    """Triangle inequality through dense partial difference sets.

    Extracts dense-degree subsets A' and C', verifies the pairwise overlap
    |B_a ∩ B_c| >= (1 - 2 sqrt(eps))|B| exactly, builds the witness set Y and
    its injection into (A -_G B) x (B -_H C), and certifies

        (1 - 2 sqrt(eps)) |B| |A' - C'|  <=  |A -_G B| |B -_H C|

    exactly (squared form).  eps = 0 with complete graphs recovers the plain
    triangle inequality.

    When both graphs are complete (as a popular-ratio graph is when
    |A/B| >= eps|A||B|), A' = A and C' = C, every overlap is |B|, and
    |Y| = |A - C||B| with A' - C' = A - C, which is A -_G B = A - B when
    C = B.
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

    nb = len(g.right)
    least = _least_passing(nb, eps, k=2)
    if g.is_complete and h.is_complete and not _repeats_a_value(g.right):
        # every degree is full, so A' = A and C' = C, and every overlap is
        # |B|: the witnesses are all (x, b), |Y| = |A - C||B|
        a_side, c_side = g.left, h.right
        if nb < least:
            raise _overlap_failure(a_side.vals[0], c_side.vals[0])
        # A - C is the partial difference set of g when C = B, else that of
        # the complete graph on A x C
        diff_ac = g if c_side == g.right else PairGraph.complete(a_side, c_side)
        n_ac = partial_diff_size(diff_ac)
        y_size = nb * n_ac
    else:
        a_side = dense_degree_subset(g, eps)
        c_side = _dense_side(h.right, h.right_degrees(), len(h.left), eps)
        y_size, diff_ac = _witness_scan(g, h, a_side, c_side, least)
        n_ac = len(diff_ac)
    n_ab, n_bc = partial_diff_size(g), partial_diff_size(h)
    # (1 - 2 sqrt(eps)) |B| |A' - C'| <= |Y| <= |A -_G B| |B -_H C|
    if not ge_one_minus_k_sqrt(y_size, nb * n_ac, eps, k=2):
        raise InvariantViolation("witness count below the overlap guarantee")
    if y_size > n_ab * n_bc:
        raise InvariantViolation("injection bound violated")

    return PartialTriangleResult(
        a_side=a_side,
        c_side=c_side,
        y_size=y_size,
        partial_ab=g,
        partial_bc=h,
        diff_ac=diff_ac,
        slack=Fraction(n_ac * nb, n_ab * n_bc),
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

    single = [sumset_size(a, x, "sum") for x in xs]

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
        subset=FSet._from_canonical(a.ctx, frozenset(a.vals[i] for i in sub)),
        slack=Fraction(iterated * n ** (len(xs) - 1), math.prod(single)),
        subset_ratio=Fraction(len(sub), n),
        iterated_size=iterated,
        single_sizes=tuple(single),
    )
