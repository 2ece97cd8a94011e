"""Exact point-line incidence counting over the rationals, k-rich points,
and the slope-family construction l_{alpha,b}: y = (alpha*x - 1)*b together
with its rich-point lower bound.

Everything here is rational-line only: the incidence bound this instruments
is false over prime fields at this generality, so prime-field inputs are
refused with FieldMismatch.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import FrozenSet, Iterable, Optional, Sequence, Tuple

from .energy import rich_products
from .errors import (
    DuplicateInput,
    FieldMismatch,
    InvariantViolation,
    WitnessFailure,
    ZeroElementPresent,
)
from .field import KIND_RATIONAL
from .sets import FSet, _lcd, _same_ctx, _scaled, expander_set

Point = Tuple[Fraction, Fraction]


@dataclass(frozen=True, order=True)
class Line:
    """A line in canonical form: x = c when vertical, else y = m*x + c."""

    vertical: bool
    m: Fraction
    c: Fraction
    provenance: Optional[Tuple[Fraction, Fraction]] = field(
        default=None, compare=False, repr=False
    )

    @classmethod
    def slope_intercept(cls, m, c, provenance=None) -> "Line":
        return cls(False, Fraction(m), Fraction(c), provenance)

    @classmethod
    def vertical_at(cls, x0) -> "Line":
        return cls(True, Fraction(0), Fraction(x0))

    @classmethod
    def from_expander_params(cls, alpha, b) -> "Line":
        # y = (alpha*x - 1)*b  ==  y = (alpha*b)*x - b
        alpha, b = Fraction(alpha), Fraction(b)
        return cls(False, alpha * b, -b, provenance=(alpha, b))

    def contains(self, pt: Point) -> bool:
        x, y = pt
        if self.vertical:
            return x == self.c
        return y == self.m * x + self.c

    def y_at(self, x: Fraction) -> Optional[Fraction]:
        if self.vertical:
            return None
        return self.m * x + self.c


def intersect(l1: Line, l2: Line) -> Optional[Point]:
    """The unique intersection point, or None for parallel/equal lines."""
    if l1.vertical and l2.vertical:
        return None
    if l1.vertical:
        return (l1.c, l2.m * l1.c + l2.c)
    if l2.vertical:
        return (l2.c, l1.m * l2.c + l1.c)
    if l1.m == l2.m:
        return None
    x = (l2.c - l1.c) / (l1.m - l2.m)
    return (x, l1.m * x + l1.c)


def _dedupe_points(points: Iterable[Point]) -> Tuple[Point, ...]:
    pts = [(Fraction(x), Fraction(y)) for x, y in points]
    if len(set(pts)) != len(pts):
        raise DuplicateInput("duplicate points")
    return tuple(sorted(pts))


def _dedupe_lines(lines: Iterable[Line]) -> Tuple[Line, ...]:
    ls = list(lines)
    if len(set(ls)) != len(ls):
        raise DuplicateInput("duplicate lines")
    return tuple(sorted(ls))


def count_incidences(points: Iterable[Point], lines: Iterable[Line]) -> int:
    """Exact number of (point, line) incidences.

    Computed twice: per point (substitute into every line) and per line
    (membership against points grouped by abscissa); the two totals are
    cross-checked before returning.
    """
    pts = _dedupe_points(points)
    ls = _dedupe_lines(lines)

    per_point = sum(1 for p in pts for l in ls if l.contains(p))

    by_x: dict = {}
    for x, y in pts:
        by_x.setdefault(x, set()).add(y)
    per_line = 0
    for l in ls:
        if l.vertical:
            per_line += len(by_x.get(l.c, ()))
        else:
            per_line += sum(1 for x, ys in by_x.items() if l.m * x + l.c in ys)

    if per_point != per_line:
        raise InvariantViolation(
            f"incidence cross-check mismatch: {per_point} vs {per_line}"
        )
    return per_point


@dataclass(frozen=True)
class IncidenceShapeResult:
    incidences: int
    shape: "object"              # RatInterval: |P|^(2/3)|L|^(2/3) + |P| + |L|
    slack: "object"              # RatInterval: incidences / shape


def incidence_shape_slack(points: Iterable[Point], lines: Iterable[Line],
                          bits: int = 128) -> IncidenceShapeResult:
    """Observed incidences against the classical upper-bound shape
    |P|^(2/3) |L|^(2/3) + |P| + |L|.

    The hidden constant is never asserted; the 2/3 powers are enclosed by
    cube-root intervals so the slack stays certified.
    """
    from .intervals import RatInterval, root_interval

    pts = _dedupe_points(points)
    ls = _dedupe_lines(lines)
    count = count_incidences(pts, ls)
    np_, nl = len(pts), len(ls)
    shape = root_interval(np_ ** 2 * nl ** 2, 3, bits) + RatInterval.point(np_ + nl)
    return IncidenceShapeResult(
        incidences=count,
        shape=shape,
        slack=RatInterval.point(count) / shape,
    )


@dataclass(frozen=True)
class RichPointsResult:
    points: FrozenSet[Point]
    k: int
    line_count: int
    shape: Fraction              # |L|^2/k^3 + |L|/k
    slack: Fraction              # |P_k| / shape


def rich_points(lines: Iterable[Line], k: int, points: Optional[Iterable[Point]] = None) -> RichPointsResult:
    """Points incident to at least k of the lines.

    With `points` omitted, the candidates are all pairwise intersection
    points of the family.  The incidence-theorem shape |L|^2/k^3 + |L|/k is
    reported as a slack ratio only; its hidden constant is never asserted.
    """
    if k < 1:
        raise ValueError("k must be positive")
    ls = _dedupe_lines(lines)
    if points is None:
        cands = set()
        for i in range(len(ls)):
            for j in range(i + 1, len(ls)):
                pt = intersect(ls[i], ls[j])
                if pt is not None:
                    cands.add(pt)
        pts: Sequence[Point] = sorted(cands)
    else:
        pts = _dedupe_points(points)

    rich = frozenset(
        p for p in pts if sum(1 for l in ls if l.contains(p)) >= k
    )
    shape = Fraction(len(ls) ** 2, k ** 3) + Fraction(len(ls), k)
    return RichPointsResult(
        points=rich,
        k=k,
        line_count=len(ls),
        shape=shape,
        slack=Fraction(len(rich)) / shape,
    )


@dataclass(frozen=True)
class LineFamily:
    lines: Tuple[Line, ...]
    expected_size: int           # |A(A+1)| * |B|
    duplicates: Tuple            # colliding parameter pairs, if any


def expander_line_family(a: FSet, b: FSet) -> LineFamily:
    """The family {y = (alpha*x - 1)*b : alpha in A(A+1), b in B}.

    Distinct parameter pairs give distinct lines whenever 0 is excluded from
    b; collisions are checked anyway and reported, never assumed away.
    """
    ctx = _same_ctx(a, b)
    if ctx.kind != KIND_RATIONAL:
        raise FieldMismatch("incidence geometry runs over the rationals only")
    if 0 in b.member_set():
        raise ZeroElementPresent("b = 0 degenerates every line to y = 0")

    alphas = expander_set(a, a)
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


@dataclass(frozen=True)
class StLowerBoundResult:
    s_t: FSet
    t: int
    witness_count: int           # |S_t| * |A|, all verified t-rich
    family_size: int
    min_lines_through_witness: int


def st_lower_bound_check(a: FSet, b: FSet, t: int) -> StLowerBoundResult:
    """Certify |P_t| >= |S_t(A, B)| |A| for the slope family.

    For every (s, x) in S_t x A the witness point (1/x, s) is checked to lie
    on at least t pairwise-distinct family lines, constructed explicitly from
    the product representations of s.  Any failure raises WitnessFailure with
    the offending witness; it would falsify the bound on this instance.
    """
    ctx = _same_ctx(a, b)
    if ctx.kind != KIND_RATIONAL:
        raise FieldMismatch("incidence geometry runs over the rationals only")
    if 0 in a.member_set() or 0 in b.member_set():
        raise ZeroElementPresent("the construction needs 0 excluded")

    s_t = rich_products(a, b, t)
    family = expander_line_family(a, b)
    family_keys = {(l.vertical, l.m, l.c) for l in family.lines}
    alphas = expander_set(a, a).vals
    scale = _lcd(alphas)
    alpha_ints = set(_scaled(alphas, scale))

    # product representations s = a_i * b_i, keyed by s
    reps: dict = {}
    for av in a.vals:
        for bv in b.vals:
            reps.setdefault(av * bv, []).append((av, bv))

    min_lines = None
    witnesses = set()
    for s in s_t.vals:
        shifts = [((s + bv) / bv * scale).as_integer_ratio() for bv in b.vals]
        for x in a.vals:
            pt = (1 / x, s)
            if pt in witnesses:
                raise InvariantViolation("witness points must be pairwise distinct")
            witnesses.add(pt)

            designated = set()
            for ai, bi in reps[s]:
                alpha = x * (ai + 1)
                line = Line.from_expander_params(alpha, bi)
                key = (line.vertical, line.m, line.c)
                if key not in family_keys:
                    raise WitnessFailure(f"designated line for {pt} not in the family")
                if not line.contains(pt):
                    raise WitnessFailure(f"designated line misses its witness {pt}")
                designated.add(key)
            if len(designated) < t:
                raise WitnessFailure(
                    f"witness {pt} lies on {len(designated)} designated lines < t = {t}"
                )
            # independent recount: lines of the family through pt, one per b;
            # x*(s+b)/b is in A(A+1) iff x * scale*(s+b)/b is one of alpha_ints
            xn, xd = x.as_integer_ratio()
            through = 0
            for n, d in shifts:
                k, rem = divmod(xn * n, xd * d)
                if rem == 0 and k in alpha_ints:
                    through += 1
            if through < len(designated):
                raise InvariantViolation("recount found fewer lines than designated")
            min_lines = through if min_lines is None else min(min_lines, through)

    if len(witnesses) != len(s_t) * len(a):
        raise InvariantViolation("witness count mismatch")
    return StLowerBoundResult(
        s_t=s_t,
        t=t,
        witness_count=len(witnesses),
        family_size=len(family.lines),
        min_lines_through_witness=min_lines if min_lines is not None else 0,
    )
