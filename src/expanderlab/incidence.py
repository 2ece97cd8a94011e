"""Exact point-line incidence counting over the rationals, and the
slope-family construction l_{alpha,b}: y = (alpha*x - 1)*b together with its
rich-point lower bound.

Everything here is rational-line only: the incidence bound this instruments
is false over prime fields at this generality, so prime-field inputs are
refused with FieldMismatch.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional, Tuple

from .energy import _require_t
from .errors import (
    DuplicateInput,
    FieldMismatch,
    InvariantViolation,
    WitnessFailure,
    ZeroElementPresent,
)
from .field import KIND_RATIONAL
from .sets import FSet, _from_ints, _lcd, _pair_groups, _same_ctx, _scaled, expander_set

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


def count_incidences(points: Iterable[Point], lines: Iterable[Line]) -> int:
    """Exact number of (point, line) incidences.

    Computed twice: per point (substitute into every line) and per line
    (membership against points grouped by abscissa); the two totals are
    cross-checked before returning.
    """
    pts = [(Fraction(x), Fraction(y)) for x, y in points]
    ls = list(lines)
    if len(set(pts)) != len(pts):
        raise DuplicateInput("duplicate points")
    if len(set(ls)) != len(ls):
        raise DuplicateInput("duplicate lines")

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
class LineFamily:
    lines: Tuple[Line, ...]
    expected_size: int           # |A(A+1)| * |B|
    duplicates: Tuple            # colliding parameter pairs, if any


def _line_family(alphas: FSet, b: FSet) -> LineFamily:
    """The family {y = (alpha*x - 1)*b : alpha in `alphas`, b in B} for the
    slopes `alphas` = A(A+1), with 0 not in b.

    Distinct parameter pairs then give distinct lines; collisions are
    checked anyway and reported, never assumed away.
    """
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

    _require_t(a, b, t)

    # product representations s = a_i * b_i, keyed by the kernel int of s;
    # S_t is the products with at least t of them
    reps, rep_scale = _pair_groups(a, b, "prod")
    s_t = _from_ints(ctx, (k for k, ps in reps.items() if len(ps) >= t), rep_scale)
    alphas = expander_set(a, a)
    family = _line_family(alphas, b)
    family_keys = {(l.vertical, l.m, l.c) for l in family.lines}
    scale = _lcd(alphas.vals)
    alpha_ints = set(_scaled(alphas.vals, scale))

    min_lines = None
    witnesses = set()
    for s, s_int in zip(s_t.vals, _scaled(s_t.vals, rep_scale)):
        shifts = [((s + bv) / bv * scale).as_integer_ratio() for bv in b.vals]
        for x in a.vals:
            pt = (1 / x, s)
            if pt in witnesses:
                raise InvariantViolation("witness points must be pairwise distinct")
            witnesses.add(pt)

            designated = set()
            for ai, bi in reps[s_int]:
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
