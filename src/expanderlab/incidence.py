"""Exact point-line incidence counting over the rationals, and the
slope-family construction l_{alpha,b}: y = (alpha*x - 1)*b together with its
rich-point lower bound.

`Line` and `count_incidences` work on Fractions and are the exact oracle.
The rich-point check builds no Line and no Fraction short of a failure
message: its family, witness points and incidence tests are keyed by
scaled ints, each taken from the int form of its set (`FSet._int_form`)
or from the pair kernel, which reads the same int forms.  A kernel-built
set's scale need not be the LCD of its values, so no scale is worked out
afresh.

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
from .sets import FSet, _from_ints, _pair_groups, _same_ctx, expander_set

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

    Everything runs on the int forms: x = x_int/sa and a_i = a_int/sa with
    sa the scale of A's, b = j/sb with sb that of B's, s = s_int/(sa*sb),
    and alpha = k/scale with scale that of A(A+1)'s.  The line l_{alpha,b} has
    slope alpha*b = k*j/(scale*sb) and intercept -b = -j/sb, so it is keyed
    by (k*j, -j); points are keyed by (x_int, s_int).  A point is rendered
    as Fractions only in a failure message.
    """
    ctx = _same_ctx(a, b)
    if ctx.kind != KIND_RATIONAL:
        raise FieldMismatch("incidence geometry runs over the rationals only")
    if 0 in a or 0 in b:
        raise ZeroElementPresent("the construction needs 0 excluded")

    _require_t(a, b, t)

    (a_ints, sa), (b_ints, sb) = a._int_form(), b._int_form()
    # product representations s = a_i * b_i as pairs (a_int, j), keyed by the
    # kernel int of s, whose scale is sa*sb; S_t is the products with at
    # least t of them
    reps, rep_scale = _pair_groups(a, b, "prod", (a_ints, b_ints))
    s_ints = sorted(k for k, ps in reps.items() if len(ps) >= t)
    s_t = _from_ints(ctx, s_ints, rep_scale)
    alpha_ints, scale = expander_set(a, a)._int_form()
    alpha_ints = set(alpha_ints)
    b_set = set(b_ints)
    # the family: distinct parameter pairs give distinct lines, but the keys
    # are counted, not assumed distinct
    family_size = len({(k * j, -j) for k in alpha_ints for j in b_ints})

    def point(x_int, s_int):
        return (1 / Fraction(x_int, sa), Fraction(s_int, rep_scale))

    sa2 = sa * sa
    min_lines = None
    witnesses = set()
    for s_int in s_ints:
        # the recount's shifts: x*(s+b)/b*scale = x_int*n/d for b = j/sb
        shifts = [((s_int + j * sa) * scale, sa2 * j) for j in b_ints]
        for x_int in a_ints:
            if (x_int, s_int) in witnesses:
                raise InvariantViolation("witness points must be pairwise distinct")
            witnesses.add((x_int, s_int))

            # l_{alpha,b_i} with alpha = x(a_i+1), so alpha*scale is
            # x_int*(a_int+sa)*scale/sa^2; it passes through (1/x, s) iff
            # s = (alpha/x - 1)*b_i, cleared of denominators
            designated = set()
            lhs = s_int * x_int * scale
            for a_int, j in reps[s_int]:
                k, rem = divmod(x_int * (a_int + sa) * scale, sa2)
                if rem or k not in alpha_ints or j not in b_set:
                    raise WitnessFailure(
                        f"designated line for {point(x_int, s_int)} not in the family")
                if lhs != k * j * sa2 - j * x_int * sa * scale:
                    raise WitnessFailure(
                        f"designated line misses its witness {point(x_int, s_int)}")
                designated.add((k * j, -j))
            if len(designated) < t:
                raise WitnessFailure(
                    f"witness {point(x_int, s_int)} lies on {len(designated)} "
                    f"designated lines < t = {t}"
                )
            # independent recount: lines of the family through the point, one
            # per b; x*(s+b)/b is in A(A+1) iff x_int*n/d is one of alpha_ints
            through = 0
            for n, d in shifts:
                k, rem = divmod(x_int * n, d)
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
        family_size=family_size,
        min_lines_through_witness=min_lines if min_lines is not None else 0,
    )
