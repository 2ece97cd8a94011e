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

The check's independent recount of the lines through each witness is made
per (product, b) slope, not per (product, x, b): the slope is reduced to
lowest terms once, and only the x whose ints its denominator divides are
tested, a C-level pass over a per-denominator row of A.

Everything here is rational-line only: the incidence bound this instruments
is false over prime fields at this generality, so prime-field inputs are
refused with FieldMismatch.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, compress, repeat
from math import gcd
from operator import mul
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

    The recount of every family line through (1/x, s), which must find at
    least the designated ones, runs once per s ahead of its witnesses and
    raises nothing itself.  The line of b = j/sb passes through (1/x, s)
    iff x*(s+b)/b*scale = x_int*n/d is one of the alpha ints, with
    n/d = (s_int + j*sa)*scale/(sa^2*j) in lowest terms and d > 0.  As
    gcd(n, d) = 1, that holds iff d divides x_int and (x_int // d)*n is an
    alpha int; so n/d is reduced once per (s, b), and the x_int that d
    divides, with their quotients, are kept per d for the call.
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
    alphas, scale = expander_set(a, a)._int_form()
    alpha_ints = set(alphas)
    b_set = set(b_ints)
    # the family: lines of distinct b have distinct intercepts -j, and per b
    # the slope keys k*j are distinct, since the alpha ints are and j != 0
    # (0 is not in B, checked above), so k -> k*j is injective
    family_size = len(alphas) * len(b_ints)

    def point(x_int, s_int):
        return (1 / Fraction(x_int, sa), Fraction(s_int, rep_scale))

    sa2 = sa * sa
    # per b = j/sb the slope's parts (j*sa, sa^2*j); and per denominator d
    # the x_int of A that d divides, with their quotients
    slopes = [(j * sa, sa2 * j) for j in b_ints]
    divisible = {}
    in_family = alpha_ints.__contains__

    def divisible_by(d):
        xs = [x_int for x_int in a_ints if x_int % d == 0]
        row = divisible[d] = (xs, [x_int // d for x_int in xs])
        return row

    def recount(s_int) -> Counter:
        """The number of family lines through (1/x, s), per x_int."""
        hits = []
        for j_sa, d in slopes:
            n = (s_int + j_sa) * scale
            g = gcd(n, d)
            if d < 0:
                g = -g
            n, d = n // g, d // g
            xs, quotients = divisible.get(d) or divisible_by(d)
            hits.append(compress(xs, map(in_family, map(mul, repeat(n), quotients))))
        return Counter(chain.from_iterable(hits))

    min_lines = None
    witnesses = set()
    for s_int in s_ints:
        through = recount(s_int)
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
            lines = through[x_int]
            if lines < len(designated):
                raise InvariantViolation("recount found fewer lines than designated")
            min_lines = lines if min_lines is None else min(min_lines, lines)

    if len(witnesses) != len(s_t) * len(a):
        raise InvariantViolation("witness count mismatch")
    return StLowerBoundResult(
        s_t=s_t,
        t=t,
        witness_count=len(witnesses),
        family_size=family_size,
        min_lines_through_witness=min_lines if min_lines is not None else 0,
    )
