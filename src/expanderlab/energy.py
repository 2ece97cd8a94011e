"""Multiplicity spectra, higher-order energies E_alpha, additive and twisted
energies, and the t-rich product sets S_t(A, B).

Multiplicity conventions (all pair counts, computed exactly):

  product kind   mu(s) = #{(a, b) in A x B : a * b = s},   support AB
  ratio kind     mu(x) = #{(a, b) in A x B : a / b = x},   support A/B
  additive kind  mu(s) = #{(a, b) in A x B : a + b = s},   support A+B

For alpha = 2 the product and ratio spectra give the same energy (swap the
second coordinates of a colliding quadruple), which is the multiplicative
energy #{ab = a'b'}.  Higher self-energies E_alpha(A) use the ratio spectrum,
the convention under which the third-moment inequalities verified in the
`verify` registry are actual theorems.  Rich product sets S_t are always
product-based.

The twisted energy E_xi(A) = #{x + xi*y = z + xi*w} is a difference-ratio
count.  Rewrite a solution as x - z = xi*(w - y) and let m(d) be the number
of pairs of A with difference d.  Then

  E_xi(A) = |A|^2 + #{(x, z, w, y) in A^4 : (x - z)/(w - y) = xi, w != y}
          = |A|^2 + sum of m(delta) m(eta) over delta/eta = xi, delta, eta != 0.

The w = y solutions (eta = 0) force x = z, as xi != 0; they are the |A|^2
diagonal.  For eta != 0 we have delta = xi*eta != 0, so delta = 0 never
meets a nonzero twist.  `twist_spectrum` reads E_xi for every nonzero xi off
one pass over the pairs of nonzero differences.
"""
from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional, Tuple

from .errors import (
    BudgetExceeded,
    FieldMismatch,
    InvalidPrecisionCap,
    PrecisionCapExceeded,
    TOutOfRange,
    ZeroElementPresent,
    ZeroTwist,
)
from .field import KIND_PRIME
from .intervals import RatInterval, iroot_floor, pow_interval
from .sets import FSet, _from_ints, _pair_ints, _same_ctx

HIST_KINDS = ("product", "ratio", "additive")

PRECISION_START = 128
PRECISION_CAP_DEFAULT = 4096
PRECISION_CAP_ENV = "EXPANDERLAB_PRECISION_CAP"
# Relative width target for certified enclosures: width / lo < 2^-64.
_REL_BITS = 64


def precision_cap(explicit: Optional[int] = None) -> int:
    if explicit is not None:
        cap = explicit
    else:
        env = os.environ.get(PRECISION_CAP_ENV)
        if not env:
            return PRECISION_CAP_DEFAULT
        try:
            cap = int(env)
        except ValueError:
            raise InvalidPrecisionCap(
                f"{PRECISION_CAP_ENV}={env!r} is not an integer") from None
    if cap < 0:
        raise InvalidPrecisionCap(f"precision cap {cap} is negative")
    return cap


@dataclass(frozen=True)
class MultiplicityHistogram:
    """The spectrum m -> #{support values with multiplicity m}."""

    kind: str
    entries: Tuple[Tuple[int, int], ...]  # (multiplicity, count), sorted
    total_support: int
    pair_total: int  # |A| * |B|
    max_multiplicity_bound: int  # min(|A|, |B|)

    def __post_init__(self):
        if self.kind not in HIST_KINDS:
            raise ValueError(f"unknown histogram kind {self.kind!r}")
        if tuple(sorted(self.entries)) != self.entries:
            raise ValueError("entries must be sorted by multiplicity")
        if sum(c for _, c in self.entries) != self.total_support:
            raise ValueError("support count mismatch")
        if sum(m * c for m, c in self.entries) != self.pair_total:
            raise ValueError("pair count mismatch")
        for m, c in self.entries:
            if m < 1 or c < 1:
                raise ValueError("multiplicities and counts must be positive")
            if m > self.max_multiplicity_bound:
                raise ValueError(
                    f"multiplicity {m} exceeds min(|A|, |B|) = {self.max_multiplicity_bound}"
                )

    def split(self, delta: int) -> Tuple["MultiplicityHistogram", "MultiplicityHistogram"]:
        """Restrict to multiplicities <= delta and > delta (for trace reports).

        The halves keep the original pair bound; their support/pair totals
        refer to the restricted spectra.
        """
        low = tuple((m, c) for m, c in self.entries if m <= delta)
        high = tuple((m, c) for m, c in self.entries if m > delta)

        def build(part):
            return MultiplicityHistogram(
                kind=self.kind,
                entries=part,
                total_support=sum(c for _, c in part),
                pair_total=sum(m * c for m, c in part),
                max_multiplicity_bound=self.max_multiplicity_bound,
            )

        return build(low), build(high)

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "entries": [[m, c] for m, c in self.entries],
            "total_support": self.total_support,
            "pair_total": self.pair_total,
        }


@dataclass(frozen=True)
class EnergyValue:
    """An energy sum: exact for integer alpha, a certified enclosure otherwise."""

    alpha: Fraction
    lo: Fraction
    hi: Fraction
    precision_bits: int

    @property
    def is_exact(self) -> bool:
        return self.lo == self.hi

    @property
    def exact(self) -> int:
        if not self.is_exact:
            raise ValueError("energy value is an interval, not exact")
        return int(self.lo)

    @property
    def interval(self) -> RatInterval:
        return RatInterval(self.lo, self.hi)

    def to_json(self) -> dict:
        from .intervals import fraction_to_decimal

        return {
            "alpha": str(self.alpha),
            "lo": fraction_to_decimal(self.lo, 30, "floor"),
            "hi": fraction_to_decimal(self.hi, 30, "ceil"),
            "exact": str(self.lo) if self.is_exact else None,
            "precision_bits": self.precision_bits,
        }


_KIND_OPS = {"product": "prod", "ratio": "ratio", "additive": "sum"}


def _pair_counter(a: FSet, b: FSet, kind: str) -> Tuple[Counter, int]:
    """Pair counts keyed by the kernel's plain ints, with their scale."""
    _same_ctx(a, b)
    if kind in ("product", "ratio") and (0 in a.member_set() or 0 in b.member_set()):
        raise ZeroElementPresent(f"{kind} spectrum needs 0 excluded from both sets")
    ints, scale = _pair_ints(a, b, _KIND_OPS[kind])
    return Counter(ints), scale


def histogram(a: FSet, b: FSet, kind: str) -> MultiplicityHistogram:
    """Exact multiplicity spectrum of the chosen kind."""
    if kind not in HIST_KINDS:
        raise ValueError(f"unknown histogram kind {kind!r}")
    counts, _ = _pair_counter(a, b, kind)
    spectrum = Counter(counts.values())
    return MultiplicityHistogram(
        kind=kind,
        entries=tuple(sorted(spectrum.items())),
        total_support=len(counts),
        pair_total=len(a) * len(b),
        max_multiplicity_bound=min(len(a), len(b)),
    )


def energy(
    hist: MultiplicityHistogram,
    alpha,
    cap: Optional[int] = None,
    min_bits: Optional[int] = None,
) -> EnergyValue:
    """E_alpha = sum over the spectrum of count * m^alpha.

    Integer alpha (or a spectrum of perfect q-th powers) gives an exact
    value.  Otherwise the result is a certified enclosure, refined by
    doubling precision from 128 bits (or `min_bits`, for callers that need a
    tighter enclosure than the default relative-width target) until the
    relative width drops below 2^-64 or the cap is hit (default 4096,
    overridable through EXPANDERLAB_PRECISION_CAP).
    """
    alpha = Fraction(alpha)
    if alpha < 1:
        raise ValueError("alpha must be at least 1")
    if alpha.denominator == 1:
        total = sum(c * m ** alpha.numerator for m, c in hist.entries)
        return EnergyValue(alpha, Fraction(total), Fraction(total), 0)
    if not hist.entries:
        return EnergyValue(alpha, Fraction(0), Fraction(0), 0)
    # exact when every multiplicity is a perfect q-th power
    q = alpha.denominator
    roots = [iroot_floor(m, q) for m, _ in hist.entries]
    if all(r ** q == m for r, (m, _) in zip(roots, hist.entries)):
        total = sum(c * r ** alpha.numerator for r, (_, c) in zip(roots, hist.entries))
        return EnergyValue(alpha, Fraction(total), Fraction(total), 0)
    cap = precision_cap(cap)
    bits = min(max(PRECISION_START, min_bits or 0), cap)
    best: Optional[EnergyValue] = None
    while True:
        acc = RatInterval.point(0)
        for m, c in hist.entries:
            acc = acc + pow_interval(m, alpha, bits) * c
        best = EnergyValue(alpha, acc.lo, acc.hi, bits)
        if acc.lo > 0 and (acc.hi - acc.lo) * (1 << _REL_BITS) < acc.lo:
            return best
        if bits >= cap:
            raise PrecisionCapExceeded(
                f"enclosure still too wide at {bits} bits", achieved=best
            )
        bits = min(bits * 2, cap)


def energy_of(a: FSet, b: FSet, alpha, kind: str = "ratio", cap: Optional[int] = None) -> EnergyValue:
    return energy(histogram(a, b, kind), alpha, cap)


def rich_products(a: FSet, b: FSet, t: int) -> FSet:
    """S_t(a, b): products with at least t representations a_i * b_i."""
    if not 1 <= t <= min(len(a), len(b)):
        raise TOutOfRange(f"t = {t} outside [1, {min(len(a), len(b))}]")
    counts, scale = _pair_counter(a, b, "product")
    return _from_ints(a.ctx, (k for k, c in counts.items() if c >= t), scale)


def additive_energy(a: FSet, b: FSet) -> int:
    """Number of quadruples with a1 + b1 = a2 + b2."""
    counts, _ = _pair_counter(a, b, "additive")
    return sum(c * c for c in counts.values())


def multiplicative_energy(a: FSet, b: FSet) -> int:
    """Number of quadruples with a1 * b1 = a2 * b2."""
    counts, _ = _pair_counter(a, b, "product")
    return sum(c * c for c in counts.values())


def twisted_energy(a: FSet, xi) -> int:
    """Number of solutions of x + xi*y = z + xi*w with x, y, z, w in a."""
    ctx = a.ctx
    xv = ctx.canon(xi)
    if xv == 0:
        raise ZeroTwist("twist by zero degenerates to a line count")
    counts: Counter = Counter()
    for x in a.vals:
        for y in a.vals:
            counts[ctx.add(x, ctx.mul(xv, y))] += 1
    return sum(c * c for c in counts.values())


def twist_spectrum(a: FSet) -> Tuple[Dict[int, tuple], Dict[int, int]]:
    """The difference-ratio set R(a) = {(x - z)/(w - y) : w != y} over F_p,
    with a witness per ratio and the twisted energy of every nonzero ratio.

    Returns (quads, energies).  `quads` maps each ratio to its
    lexicographically first quadruple (x, z, w, y) of a.  `energies` maps
    each nonzero ratio xi to E_xi(a); a nonzero xi outside R(a) has
    E_xi(a) = |a|^2.  One pass over D = a - a: each difference keeps its
    multiplicity and its first pair, and takes one inverse.  Differences
    come in first-pair order, so the first time a ratio is reached, its
    witness is the first quadruple.  The delta = 0 row reaches only the
    ratio 0, first through the first nonzero difference.
    """
    ctx = a.ctx
    if ctx.kind != KIND_PRIME:
        raise FieldMismatch("the twist spectrum is defined over F_p")
    p = ctx.p
    first: Dict[int, tuple] = {}
    mult: Counter = Counter()
    for x in a.vals:
        for z in a.vals:
            d = (x - z) % p
            mult[d] += 1
            if d not in first:
                first[d] = (x, z)
    n2 = len(a) * len(a)
    quads: Dict[int, tuple] = {}
    energies: Dict[int, int] = {}
    nonzero = [(d, pow(d, -1, p), first[d], mult[d]) for d in first if d]
    if nonzero:
        quads[0] = first[0] + nonzero[0][2]
    for delta, _, rep, m in nonzero:
        for _, inv_eta, rep_eta, m_eta in nonzero:
            xi = delta * inv_eta % p
            if xi in quads:
                energies[xi] += m * m_eta
            else:
                quads[xi] = rep + rep_eta
                energies[xi] = n2 + m * m_eta
    return quads, energies


# -- independent brute-force oracles ------------------------------------------
# Literal quadruple loops, O(|A|^2 |B|^2); size-gated so they are only ever
# used as test oracles.

ORACLE_LIMIT_DEFAULT = 20


def _gate(a: FSet, b: FSet, limit: int, force: bool) -> None:
    if force:
        return
    if max(len(a), len(b)) > limit:
        raise BudgetExceeded(
            f"oracle sizes {len(a)}x{len(b)} exceed limit {limit}; pass force=True"
        )


def multiplicative_energy_bruteforce(
    a: FSet, b: FSet, limit: int = ORACLE_LIMIT_DEFAULT, force: bool = False
) -> int:
    _same_ctx(a, b)
    _gate(a, b, limit, force)
    ctx = a.ctx
    n = 0
    for x in a.vals:
        for y in b.vals:
            lhs = ctx.mul(x, y)
            for z in a.vals:
                for w in b.vals:
                    if lhs == ctx.mul(z, w):
                        n += 1
    return n


def additive_energy_bruteforce(
    a: FSet, b: FSet, limit: int = ORACLE_LIMIT_DEFAULT, force: bool = False
) -> int:
    _same_ctx(a, b)
    _gate(a, b, limit, force)
    ctx = a.ctx
    n = 0
    for x in a.vals:
        for y in b.vals:
            lhs = ctx.add(x, y)
            for z in a.vals:
                for w in b.vals:
                    if lhs == ctx.add(z, w):
                        n += 1
    return n
