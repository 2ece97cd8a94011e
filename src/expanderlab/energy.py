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
meets a nonzero twist.  So `twist_spectrum` counts the ratios delta/eta,
and `twist_witness` finds a quadruple for one chosen xi.  Only the
differences d = x - z with x > z are listed, as (+-d)/(+-e) = +-(d/e): the
count of d/e over those, plus its negation, doubled, is the spectrum.  It
comes either from a `Counter` of d/e over the pairs (`_twist_pairs`), or,
over F_p in log coordinates, from one product of slot ints
(`_twist_slots`): the multiplicities of the d at their discrete logs,
times the same slots reversed, is their cyclic correlation, so a fold mod
p - 1 gives the count of d/e at log(d/e), a rotation by (p - 1)/2 adds the
negation, as -1 has log (p - 1)/2, and a shift doubles it.  The slots are
`_slot_bytes(2|ups|^2)` wide for the list ups of the d, 2 bytes on the
dense classes of the F_p pipeline, so no slot carries.  `sets.choose`
("twist") picks the slots or the Counter.

Over F_p, E2 and R6 have a second exact kernel on discrete logarithms
(`sets.DiscreteLog`).  Let r(v) = #{(x, y) in X x Y : xy = v}.  Then

  E2(X, Y) = sum over v of r(v)^2,

and in log coordinates r is the cyclic convolution over Z/(p-1) of the
indicators of X and Y.  `_slot_convolution` holds it in one int of p - 1
slots of s bytes, w = 8s bits, with X the smaller set and s the fewest of
1, 2, 4 and 8 bytes with 2^w > |X| (s = 1 when X is empty): Y's indicator
is the int with 1 in slot log(y), the sum of its shifts by w*log(x) over x
in X has every coefficient at most |X| < 2^w, so no slot carries, and one
AND, shift and add fold the top p - 1 slots onto the bottom ones.  The
slots are read as a `memoryview` of native s-byte ints, r(v) in slot
log(v): |X| shift-adds over w(p-1)-bit ints.  E2 is the sum of c*v^2 over
the `Counter` of the slot values, which drops the zero bytes of 1-byte
slots, most of a sparse convolution, before `Counter` sees them.

R6's sum over x in A/B of |A ∩ xB| counts the pairs (x, b) of A/B x B with
xb in A, so it is the sum of r(a) over a in A for X = A/B and Y = B: the
slots at the logs of A (`verify._r6_slots`).  0 has no discrete logarithm,
so the kernel takes no set holding 0 and raises ZeroElementPresent, as the
pair kernel's product spectrum does.

One entry of `sets.choose`'s price table, "slots", dispatches both, in `e2`
here and in `verify._check_r6`, against the pair kernel's |X||Y| (R6:
|A/B||B|).  The table is an `array` and the slots are one int.
`multiplicative_energy` and `verify._r6_pairs` stay on the pair kernel, as
the oracles the slot kernel is tested against.

The larger set of E2(A, A·B), E2(A, A(A+1)), E2(A+1, A(A+1)) and R6's A/B
comes as a `sets.Combination`, which gives the slot int, not the shifts.
Its slot int (`_slot_row`) is its log mask spread into slots by
`_mask_slots` (`bin`, one `translate` and a strided slice), with no lookup
per member, unless its pair set is built and `sets.choose` ("spread")
prices looking up its members below what the mask still costs; either way
the Combination keeps it, so E2(A, A(A+1)) and E2(A+1, A(A+1)) build one.
"""
from __future__ import annotations

import os
import sys
from collections import Counter
from itertools import compress
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

from .errors import (
    AlphaOutOfRange,
    BudgetExceeded,
    FieldMismatch,
    InvalidPrecisionCap,
    PrecisionCapExceeded,
    TOutOfRange,
    WitnessFailure,
    ZeroElementPresent,
    ZeroTwist,
)
from .field import KIND_PRIME
from .intervals import RatInterval, _root_ends, interval_to_decimal, iroot_floor
from .sets import (
    Combination,
    DiscreteLog,
    FSet,
    _from_ints,
    _pair_groups,
    _pair_ints,
    _same_ctx,
    _slot_bytes,
    choose,
    dilate,
    discrete_log,
)

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
        return {
            "alpha": str(self.alpha),
            **interval_to_decimal(self.interval),
            "exact": str(self.lo) if self.is_exact else None,
            "precision_bits": self.precision_bits,
        }


_KIND_OPS = {"product": "prod", "ratio": "ratio", "additive": "sum"}


def _require_units(a: FSet, b: FSet, kind: str) -> None:
    if 0 in a or 0 in b:
        raise ZeroElementPresent(f"{kind} spectrum needs 0 excluded from both sets")


def _pair_counter(a: FSet, b: FSet, kind: str) -> Tuple[Counter, int]:
    """Pair counts keyed by the kernel's plain ints, with their scale."""
    _same_ctx(a, b)
    if kind in ("product", "ratio"):
        _require_units(a, b, kind)
    ints, scale = _pair_ints(a, b, _KIND_OPS[kind])
    return Counter(ints), scale


def histogram(a: FSet, b: FSet, kind: str) -> MultiplicityHistogram:
    """Exact multiplicity spectrum of the chosen kind."""
    if kind not in HIST_KINDS:
        raise ValueError(f"unknown histogram kind {kind!r}")
    counts, _ = _pair_counter(a, b, kind)
    return _spectrum(counts, kind, len(a), len(b))


def _spectrum(counts: Counter, kind: str, na: int, nb: int) -> MultiplicityHistogram:
    """The spectrum of the pair counts `counts` of two sets of sizes na and nb."""
    return MultiplicityHistogram(
        kind=kind,
        entries=tuple(sorted(Counter(counts.values()).items())),
        total_support=len(counts),
        pair_total=na * nb,
        max_multiplicity_bound=min(na, nb),
    )


def _exact_energy(hist: MultiplicityHistogram, alpha: Fraction) -> Optional[EnergyValue]:
    """E_alpha when every multiplicity is a perfect q-th power, alpha = p/q:
    always so for integer alpha or an empty spectrum; else None."""
    if alpha < 1:
        raise AlphaOutOfRange(f"alpha = {alpha} must be at least 1")
    q = alpha.denominator
    roots = [iroot_floor(m, q) for m, _ in hist.entries]
    if any(r ** q != m for r, (m, _) in zip(roots, hist.entries)):
        return None
    total = Fraction(sum(c * r ** alpha.numerator for r, (_, c) in zip(roots, hist.entries)))
    return EnergyValue(alpha, total, total, 0)


def energy_at(hist: MultiplicityHistogram, alpha, bits: int) -> EnergyValue:
    """E_alpha = sum over the spectrum of count * m^alpha, evaluated once:
    exact if `_exact_energy` gives it, else enclosed with `bits`-bit roots.
    Each term's enclosure, `pow_interval(m, alpha, bits) * count`, has
    endpoints over 2^bits, so the sums are taken on their ints."""
    alpha = Fraction(alpha)
    exact = _exact_energy(hist, alpha)
    if exact is not None:
        return exact
    lo = hi = 0
    for m, c in hist.entries:
        m_lo, m_hi = _root_ends(m ** alpha.numerator, 1, alpha.denominator, bits)
        lo += c * m_lo
        hi += c * m_hi
    scale = 1 << bits
    return EnergyValue(alpha, Fraction(lo, scale), Fraction(hi, scale), bits)


def energy(hist: MultiplicityHistogram, alpha, cap: Optional[int] = None) -> EnergyValue:
    """E_alpha, exact or enclosed at min(128, cap) bits; only an enclosure reads
    the cap (default 4096, overridable through EXPANDERLAB_PRECISION_CAP).
    Each term is at least 1 and its enclosure at most 2^(1 - bits) wide, so
    from 66 bits on the relative width is below 2^-64.  A wider enclosure,
    reached at a lower cap, is raised in PrecisionCapExceeded."""
    alpha = Fraction(alpha)
    value = _exact_energy(hist, alpha)
    if value is None:
        value = energy_at(hist, alpha, min(PRECISION_START, precision_cap(cap)))
    if value.is_exact or (value.hi - value.lo) * (1 << _REL_BITS) < value.lo:
        return value
    raise PrecisionCapExceeded(f"enclosure still too wide at {value.precision_bits} bits",
                               achieved=value)


def _require_t(a: FSet, b: FSet, t: int) -> None:
    if not 1 <= t <= min(len(a), len(b)):
        raise TOutOfRange(f"t = {t} outside [1, {min(len(a), len(b))}]")


def rich_products(a: FSet, b: FSet, t: int) -> FSet:
    """S_t(a, b): products with at least t representations a_i * b_i."""
    _require_t(a, b, t)
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


# struct format of an unsigned slot of s bytes, for s = 1, 2, 4 and 8
_SLOT_FORMATS = {1: "B", 2: "H", 4: "I", 8: "Q"}


def _slot_int(ks: list, s: int, slots: int) -> int:
    """The int of `slots` slots of s bytes with 1 in slot k for each k in
    `ks`: the indicator of a set in log coordinates.  One byte store per
    element; `sets._mask_of` on the bits 8s*k is the same int, about three
    times slower to build."""
    buf = bytearray(s * slots)
    for k in ks:
        buf[s * k] = 1
    return int.from_bytes(buf, "little")


_BIT_DIGITS = bytes.maketrans(b"01", b"\0\1")


def _mask_slots(mask: int, s: int, slots: int) -> int:
    """`_slot_int` of the set bits of `mask`, which has at most `slots`
    bits: `bin` writes the bits as digits, reversed so that bit k is
    character k, one `translate` makes them 0 and 1 bytes, and a strided
    slice sets them s bytes apart.  No Python loop: at p = 40009, 0.1 ms
    for 1-byte slots, where `_slot_int` of the 9000-19000 logs of a
    verify-sized A(A+1) takes 0.8-1.7 ms."""
    flags = bin(mask)[:1:-1].encode().translate(_BIT_DIGITS)
    buf = bytearray(s * slots)
    buf[:s * len(flags):s] = flags
    return int.from_bytes(buf, "little")


def _slot_row(y, s: int, logs: DiscreteLog) -> int:
    """The slot int of y in s-byte slots.  A set's comes from its logs.  A
    `Combination` keeps them by width and builds each from its log mask
    (`_mask_slots`) or from its set's logs, as `choose` ("spread") takes."""
    n = logs.p - 1
    if not isinstance(y, Combination):
        return _slot_int(logs._logs_of(y), s, n)
    row = y.slot_ints.get(s)
    if row is None:
        if choose("spread", logs.p, s, len(y.x), len(y.y), len(y), logs.built, vars(y)):
            row = _mask_slots(y.mask, s, n)
        else:
            row = _slot_int(logs._logs_of(y.fset), s, n)
        y.slot_ints[s] = row
    return row


def _slot_convolution(x, y, logs: DiscreteLog) -> memoryview:
    """The cyclic convolution over Z/(p-1) of the log indicators of x and y:
    the p - 1 native slots of the sum of the shifts of one's slot int by
    the logs of the other, folded mod p - 1, with r(v) in slot log(v).  The
    smaller set gives the shifts, except that a `Combination` (at most one
    of x and y) always gives the slot int."""
    _same_ctx(x, y)
    _require_units(x, y, "product")
    if isinstance(x, Combination) or (len(x) > len(y) and not isinstance(y, Combination)):
        x, y = y, x
    n = logs.p - 1
    s = _slot_bytes(len(x))
    w = 8 * s
    ks = logs._logs_of(x)  # builds the table before `_slot_row` prices the mask
    row = _slot_row(y, s, logs)
    acc = 0
    for k in ks:
        acc += row << w * k
    acc = (acc & ((1 << w * n) - 1)) + (acc >> w * n)
    return memoryview(acc.to_bytes(s * n, sys.byteorder)).cast(_SLOT_FORMATS[s])


def _slot_energy(x, y, logs: DiscreteLog) -> int:
    """E2(x, y) over F_p as the sum of r(v)^2 over the slots of
    `_slot_convolution`."""
    slots = _slot_convolution(x, y, logs)
    # a zero slot adds nothing to the sum; 1-byte slots are the bytes themselves
    counts = Counter(slots.obj.translate(None, b"\0") if slots.itemsize == 1 else slots)
    return sum(c * v * v for v, c in counts.items())


def e2(a: FSet, b, logs: DiscreteLog) -> int:
    """E2(a, b), the number of quadruples with a1 * b1 = a2 * b2, from the
    kernel `choose` takes ("slots"): the pair kernel, or over F_p the slot
    kernel, which reads its table from `logs`.
    b may be a `Combination`, which the slot kernel reads as a slot int."""
    ctx = _same_ctx(a, b)
    if ctx.kind == KIND_PRIME and choose("slots", ctx.p, len(a), len(b), logs.built):
        return _slot_energy(a, b, logs)
    return multiplicative_energy(a, b.fset if isinstance(b, Combination) else b)


def twisted_energy(a: FSet, xi) -> int:
    """Number of solutions of x + xi*y = z + xi*w with x, y, z, w in a: the
    additive energy of a and its dilate xi*a."""
    xv = a.ctx.canon(xi)
    if xv == 0:
        raise ZeroTwist("twist by zero degenerates to a line count")
    return additive_energy(a, dilate(a, xv))


def _twist_pairs(ups: list, p: int) -> Counter:
    """`twist_spectrum` of the differences `ups` from one product per pair:
    the Counter of d/e and of -(d/e) = d/(-e) over d, e in `ups`, with each
    count doubled."""
    invs = [pow(d, -1, p) for d in ups]
    invs += [p - e for e in invs]
    ratios = Counter(d * e % p for d in ups for e in invs)
    doubled = Counter()
    dict.update(doubled, zip(ratios, map((2).__mul__, ratios.values())))
    return doubled


def _twist_slots(ups: list, logs: DiscreteLog) -> Counter:
    """`twist_spectrum` of the differences `ups` from one slot product in
    log coordinates.  U holds the multiplicity of each d in `ups` in slot
    log(d) of p - 1 slots, and its slot reversal holds it in slot
    p - 2 - log(d), so the product has the count of d/e in the slots
    congruent to log(d/e) - 1 mod p - 1.  A fold that rotates up by one
    slot moves it to slot log(d/e).  The rotation by (p - 1)/2 adds the
    negation, as log(-x) = log(x) + (p - 1)/2, and one shift doubles the
    counts.  A slot then holds at most 2|ups|^2 (4 over F_2, where -1 = 1,
    the half turn is none and |ups| <= 1), so with s = `_slot_bytes` of
    that no slot carries.  The slots are read in residue order through
    the log table."""
    p = logs.p
    n = p - 1
    s = _slot_bytes(2 * len(ups) ** 2)
    w = 8 * s
    log = logs.log
    mults = memoryview(bytearray(s * n)).cast(_SLOT_FORMATS[s])
    for d in ups:
        mults[log[d]] += 1
    acc = (int.from_bytes(mults, sys.byteorder)
           * int.from_bytes(mults[::-1].tobytes(), sys.byteorder))
    acc = (acc >> w * (n - 1)) + ((acc & ((1 << w * (n - 1)) - 1)) << w)
    half = n // 2
    acc += (acc >> w * half) + ((acc & ((1 << w * half) - 1)) << w * (n - half))
    acc <<= 1
    by_log = memoryview(acc.to_bytes(s * n, sys.byteorder)).cast(_SLOT_FORMATS[s]).tolist()
    by_residue = list(map(by_log.__getitem__, log[1:]))
    ratios = Counter()
    dict.update(ratios, zip(compress(range(1, p), by_residue), filter(None, by_residue)))
    return ratios


def twist_spectrum(a: FSet) -> Counter:
    """E_xi(a) - |a|^2 for each nonzero xi in R(a) = {(x - z)/(w - y) : w != y}
    over F_p: the number of pairs (delta, eta) of nonzero differences of
    a x a, with multiplicity, with delta/eta = xi.  R(a) is its keys, and 0
    once |a| >= 2.  The nonzero differences are the d = x - z with x > z and
    their negatives, and (+-d)/(+-e) = +-(d/e), so the Counter of d/e over
    those, plus its negation, counts each ratio half as often.  The Counter
    comes from one product per pair or from one slot product in log
    coordinates on the process's table of p (`sets.discrete_log`), as
    `choose` takes ("twist")."""
    ctx = a.ctx
    if ctx.kind != KIND_PRIME:
        raise FieldMismatch("the twist spectrum is defined over F_p")
    p, vals = ctx.p, a.vals
    ups = [x - z for i, x in enumerate(vals) for z in vals[:i]]
    logs = discrete_log(p)
    if choose("twist", p, len(ups), logs.built):
        return _twist_slots(ups, logs)
    return _twist_pairs(ups, p)


def twist_witness(a: FSet, xi) -> tuple:
    """The least (x, z, w, y) in a^4 with x - z = xi*(w - y) != 0 over F_p:
    the first pair (x, z) of a x a whose difference is xi times a nonzero
    difference eta, then the first pair of eta.  A xi that is 0 or outside
    R(a) has none and raises WitnessFailure."""
    ctx = a.ctx
    if ctx.kind != KIND_PRIME:
        raise FieldMismatch("the twist witness is defined over F_p")
    groups, _ = _pair_groups(a, a, "diff")
    xv = ctx.canon(xi)
    firsts = {xv * eta % ctx.p: pairs[0] for eta, pairs in groups.items() if eta}
    for delta, pairs in groups.items():
        if delta and delta in firsts:
            return pairs[0] + firsts[delta]
    raise WitnessFailure(f"xi = {xv} is not a nonzero difference ratio of the set")


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
