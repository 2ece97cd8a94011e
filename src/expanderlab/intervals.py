"""Certified enclosures with exact rational endpoints.

Fractional powers and logarithms are irrational; comparisons involving them
are decided through intervals [lo, hi] whose endpoints are Fractions and
which provably contain the true value.  Roots come from integer Newton
iteration on scaled operands (floor on the low side, floor-plus-one on the
high side), so enclosures at doubled precision nest inside earlier ones;
the iteration starts from a float root just above the true one, so even a
56th root of thousands of bits takes a few steps.
Logarithms use the classic square-and-shift bit extraction with directed
fixed-point rounding.
Products, quotients and powers of nonnegative intervals are taken endpoint
by endpoint; mixed-sign and zero-crossing operands take the four-product
min/max path.  No code of the package adds intervals, so they have no sum.
Decimal rendering rounds on the endpoint's ints.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple, Union

Rat = Union[int, Fraction]


@dataclass(frozen=True)
class RatInterval:
    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if not isinstance(self.lo, Fraction):
            object.__setattr__(self, "lo", Fraction(self.lo))
        if not isinstance(self.hi, Fraction):
            object.__setattr__(self, "hi", Fraction(self.hi))
        if self.lo > self.hi:
            raise ValueError(f"inverted interval [{self.lo}, {self.hi}]")

    @classmethod
    def point(cls, x: Rat) -> "RatInterval":
        x = Fraction(x)
        return cls(x, x)

    def __mul__(self, other):
        other = _as_interval(other)
        if self.lo >= 0 and other.lo >= 0:
            return RatInterval(self.lo * other.lo, self.hi * other.hi)
        products = (self.lo * other.lo, self.lo * other.hi,
                    self.hi * other.lo, self.hi * other.hi)
        return RatInterval(min(products), max(products))

    def __truediv__(self, other):
        other = _as_interval(other)
        if self.lo >= 0 and other.lo > 0:
            return RatInterval(self.lo / other.hi, self.hi / other.lo)
        if other.lo <= 0 <= other.hi:
            raise ZeroDivisionError("interval division through zero")
        quotients = (self.lo / other.lo, self.lo / other.hi,
                     self.hi / other.lo, self.hi / other.hi)
        return RatInterval(min(quotients), max(quotients))

    def __rtruediv__(self, other):
        return _as_interval(other) / self

    def power(self, k: int) -> "RatInterval":
        """Integer power, k >= 0."""
        if k < 0:
            raise ValueError("negative powers unsupported; divide instead")
        if self.lo >= 0:
            return RatInterval(self.lo ** k, self.hi ** k)
        out = RatInterval.point(1)
        for _ in range(k):
            out = out * self
        return out

    def __repr__(self):
        return f"RatInterval({self.lo}, {self.hi})"


def _as_interval(x) -> RatInterval:
    if isinstance(x, RatInterval):
        return x
    return RatInterval.point(x)


def iroot_floor(n: int, q: int) -> int:
    """floor(n ** (1/q)) for integers n >= 0, q >= 1, by Newton iteration
    from a float seed."""
    if n < 0:
        raise ValueError("negative radicand")
    if q < 1:
        raise ValueError("root order must be positive")
    if q == 1 or n in (0, 1):
        return n
    if q == 2:
        return math.isqrt(n)
    # seed from above, within a relative 2^-30 of the root: the float root
    # of n >> q*k, whose root has about 64 bits, scaled back by 2^k.  As
    # (m + 1)^(1/q) <= m^(1/q) + 1, the +2 keeps the seed at or above the
    # floor root, so integer Newton descends to it in a few steps.
    k = max(0, n.bit_length() // q - 64)
    root = 2.0 ** (math.log2(n >> q * k) / q)
    x = (int(root * (1 + 2.0 ** -30)) + 2) << k
    while True:
        y = ((q - 1) * x + n // x ** (q - 1)) // q
        if y >= x:
            break
        x = y
    while x ** q > n:
        x -= 1
    return x


def root_interval(x: Rat, q: int, bits: int) -> RatInterval:
    """Enclosure of x ** (1/q) for rational x >= 0 with ~2^-bits width.

    lo = floor(2^bits * root) / 2^bits by construction, hi one step above, so
    doubling `bits` always yields a nested enclosure.
    """
    x = Fraction(x)
    if x < 0:
        raise ValueError("negative radicand")
    if x == 0:
        return RatInterval.point(0)
    scale = 1 << bits
    lo, hi = _root_ends(x.numerator, x.denominator, q, bits)
    return RatInterval(Fraction(lo, scale), Fraction(hi, scale))


def _root_ends(num: int, den: int, q: int, bits: int) -> Tuple[int, int]:
    """The ints lo, hi with root_interval(num/den, q, bits) = [lo, hi]/2^bits,
    for ints num > 0 and den > 0."""
    shifted = (num << (q * bits)) // den  # floor(2^(q*bits) * x)
    return iroot_floor(shifted, q), iroot_floor(shifted + 1, q) + 1


def pow_interval(x: Rat, alpha: Fraction, bits: int) -> RatInterval:
    """Enclosure of x ** alpha for rational x >= 0 and rational alpha >= 0."""
    alpha = Fraction(alpha)
    if alpha < 0:
        raise ValueError("negative exponent unsupported")
    x = Fraction(x)
    powered = x ** alpha.numerator
    if alpha.denominator == 1:
        return RatInterval.point(powered)
    return root_interval(powered, alpha.denominator, bits)


def _log2_bits(num: int, den: int, bits: int, round_up: bool) -> int:
    """Directed fixed-point extraction of `bits` fractional bits of
    log2(num/den) for num/den in [1, 2).

    Every rounding is directed the same way, and the square-and-shift step is
    monotone in y, so the emitted bitstream bounds the true expansion from
    the chosen side.
    """
    guard = bits + 16

    def shift(v: int, s: int) -> int:
        return -((-v) >> s) if round_up else v >> s

    y = -((-(num << guard)) // den) if round_up else (num << guard) // den
    frac = 0
    for _ in range(bits):
        y = shift(y * y, guard)
        frac <<= 1
        if y >= (2 << guard):
            y = shift(y, 1)
            frac |= 1
    return frac


def log2_interval(x: Rat, bits: int = 128) -> RatInterval:
    """Certified enclosure of log2(x) for rational x > 0."""
    x = Fraction(x)
    if x <= 0:
        raise ValueError("log of non-positive value")
    if x == 1:
        return RatInterval.point(0)
    if x < 1:
        inner = log2_interval(1 / x, bits)
        return RatInterval(-inner.hi, -inner.lo)
    e = x.numerator.bit_length() - x.denominator.bit_length()
    if Fraction(2) ** e > x:
        e -= 1
    if Fraction(2) ** (e + 1) <= x:
        e += 1
    y = x / Fraction(2) ** e  # in [1, 2)
    lo_bits = _log2_bits(y.numerator, y.denominator, bits, round_up=False)
    hi_bits = _log2_bits(y.numerator, y.denominator, bits, round_up=True)
    scale = 1 << bits
    return RatInterval(e + Fraction(lo_bits, scale), e + Fraction(hi_bits + 1, scale))


def log_ratio_interval(value: Rat, base: Rat, bits: int = 128) -> RatInterval:
    """Enclosure of log(value) / log(base) for rationals value >= 1, base > 1."""
    value = Fraction(value)
    base = Fraction(base)
    if base <= 1:
        raise ValueError("base must exceed 1")
    if value < 1:
        raise ValueError("value must be at least 1")
    if value == 1:
        return RatInterval.point(0)
    num = log2_interval(value, bits)
    den = log2_interval(base, bits)
    return num / den


def fraction_to_decimal(x: Rat, digits: int = 30, direction: str = "nearest") -> str:
    """Exact decimal rendering of a Fraction or int with directed rounding.

    direction: "floor", "ceil", or "nearest" (round half away from zero).
    A value that rounds to 0 renders as "0", with no sign.  Used for
    serialising interval endpoints outward.
    """
    if digits < 0:
        raise ValueError(f"digits must be nonnegative, got {digits}")
    num, den = x.numerator, x.denominator
    if num == 0:
        return "0"
    sign = "-" if num < 0 else ""
    unit = 10 ** digits
    n, rem = divmod(abs(num) * unit, den)
    if rem:
        if direction == "ceil" and sign == "":
            n += 1
        elif direction == "floor" and sign == "-":
            n += 1
        elif direction == "nearest" and 2 * rem >= den:
            n += 1
    if n == 0:  # a magnitude that rounds to 0 has no sign
        return "0"
    whole, frac = divmod(n, unit)
    frac = str(frac).rjust(digits, "0").rstrip("0")
    return f"{sign}{whole}.{frac}" if frac else f"{sign}{whole}"


def interval_to_decimal(iv: RatInterval, digits: int = 30) -> dict:
    """Outward decimal endpoints of an interval, for serialisation."""
    return {
        "lo": fraction_to_decimal(iv.lo, digits, "floor"),
        "hi": fraction_to_decimal(iv.hi, digits, "ceil"),
    }
