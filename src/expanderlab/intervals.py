"""Certified enclosures with exact rational endpoints.

Fractional powers and logarithms are irrational; comparisons involving them
are decided through intervals [lo, hi] whose endpoints are Fractions and
which provably contain the true value.  Roots come from integer Newton
iteration on scaled operands (floor on the low side, floor-plus-one on the
high side), so enclosures at doubled precision nest inside earlier ones.
Logarithms use the classic square-and-shift bit extraction with directed
fixed-point rounding.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

Rat = Union[int, Fraction]


@dataclass(frozen=True)
class RatInterval:
    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lo", Fraction(self.lo))
        object.__setattr__(self, "hi", Fraction(self.hi))
        if self.lo > self.hi:
            raise ValueError(f"inverted interval [{self.lo}, {self.hi}]")

    @classmethod
    def point(cls, x: Rat) -> "RatInterval":
        x = Fraction(x)
        return cls(x, x)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi

    def contains(self, x: Rat) -> bool:
        return self.lo <= x <= self.hi

    def contains_interval(self, other: "RatInterval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def __add__(self, other):
        other = _as_interval(other)
        return RatInterval(self.lo + other.lo, self.hi + other.hi)

    def __neg__(self):
        return RatInterval(-self.hi, -self.lo)

    def __sub__(self, other):
        return self + (-_as_interval(other))

    def __mul__(self, other):
        other = _as_interval(other)
        products = (self.lo * other.lo, self.lo * other.hi,
                    self.hi * other.lo, self.hi * other.hi)
        return RatInterval(min(products), max(products))

    __radd__ = __add__
    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_interval(other)
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
    """floor(n ** (1/q)) for integers n >= 0, q >= 1, by Newton iteration."""
    if n < 0:
        raise ValueError("negative radicand")
    if q < 1:
        raise ValueError("root order must be positive")
    if q == 1 or n in (0, 1):
        return n
    if q == 2:
        return math.isqrt(n)
    x = 1 << ((n.bit_length() + q - 1) // q + 1)
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
    shifted = (x.numerator << (q * bits)) // x.denominator  # floor(2^(q*bits) * x)
    r = iroot_floor(shifted, q)
    s = iroot_floor(shifted + 1, q)
    return RatInterval(Fraction(r, scale), Fraction(s + 1, scale))


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
    """Exact decimal rendering of a Fraction with directed rounding.

    direction: "floor", "ceil", or "nearest" (round half away from zero).
    Used for serialising interval endpoints outward.
    """
    x = Fraction(x)
    if x == 0:
        return "0"
    sign = "-" if x < 0 else ""
    mag = -x if x < 0 else x
    scaled = mag * Fraction(10) ** digits
    n, rem = divmod(scaled.numerator, scaled.denominator)
    if rem:
        if direction == "ceil" and sign == "":
            n += 1
        elif direction == "floor" and sign == "-":
            n += 1
        elif direction == "nearest" and 2 * rem >= scaled.denominator:
            n += 1
    text = str(n).rjust(digits + 1, "0")
    whole, frac = text[:-digits], text[-digits:]
    frac = frac.rstrip("0")
    return f"{sign}{whole}.{frac}" if frac else f"{sign}{whole}"


def interval_to_decimal(iv: RatInterval, digits: int = 30) -> dict:
    """Outward decimal endpoints of an interval, for serialisation."""
    return {
        "lo": fraction_to_decimal(iv.lo, digits, "floor"),
        "hi": fraction_to_decimal(iv.hi, digits, "ceil"),
    }
