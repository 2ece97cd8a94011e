"""Exact arithmetic contexts: prime fields F_p and the rational line.

A FieldCtx performs all arithmetic on *raw canonical values*: integers in
[0, p) for a prime field, reduced Fraction instances for the rationals.
No floating point is used anywhere.
"""
from __future__ import annotations

import hashlib
from fractions import Fraction
from typing import Union

from .errors import ContextMismatch, DivisionByZero, MissingModulus, NonPrimeModulus

RawValue = Union[int, Fraction]
ElemLike = Union[int, Fraction, str]

KIND_PRIME = "fp"
KIND_RATIONAL = "q"

# Deterministic Miller-Rabin witness set for n < 2^64 (Sinclair's bases).
_MR_BASES_64 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_PROBABLE_ROUNDS = 64


def _miller_rabin(n: int, base: int) -> bool:
    if base % n == 0:
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(base, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def is_prime(n: int) -> bool:
    """Primality test: deterministic below 2^64, certified-probabilistic above.

    Above 2^64 the witnesses are derived from SHA-256 of n, so the answer is
    reproducible and the error probability is below 4^-64.
    """
    if n < 2:
        return False
    for small in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % small == 0:
            return n == small
    if n < 1 << 64:
        return all(_miller_rabin(n, b) for b in _MR_BASES_64)
    seed = hashlib.sha256(str(n).encode("ascii")).digest()
    for i in range(_PROBABLE_ROUNDS):
        h = hashlib.sha256(seed + i.to_bytes(4, "big")).digest()
        base = 2 + int.from_bytes(h, "big") % (n - 3)
        if not _miller_rabin(n, base):
            return False
    return True


class FieldCtx:
    """Ambient field: FieldCtx.prime(p) or FieldCtx.rational().

    Immutable and hashable.
    """

    __slots__ = ("kind", "p")

    def __init__(self, kind: str, p: int | None = None):
        if kind == KIND_PRIME:
            if p is None:
                raise MissingModulus("prime field context requires a modulus")
            if not is_prime(p):
                raise NonPrimeModulus(f"{p} is not prime")
        elif kind == KIND_RATIONAL:
            if p is not None:
                raise ContextMismatch("rational context takes no modulus")
        else:
            raise ContextMismatch(f"unknown context kind {kind!r}")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "p", p)

    def __setattr__(self, name, value):
        raise AttributeError("FieldCtx is immutable")

    @classmethod
    def prime(cls, p: int) -> "FieldCtx":
        return cls(KIND_PRIME, p)

    @classmethod
    def rational(cls) -> "FieldCtx":
        return cls(KIND_RATIONAL)

    # -- identity ------------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, FieldCtx) and self.kind == other.kind and self.p == other.p

    def __hash__(self):
        return hash((self.kind, self.p))

    def __repr__(self):
        return f"FieldCtx(F_{self.p})" if self.kind == KIND_PRIME else "FieldCtx(Q)"

    # -- canonical values ----------------------------------------------------

    def canon(self, x: ElemLike) -> RawValue:
        """Canonical raw value of x in this context.

        Accepts raw ints, Fractions (with denominator invertible mod p for a
        prime field) and element text.
        """
        if isinstance(x, str):
            return self.parse(x)
        if self.kind == KIND_PRIME:
            if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
                raise ContextMismatch(f"cannot coerce {x!r} into {self!r}")
            if isinstance(x, Fraction):
                if x.denominator % self.p == 0:
                    raise DivisionByZero(f"denominator of {x} vanishes mod {self.p}")
                return x.numerator * pow(x.denominator, -1, self.p) % self.p
            return x % self.p
        if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
            raise ContextMismatch(f"cannot coerce {x!r} into {self!r}")
        return Fraction(x)

    def parse(self, text: str) -> RawValue:
        """Parse element text: a decimal integer, or "num/den" in lowest terms."""
        text = text.strip()
        try:
            if "/" in text:
                num, den = text.split("/", 1)
                value = Fraction(int(num), int(den))
            else:
                value = Fraction(int(text))
        except (ValueError, ZeroDivisionError) as exc:
            raise ContextMismatch(f"unparseable element text {text!r}") from exc
        return self.canon(value)

    def render(self, v: RawValue) -> str:
        if self.kind == KIND_PRIME:
            return str(v)
        if v.denominator == 1:
            return str(v.numerator)
        return f"{v.numerator}/{v.denominator}"

    @property
    def zero(self) -> RawValue:
        return 0 if self.kind == KIND_PRIME else Fraction(0)

    @property
    def one(self) -> RawValue:
        return 1 if self.kind == KIND_PRIME else Fraction(1)

    # -- raw arithmetic --------------------------------------------------------

    def add(self, a: RawValue, b: RawValue) -> RawValue:
        return (a + b) % self.p if self.kind == KIND_PRIME else a + b

    def sub(self, a: RawValue, b: RawValue) -> RawValue:
        return (a - b) % self.p if self.kind == KIND_PRIME else a - b

    def mul(self, a: RawValue, b: RawValue) -> RawValue:
        return (a * b) % self.p if self.kind == KIND_PRIME else a * b

    def neg(self, a: RawValue) -> RawValue:
        return (-a) % self.p if self.kind == KIND_PRIME else -a

    def div(self, a: RawValue, b: RawValue) -> RawValue:
        if b == 0:
            raise DivisionByZero("division by zero")
        if self.kind == KIND_PRIME:
            return a * pow(b, -1, self.p) % self.p
        return a / b

