import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expanderlab.intervals import (
    RatInterval,
    fraction_to_decimal,
    interval_to_decimal,
    iroot_floor,
    log2_interval,
    log_ratio_interval,
    pow_interval,
    root_interval,
)


@settings(max_examples=200, derandomize=True)
@given(n=st.integers(min_value=0, max_value=10 ** 24), q=st.integers(min_value=1, max_value=7))
def test_iroot_floor_defining_property(n, q):
    r = iroot_floor(n, q)
    assert r ** q <= n < (r + 1) ** q


def test_root_interval_encloses():
    for x in (2, 3, Fraction(7, 3), 10 ** 9, Fraction(1, 12)):
        for q in (2, 3, 5):
            iv = root_interval(x, q, 128)
            assert iv.lo ** q <= Fraction(x) <= iv.hi ** q
            assert iv.hi - iv.lo <= Fraction(2, 1 << 128)


def test_root_interval_nesting():
    rng = random.Random(5)
    for _ in range(50):
        x = Fraction(rng.randint(1, 10 ** 6), rng.randint(1, 100))
        q = rng.randint(2, 5)
        outer = root_interval(x, q, 64)
        inner = root_interval(x, q, 128)
        assert outer.contains_interval(inner)
        assert inner.contains_interval(root_interval(x, q, 256))


def test_pow_interval_integer_exponent_is_exact():
    iv = pow_interval(Fraction(3, 2), Fraction(2), 128)
    assert iv.is_point and iv.lo == Fraction(9, 4)


def test_log2_exact_powers():
    for k in (-3, 0, 1, 5, 20):
        iv = log2_interval(Fraction(2) ** k, 64)
        assert iv.contains(k)
        assert iv.hi - iv.lo <= Fraction(2, 1 << 64)


def test_log2_certified_at_low_precision():
    # exact check: lo <= log2(3) <= hi  iff  2^(lo * 2^bits) <= 3^(2^bits) etc.
    bits = 16
    iv = log2_interval(3, bits)
    scale = 1 << bits
    lo_num = iv.lo * scale
    hi_num = iv.hi * scale
    assert lo_num.denominator == 1 and hi_num.denominator == 1
    assert 2 ** int(lo_num) <= 3 ** scale <= 2 ** int(hi_num)


def test_log2_matches_float():
    for x in (3, 10, Fraction(7, 5), 1000003):
        iv = log2_interval(x, 64)
        assert iv.lo <= Fraction(math.log2(x)).limit_denominator(10 ** 15) + Fraction(1, 10 ** 9)
        assert abs(float(iv.lo) - math.log2(x)) < 1e-12


def test_log_ratio_interval():
    iv = log_ratio_interval(3, 2, 128)
    # 50-digit reference value for log2(3)
    ref = Fraction("1.5849625007211561814537389439478165087598144076925")
    assert iv.contains(ref)
    assert iv.hi - iv.lo < Fraction(1, 10 ** 30)
    assert log_ratio_interval(8, 2, 64).contains(3)
    assert log_ratio_interval(1, 5, 64).is_point


def test_interval_arithmetic():
    a = RatInterval(Fraction(1), Fraction(2))
    b = RatInterval(Fraction(-3), Fraction(4))
    assert (a + b).lo == -2 and (a + b).hi == 6
    assert (a * b).lo == -6 and (a * b).hi == 8
    assert (a / RatInterval(Fraction(2), Fraction(4))).lo == Fraction(1, 4)
    with pytest.raises(ZeroDivisionError):
        a / b
    assert a.power(3).lo == 1 and a.power(3).hi == 8


def test_fraction_to_decimal_directed():
    x = Fraction(1, 3)
    assert fraction_to_decimal(x, 5, "floor") == "0.33333"
    assert fraction_to_decimal(x, 5, "ceil") == "0.33334"
    assert fraction_to_decimal(-x, 5, "floor") == "-0.33334"
    assert fraction_to_decimal(Fraction(5, 4), 5) == "1.25"
    assert fraction_to_decimal(Fraction(0), 5) == "0"
    assert fraction_to_decimal(Fraction(-7), 3) == "-7"


def test_interval_to_decimal_outward():
    iv = RatInterval(Fraction(1, 3), Fraction(2, 3))
    doc = interval_to_decimal(iv, 6)
    assert doc["lo"].startswith("0.333333") and doc["hi"].startswith("0.666667")
