import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
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
from helpers import (
    contains,
    contains_interval,
    four_product_mul,
    four_quotient_div,
    fraction_decimal,
    interval_add,
    interval_rmul,
    is_point,
    kfold_power,
    newton_iroot_floor,
    newton_root_interval,
)


@settings(max_examples=200, derandomize=True)
@given(n=st.integers(min_value=0, max_value=10 ** 24), q=st.integers(min_value=1, max_value=7))
def test_iroot_floor_defining_property(n, q):
    r = iroot_floor(n, q)
    assert r ** q <= n < (r + 1) ** q


def test_iroot_floor_matches_the_newton_loop_on_small_radicands():
    for q in range(3, 65):
        for n in range(301):
            assert iroot_floor(n, q) == newton_iroot_floor(n, q), (n, q)


@st.composite
def radicands(draw):
    """(n, q) for q = 3..64: a perfect q-th power or one off it, or any n
    of up to 9,000 bits."""
    q = draw(st.integers(3, 64))
    if draw(st.booleans()):
        r = draw(st.integers(2, 1 << draw(st.sampled_from([8, 64, 140]))))
        return r ** q + draw(st.sampled_from([-1, 0, 1])), q
    return draw(st.integers(0, 1 << draw(st.integers(1, 9000)))), q


@settings(max_examples=300, derandomize=True, deadline=None)
@given(radicands())
@example((2 ** 64 - 1, 3))
@example((30 ** 57 << 56 * 128, 56))                 # R14's radicand at 128 bits
@example(((1 << 9000) - 1, 64))
def test_iroot_floor_matches_the_newton_loop(case):
    n, q = case
    r = iroot_floor(n, q)
    assert r == newton_iroot_floor(n, q)
    assert r ** q <= n < (r + 1) ** q


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.fractions(min_value=0, max_value=10 ** 40, max_denominator=10 ** 12),
       st.integers(3, 64), st.sampled_from([1, 64, 128]))
@example(Fraction(30 ** 57), 56, 128)
def test_root_interval_matches_the_newton_loop(x, q, bits):
    assert root_interval(x, q, bits) == newton_root_interval(x, q, bits)


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
        assert contains_interval(outer, inner)
        assert contains_interval(inner, root_interval(x, q, 256))


def test_pow_interval_integer_exponent_is_exact():
    iv = pow_interval(Fraction(3, 2), Fraction(2), 128)
    assert is_point(iv) and iv.lo == Fraction(9, 4)


def test_log2_exact_powers():
    for k in (-3, 0, 1, 5, 20):
        iv = log2_interval(Fraction(2) ** k, 64)
        assert contains(iv, k)
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
    assert contains(iv, ref)
    assert iv.hi - iv.lo < Fraction(1, 10 ** 30)
    assert contains(log_ratio_interval(8, 2, 64), 3)
    assert is_point(log_ratio_interval(1, 5, 64))


def test_interval_arithmetic():
    a = RatInterval(Fraction(1), Fraction(2))
    b = RatInterval(Fraction(-3), Fraction(4))
    assert interval_add(a, b) == RatInterval(Fraction(-2), Fraction(6))
    assert interval_add(3, a) == interval_add(a, 3) == RatInterval(Fraction(4), Fraction(5))
    assert interval_rmul(2, b) == RatInterval(Fraction(-6), Fraction(8))
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


# -- the endpoint-by-endpoint paths against the four-product oracles -----------

ENDS = st.one_of(st.just(Fraction(0)),
                 st.fractions(min_value=-60, max_value=60, max_denominator=40))


@st.composite
def rat_intervals(draw):
    """Nonnegative intervals, ones with a zero endpoint, points, negative
    and zero-crossing intervals, and any sorted pair of endpoints."""
    x, y = sorted((draw(ENDS), draw(ENDS)))
    shape = draw(st.sampled_from(["nonneg", "zero_lo", "zero_hi", "point",
                                  "negative", "crossing", "any"]))
    if shape == "nonneg":
        x, y = sorted((abs(x), abs(y)))
    elif shape == "zero_lo":
        x, y = Fraction(0), abs(y)
    elif shape == "zero_hi":
        x, y = -abs(x), Fraction(0)
    elif shape == "point":
        y = x
    elif shape == "negative":
        x, y = sorted((-abs(x), -abs(y)))
    elif shape == "crossing":
        x, y = -abs(x) - Fraction(1, 7), abs(y) + Fraction(1, 9)
    return RatInterval(x, y)


@settings(max_examples=400, derandomize=True)
@given(rat_intervals(), rat_intervals(), st.integers(-5, 9))
def test_mul_matches_four_products(a, b, k):
    assert a * b == four_product_mul(a, b)
    assert a * k == interval_rmul(k, a) == four_product_mul(a, RatInterval.point(k))


@settings(max_examples=400, derandomize=True)
@given(rat_intervals(), rat_intervals())
def test_div_matches_four_quotients(a, b):
    try:
        expected = four_quotient_div(a, b)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            a / b
        return
    assert a / b == expected


@settings(max_examples=300, derandomize=True)
@given(rat_intervals(), st.integers(0, 7))
def test_power_matches_kfold_products(iv, k):
    assert iv.power(k) == kfold_power(iv, k)


@pytest.mark.parametrize("a, b, expected", [
    ((-3, 4), (1, 2), (-6, 8)),
    ((1, 2), (-3, 4), (-6, 8)),
    ((-2, -1), (3, 5), (-10, -3)),
    ((3, 5), (-2, -1), (-10, -3)),
    ((-2, 3), (-5, 7), (-15, 21)),
])
def test_mixed_sign_products_take_the_four_product_path(a, b, expected):
    # the endpoint-by-endpoint product [lo*lo', hi*hi'] is wrong on each case
    a, b = RatInterval(*a), RatInterval(*b)
    assert (a.lo * b.lo, a.hi * b.hi) != expected
    assert a * b == RatInterval(*expected) == four_product_mul(a, b)


@pytest.mark.parametrize("a, b, expected", [
    ((-3, 4), (1, 2), (-3, 4)),
    ((1, 2), (-4, -2), (-1, Fraction(-1, 4))),
    ((-6, -2), (1, 3), (-6, Fraction(-2, 3))),
])
def test_mixed_sign_quotients_take_the_four_quotient_path(a, b, expected):
    a, b = RatInterval(*a), RatInterval(*b)
    assert (Fraction(a.lo) / b.hi, Fraction(a.hi) / b.lo) != expected
    assert a / b == RatInterval(*expected) == four_quotient_div(a, b)


@pytest.mark.parametrize("iv, k, expected", [
    ((-3, 2), 2, (-6, 9)),
    ((-2, -1), 2, (1, 4)),
    ((-2, 1), 3, (-8, 4)),
    ((-1, 3), 3, (-9, 27)),
])
def test_mixed_sign_powers_take_the_kfold_path(iv, k, expected):
    iv = RatInterval(*iv)
    assert (iv.lo ** k, iv.hi ** k) != expected
    assert iv.power(k) == RatInterval(*expected) == kfold_power(iv, k)


def test_fraction_endpoints_are_kept_as_they_are():
    lo, hi = Fraction(1, 3), Fraction(5, 2)
    iv = RatInterval(lo, hi)
    assert iv.lo is lo and iv.hi is hi
    assert type(RatInterval(1, 2).lo) is Fraction


@settings(max_examples=500, derandomize=True)
@given(st.one_of(st.fractions(max_denominator=10 ** 12),
                 st.integers(-10 ** 15, 10 ** 15),
                 st.fractions(min_value=-1, max_value=1, max_denominator=10 ** 45)),
       st.integers(0, 40), st.sampled_from(["floor", "ceil", "nearest"]))
@example(Fraction(1, 2), 0, "nearest")
@example(Fraction(-1, 2), 0, "nearest")
@example(Fraction(-1, 10 ** 41), 40, "nearest")
@example(Fraction(-1, 3), 0, "ceil")
def test_fraction_to_decimal_matches_the_fraction_oracle(x, digits, direction):
    assert fraction_to_decimal(x, digits, direction) == fraction_decimal(x, digits, direction)


@pytest.mark.parametrize("x, digits, direction", [
    (Fraction(-1, 10 ** 41), 40, "nearest"), (Fraction(-1, 3), 0, "ceil"),
    (Fraction(-1, 3), 0, "nearest"), (Fraction(-4, 10 ** 6), 5, "ceil")])
def test_a_negative_that_rounds_to_zero_has_no_sign(x, digits, direction):
    assert fraction_to_decimal(x, digits, direction) == "0"


def test_fraction_to_decimal_at_zero_digits_keeps_the_integer_part():
    assert fraction_to_decimal(Fraction(7, 2), 0, "floor") == "3"
    assert fraction_to_decimal(Fraction(7, 2), 0, "ceil") == "4"
    assert fraction_to_decimal(5, 0) == "5"
    assert fraction_to_decimal(Fraction(-7, 2), 0, "nearest") == "-4"
    assert fraction_to_decimal(Fraction(-7, 2), 0, "ceil") == "-3"
    assert fraction_to_decimal(0, 0) == "0"


@pytest.mark.parametrize("digits", [-1, -30])
def test_fraction_to_decimal_refuses_negative_digits(digits):
    with pytest.raises(ValueError):
        fraction_to_decimal(Fraction(7, 2), digits)
