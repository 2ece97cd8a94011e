"""Differential tests of the scaled-integer pair kernel over Q.

`combine`, `expander_set`, the pair spectra and the slope-family incidence
check count plain ints after clearing denominators; every result here is
compared with literal Fraction arithmetic written out in the test, or with
the brute-force energy oracles.
"""
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from expanderlab import FSet, combine, expander_set
from expanderlab.energy import (
    additive_energy,
    additive_energy_bruteforce,
    energy,
    histogram,
    multiplicative_energy,
    multiplicative_energy_bruteforce,
    rich_products,
)
from expanderlab.errors import DivisionByZero
from expanderlab.incidence import st_lower_bound_check
from helpers import Q, line_from_expander_params, literal_line_family

BIG = 10 ** 6

wide_fractions = st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, BIG))
# small numerators and denominators, so that sums and products collide
small_fractions = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6))
nonzero_fractions = st.builds(
    Fraction, st.integers(1, 40) | st.integers(-40, -1), st.integers(1, 40)
)


@st.composite
def progressions(draw):
    start = draw(nonzero_fractions)
    ratio = draw(nonzero_fractions)
    return {start * ratio ** k for k in range(draw(st.integers(0, 7)))}


operands = st.one_of(
    st.sets(wide_fractions, max_size=1),
    st.sets(wide_fractions, max_size=7),
    st.sets(small_fractions, max_size=8),
    progressions(),
).map(lambda vals: FSet(Q, vals))

LITERAL = {
    "sum": lambda x, y: x + y,
    "diff": lambda x, y: x - y,
    "prod": lambda x, y: x * y,
    "ratio": lambda x, y: x / y,
}


def without_zero(s: FSet) -> FSet:
    return FSet(Q, [v for v in s.vals if v != 0])


def literal_counts(a: FSet, b: FSet, fn) -> Counter:
    return Counter(fn(x, y) for x in a.vals for y in b.vals)


def assert_canonical(s: FSet, expected: set) -> None:
    assert s.vals == tuple(sorted(expected))
    assert all(type(v) is Fraction for v in s.vals)
    assert s.member_set() == frozenset(expected)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(a=operands, b=operands)
def test_combine_and_expander_match_literal_fractions(a, b):
    for op, fn in LITERAL.items():
        if op == "ratio" and 0 in b:
            with pytest.raises(DivisionByZero):
                combine(a, b, op)
            continue
        assert_canonical(combine(a, b, op), {fn(x, y) for x in a.vals for y in b.vals})
    assert_canonical(expander_set(a, b), {x * (y + 1) for x in a.vals for y in b.vals})


@settings(max_examples=100, derandomize=True, deadline=None)
@given(a=operands, b=operands)
def test_spectra_match_bruteforce_oracles(a, b):
    e_add = additive_energy_bruteforce(a, b)
    assert additive_energy(a, b) == e_add
    assert energy(histogram(a, b, "additive"), 2).exact == e_add
    assert histogram(a, b, "additive").total_support == len(combine(a, b, "sum"))

    a, b = without_zero(a), without_zero(b)
    e_mul = multiplicative_energy_bruteforce(a, b)
    assert multiplicative_energy(a, b) == e_mul
    for kind, op in (("product", "prod"), ("ratio", "ratio")):
        hist = histogram(a, b, kind)
        assert energy(hist, 2).exact == e_mul
        assert hist.total_support == len(combine(a, b, op))
        spectrum = Counter(literal_counts(a, b, LITERAL[op]).values())
        assert hist.entries == tuple(sorted(spectrum.items()))

    # sum_t |S_t| counts pairs and sum_t (2t - 1)|S_t| counts quadruples
    counts = literal_counts(a, b, LITERAL["prod"])
    rich = [rich_products(a, b, t) for t in range(1, min(len(a), len(b)) + 1)]
    for t, s_t in enumerate(rich, start=1):
        assert_canonical(s_t, {s for s, c in counts.items() if c >= t})
    assert sum(len(s_t) for s_t in rich) == len(a) * len(b)
    assert sum((2 * t - 1) * len(s_t) for t, s_t in enumerate(rich, start=1)) == e_mul


@settings(max_examples=80, derandomize=True, deadline=None)
@given(a=operands, b=operands, t=st.integers(1, 3))
# a recount that skipped the divisibility test would count 2 lines, not 1
@example(a=FSet(Q, [-2, 2]), b=FSet(Q, ["-5/3", "5/3", 2]), t=1)
def test_slope_family_and_recount_match_literal_fractions(a, b, t):
    a, b = without_zero(a), without_zero(b)
    alphas = {x * (y + 1) for x in a.vals for y in a.vals}
    family = literal_line_family(expander_set(a, a), b)
    assert list(family.lines) == sorted(
        {line_from_expander_params(alpha, bv) for alpha in alphas for bv in b.vals})
    assert all(line.provenance == (-line.m / line.c, -line.c) for line in family.lines)
    if t > min(len(a), len(b)):
        return
    res = st_lower_bound_check(a, b, t)
    assert res.family_size == len(family.lines)
    through = [sum(1 for bv in b.vals if x * (s + bv) / bv in alphas)
               for s in rich_products(a, b, t).vals for x in a.vals]
    assert res.min_lines_through_witness == min(through, default=0)
