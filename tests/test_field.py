import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expanderlab import FieldCtx, is_prime
from expanderlab.errors import (
    ContextMismatch,
    DivisionByZero,
    MissingModulus,
    NonPrimeModulus,
)


def test_prime_context_construction():
    ctx = FieldCtx.prime(7)
    assert ctx.kind == "fp" and ctx.p == 7


def test_composite_modulus_rejected():
    with pytest.raises(NonPrimeModulus):
        FieldCtx.prime(6)


def test_missing_modulus():
    with pytest.raises(MissingModulus):
        FieldCtx("fp")


def test_rational_context():
    ctx = FieldCtx.rational()
    assert ctx.kind == "q"
    with pytest.raises(ContextMismatch):
        FieldCtx("q", 7)


def test_elem_arith_examples():
    ctx = FieldCtx.prime(7)
    assert ctx.mul(3, 5) == 1
    q = FieldCtx.rational()
    assert q.div(q.canon(1), q.canon(2)) == Fraction(1, 2)
    with pytest.raises(DivisionByZero):
        ctx.div(4, 0)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_field_axioms_exhaustive(p):
    ctx = FieldCtx.prime(p)
    elems = list(range(p))
    for a, b, c in itertools.product(elems, repeat=3):
        assert ctx.add(ctx.add(a, b), c) == ctx.add(a, ctx.add(b, c))
        assert ctx.mul(ctx.mul(a, b), c) == ctx.mul(a, ctx.mul(b, c))
        assert ctx.mul(a, ctx.add(b, c)) == ctx.add(ctx.mul(a, b), ctx.mul(a, c))
    for a in elems[1:]:
        assert ctx.mul(a, ctx.div(1, a)) == 1
        assert ctx.div(1, a) == pow(a, -1, p)


@settings(max_examples=100, derandomize=True)
@given(
    a=st.fractions(max_denominator=50),
    b=st.fractions(max_denominator=50),
    c=st.fractions(max_denominator=50),
)
def test_rational_axioms(a, b, c):
    ctx = FieldCtx.rational()
    assert ctx.add(ctx.add(a, b), c) == ctx.add(a, ctx.add(b, c))
    assert ctx.mul(a, ctx.add(b, c)) == ctx.add(ctx.mul(a, b), ctx.mul(a, c))
    if a != 0:
        assert ctx.mul(a, ctx.div(1, a)) == 1


def test_parse_render_roundtrip_fp():
    ctx = FieldCtx.prime(13)
    for v in range(13):
        assert ctx.parse(ctx.render(v)) == v


@settings(max_examples=100, derandomize=True)
@given(x=st.fractions(max_denominator=1000))
def test_parse_render_roundtrip_q(x):
    ctx = FieldCtx.rational()
    v = ctx.canon(x)
    assert ctx.parse(ctx.render(v)) == v


def test_fraction_embedding_mod_p():
    ctx = FieldCtx.prime(7)
    assert ctx.canon(Fraction(1, 2)) == 4  # 2 * 4 = 8 = 1 mod 7
    with pytest.raises(DivisionByZero):
        ctx.canon(Fraction(1, 7))


def test_is_prime():
    assert is_prime(2) and is_prime(97) and is_prime((1 << 61) - 1)
    assert not is_prime(1) and not is_prime(561) and not is_prime(1 << 10)
    # above the deterministic range
    assert is_prime(2 ** 89 - 1)
    assert not is_prime((2 ** 89 - 1) * 3)
