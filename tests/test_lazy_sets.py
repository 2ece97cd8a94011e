"""The lazy canonical form of `FSet` and the Q int form of the pair kernel.

A pair-kernel result keeps its kernel ints until its values are read, and
over Q the kernel reads each operand's int form, whose scale need not be
the LCD of the values.  Each test here compares a kernel-built set with the
same values built from scratch by `FSet(ctx, values)`: every observation of
the set itself, and every reader that puts its own scaled ints next to
kernel output.  Every kernel-built set is made fresh for the reading it is
compared on, since the first reading builds the canonical form.
"""
import dataclasses
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from expanderlab import FSet, FieldCtx, check, st_lower_bound_check
from expanderlab import sets
from expanderlab.energy import e2, histogram
from expanderlab.errors import ExpanderlabError
from expanderlab.field import KIND_PRIME
from expanderlab.sets import (
    COMBINE_OPS,
    _from_ints,
    _lcd,
    affine_image,
    combine,
    expander_set,
    kfold_size,
    sumset_size,
    translate,
)
from expanderlab.verify import Instance, _r6_pairs
from helpers import Q

LAZY_FIELDS = (FieldCtx.prime(2), FieldCtx.prime(5), FieldCtx.prime(1009), Q)


def outcome(fn, *args):
    """The result of fn(*args), or the type and message of what it raised."""
    try:
        return fn(*args)
    except ExpanderlabError as exc:
        return type(exc), str(exc)


# -- the lazy form against the eager one --------------------------------------------

def kernel_ints(ctx, ks, factor):
    """The kernel ints and scale of a set of `ks` (mod p over F_p; over Q the
    values k/factor), as the pair kernel would hand them to `_from_ints`."""
    if ctx.kind == KIND_PRIME:
        return [k % ctx.p for k in ks], 1
    return list(ks), factor


@pytest.mark.parametrize("ctx", LAZY_FIELDS, ids=repr)
@settings(max_examples=40, deadline=None)
@given(ks=st.lists(st.integers(-40, 40), max_size=6),
       factor=st.integers(1, 6),
       other=st.lists(st.integers(-40, 40), max_size=6))
@example(ks=[], factor=1, other=[])
@example(ks=[], factor=3, other=[1])
@example(ks=[7], factor=1, other=[])
@example(ks=[7], factor=4, other=[7, 8])
def test_kernel_built_set_reads_as_the_eager_set(ctx, ks, factor, other):
    ints, scale = kernel_ints(ctx, ks, factor)
    eager = FSet(ctx, [Fraction(k, scale) for k in ints] if scale > 1 else ints)

    def lazy():
        return _from_ints(ctx, iter(ints), scale)

    other_ints, other_scale = kernel_ints(ctx, other, factor)
    others = (FSet(ctx, [Fraction(k, other_scale) for k in other_ints]),
              _from_ints(ctx, other_ints, other_scale))
    extra = [ctx.p - 1, ctx.p + 1] if ctx.kind == KIND_PRIME else [Fraction(1, 7), "-2/3"]
    probes = list(eager.vals) + list(others[0].vals) + [0, 1] + extra

    assert lazy() == eager and eager == lazy()
    assert hash(lazy()) == hash(eager)
    assert lazy().vals == eager.vals
    assert len(lazy()) == len(eager)
    assert [v in lazy() for v in probes] == [v in eager for v in probes]
    assert list(lazy()) == list(eager)
    assert repr(lazy()) == repr(eager)
    assert lazy().to_json() == eager.to_json()
    assert lazy().member_set() == eager.member_set()
    for o in others:
        assert lazy().intersection(o).vals == eager.intersection(o).vals
        assert o.intersection(lazy()) == o.intersection(eager)
        assert lazy().is_subset(o) == eager.is_subset(o)
        assert o.is_subset(lazy()) == o.is_subset(eager)
    # one set read in every way, in turn, still reads the same
    s = lazy()
    assert (len(s), s.vals, len(s), s == eager, [v in s for v in probes]) == (
        len(eager), eager.vals, len(eager), True, [v in eager for v in probes])


@pytest.mark.parametrize("ctx", (FieldCtx.prime(1009), Q), ids=repr)
def test_expander_set_size_builds_no_canonical_form(ctx, monkeypatch):
    a = FSet(ctx, [2, 3, 5, 7, 11, 13] if ctx.kind == KIND_PRIME
             else [2, 3, Fraction(5, 2), Fraction(7, 3), 11])
    a._int_form()  # the operand's own forms are not the result's
    made = []
    real = sets.Fraction
    monkeypatch.setattr(sets, "Fraction", lambda *args: made.append(args) or real(*args))
    aa1 = expander_set(a, a)
    size = len(aa1)
    assert made == []  # no Fraction
    assert aa1._vals is None  # no sorted tuple
    if ctx.kind != KIND_PRIME:
        assert aa1._members is None and aa1._ints is None
    assert size == len(FSet(ctx, expander_set(a, a).vals))


def test_verify_all_never_sorts_the_fp_expander_set():
    # E2(A, A(A+1)) and E2(A+1, A(A+1)) run on the slot convolution, which
    # reads the members; the rest of R2-R4 and R10-R14 reads only |A(A+1)|
    ctx = FieldCtx.prime(1009)
    inst = Instance(FSet(ctx, range(2, 60, 3)))
    for name in ("R2", "R3", "R4", "R10", "R11", "R12", "R13", "R14"):
        check(name, A=inst)
    assert inst.aa1._vals is None


# -- kernel-built sets against Fraction-built sets over Q ------------------------------

nonzero = st.builds(Fraction, st.integers(-6, 6).filter(bool), st.integers(1, 6))
q_values = st.lists(nonzero, min_size=1, max_size=4, unique=True)


@st.composite
def q_sets(draw):
    """A recipe for one set over Q with no 0: a function that builds it afresh
    through the pair kernel, with the same set built from its values.  The
    kernel either scales the values by their LCD times 2 to 6, or forms a
    product, ratio or expander set of two Fraction-built sets."""
    xs = FSet(Q, draw(q_values))
    route = draw(st.sampled_from(("scaled", "prod", "ratio", "expand")))
    if route == "scaled":
        scale = _lcd(xs.vals) * draw(st.integers(2, 6))
        ints = [int(v * scale) for v in xs.vals]
        fresh = lambda: _from_ints(Q, ints, scale)  # noqa: E731
    else:
        ys = FSet(Q, draw(q_values.filter(lambda vs: -1 not in vs)))
        if route == "expand":
            fresh = lambda: expander_set(xs, ys)  # noqa: E731
        else:
            fresh = lambda: combine(xs, ys, route)  # noqa: E731
    return fresh, FSet(Q, fresh().vals)


def agree(fn, a, b):
    """fn reads the same on every mix of kernel-built and Fraction-built
    operands; each kernel-built one is made afresh."""
    (fa, ea), (fb, eb) = a, b
    want = outcome(fn, ea, eb)
    assert outcome(fn, fa(), fb()) == want
    assert outcome(fn, fa(), eb) == want
    assert outcome(fn, ea, fb()) == want
    return want


def fields_of(res) -> tuple:
    return tuple(getattr(res, f.name) for f in dataclasses.fields(res))


@settings(max_examples=80, deadline=None)
@given(q_sets(), q_sets(), st.integers(1, 4))
def test_rich_point_check_reads_the_kernel_int_form(a, b, t):
    want = agree(lambda x, y: fields_of(st_lower_bound_check(x, y, min(t, len(x), len(y)))),
                 a, b)
    assert isinstance(want[0], FSet)  # certified, every field compared


@settings(max_examples=60, deadline=None)
@given(q_sets(), q_sets())
def test_r6_pairs_reads_the_kernel_int_form(a, b):
    (fa, ea), (fb, eb) = a, b
    want = _r6_pairs(ea, FSet(Q, combine(ea, eb, "ratio").vals), eb)
    assert want == len(ea) * len(eb)
    assert _r6_pairs(fa(), combine(fa(), fb(), "ratio"), fb()) == want
    assert _r6_pairs(fa(), combine(ea, eb, "ratio"), eb) == want
    assert _r6_pairs(ea, combine(fa(), fb(), "ratio"), fb()) == want


@settings(max_examples=60, deadline=None)
@given(q_sets(), q_sets(), st.lists(st.sampled_from((1, -1)), min_size=1, max_size=3))
def test_sizes_read_the_kernel_int_form(a, b, signs):
    for op in ("sum", "diff"):
        agree(lambda x, y: sumset_size(x, y, op), a, b)
    fa, ea = a
    assert kfold_size(fa(), signs) == kfold_size(ea, signs)


@settings(max_examples=60, deadline=None)
@given(q_sets(), q_sets())
def test_energies_and_combine_read_the_kernel_int_form(a, b):
    agree(lambda x, y: e2(x, y, None), a, b)
    for kind in ("product", "ratio", "additive"):
        agree(lambda x, y: histogram(x, y, kind), a, b)
    for op in COMBINE_OPS:
        agree(lambda x, y: combine(x, y, op).vals, a, b)


# -- translates over Q kept as kernel ints ----------------------------------------------

shifts = st.one_of(st.integers(-5, 5),
                   st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6)))


def assert_translate_reads_as_affine_image(make, y):
    """translate(make(), y) reads as affine_image(make(), 1, y) on every
    reader: ==, hash, vals, len, the int form, and membership of 0, 1 and
    -1, which `_exclude` reads; each translate is made afresh for the
    reading, since the first reading builds the canonical form."""
    want = affine_image(make(), 1, y)

    def got():
        return translate(make(), y)

    assert got() == want and want == got()
    assert hash(got()) == hash(want)
    assert got().vals == want.vals
    assert len(got()) == len(want)
    assert [v in got() for v in (0, 1, -1)] == [v in want for v in (0, 1, -1)]
    ints, scale = got()._int_form()
    assert tuple(Fraction(k, scale) for k in ints) == want.vals
    # the int form is the operand's, shifted at its scale, when y*scale is an int
    a_ints, a_scale = make()._int_form()
    kernel = (y * a_scale).denominator == 1
    assert (got()._members is None) == kernel
    if kernel:
        assert (ints, scale) == (tuple(k + int(y * a_scale) for k in a_ints), a_scale)
    return want


@settings(max_examples=80, deadline=None)
@given(q_sets(), shifts)
def test_q_translate_reads_as_affine_image(a, y):
    fresh, eager = a
    assert_translate_reads_as_affine_image(fresh, y)
    assert_translate_reads_as_affine_image(lambda: FSet(Q, eager.vals), y)


def test_q_translate_of_kernel_built_expander_set():
    a = FSet(Q, [2, 3, Fraction(5, 2), Fraction(-7, 3), 11])
    inst = Instance(a)
    assert inst.a1._members is None  # A+1 as kernel ints
    assert inst.a1 == FSet(Q, [v + 1 for v in a.vals])
    for y in (1, Fraction(-1, 6), Fraction(1, 72)):
        assert_translate_reads_as_affine_image(lambda: Instance(a).aa1, y)


def test_q_translate_falls_back_for_a_non_integral_shift():
    a = FSet(Q, [1, 2, 5])  # scale 1, so y * scale = 1/2 is not an int
    want = assert_translate_reads_as_affine_image(lambda: FSet(Q, [1, 2, 5]), Fraction(1, 2))
    assert want.vals == (Fraction(3, 2), Fraction(5, 2), Fraction(11, 2))
    assert translate(a, Fraction(1, 2))._members is not None


@pytest.mark.parametrize("p", (2, 5, 1009))
def test_fp_translate_is_the_affine_image(p):
    ctx = FieldCtx.prime(p)
    a = FSet(ctx, range(0, p, 3))
    for y in (0, 1, p - 1, 7):
        assert translate(a, y).vals == affine_image(a, 1, y).vals
