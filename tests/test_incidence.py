import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from expanderlab import (
    FSet,
    FieldCtx,
    Line,
    count_incidences,
    expander_set,
    rich_products,
    st_lower_bound_check,
)
from expanderlab.errors import (
    DuplicateInput,
    FieldMismatch,
    TOutOfRange,
    ZeroElementPresent,
)
from helpers import Q, literal_line_family, random_q_set

F = Fraction
GRID = [(F(x), F(y)) for x in range(3) for y in range(3)]


def test_grid_horizontal_lines():
    lines = [Line.slope_intercept(0, c) for c in range(3)]
    assert count_incidences(GRID, lines) == 9


def test_empty_lines():
    assert count_incidences(GRID, []) == 0


def test_grid_axis_parallel():
    lines = [Line.slope_intercept(0, c) for c in range(3)]
    lines += [Line.vertical_at(c) for c in range(3)]
    assert count_incidences(GRID, lines) == 18


def test_duplicate_inputs_rejected():
    with pytest.raises(DuplicateInput):
        count_incidences([(F(0), F(0)), (F(0), F(0))], [])
    with pytest.raises(DuplicateInput):
        count_incidences(GRID, [Line.slope_intercept(0, 0), Line.slope_intercept(0, 0)])


def test_methods_agree_on_randoms():
    rng = random.Random(30)
    for _ in range(40):
        pts = {(F(rng.randint(-5, 5), rng.randint(1, 3)),
                F(rng.randint(-5, 5), rng.randint(1, 3))) for _ in range(12)}
        lines = {Line.slope_intercept(F(rng.randint(-3, 3), rng.randint(1, 2)),
                                      F(rng.randint(-3, 3)))
                 for _ in range(8)}
        lines |= {Line.vertical_at(F(rng.randint(-2, 2)))}
        # count_incidences cross-checks per-point and per-line internally
        count_incidences(sorted(pts), sorted(lines))


def test_family_single_line():
    a = FSet(Q, [1])  # A(A+1) = {2}
    b = FSet(Q, [1])
    fam = literal_line_family(expander_set(a, a), b)
    assert len(fam.lines) == 1
    (line,) = fam.lines
    assert line.m == 2 and line.c == -1 and not fam.duplicates
    assert st_lower_bound_check(a, b, 1).family_size == 1


def test_family_two_by_four():
    a = FSet(Q, [2, 3])
    fam = literal_line_family(expander_set(a, a), a)
    assert fam.expected_size == 8
    assert len(fam.lines) == 8
    assert not fam.duplicates
    # provenance retained
    assert all(l.provenance is not None for l in fam.lines)
    assert st_lower_bound_check(a, a, 1).family_size == 8


def test_family_distinct_for_fixed_b():
    a = FSet(Q, [2, 5, 7])
    fam = literal_line_family(expander_set(a, a), a)
    assert st_lower_bound_check(a, a, 1).family_size == len(fam.lines)
    by_b = {}
    for line in fam.lines:
        by_b.setdefault(line.provenance[1], set()).add(line.m)
    for b, slopes in by_b.items():
        assert len(slopes) == len({l.provenance[0] for l in fam.lines
                                   if l.provenance[1] == b})


def test_family_guards():
    with pytest.raises(ZeroElementPresent):
        st_lower_bound_check(FSet(Q, [2]), FSet(Q, [0, 1]), 1)
    fp = FieldCtx.prime(7)
    with pytest.raises(FieldMismatch):
        st_lower_bound_check(FSet(fp, [1, 2]), FSet(fp, [1, 2]), 1)


def test_st_lower_bound_basic():
    a = FSet(Q, [2, 3])
    res = st_lower_bound_check(a, a, 1)
    assert res.s_t.vals == (F(4), F(6), F(9))
    assert res.witness_count == 6
    assert res.min_lines_through_witness >= 1


def test_st_lower_bound_singleton():
    a = FSet(Q, [3])
    res = st_lower_bound_check(a, FSet(Q, [2, 5]), 1)
    assert res.witness_count == len(res.s_t) * 1


def test_st_lower_bound_higher_t():
    a = FSet(Q, [2, 3, 4, 6])
    res = st_lower_bound_check(a, a, 2)
    # 12 = 2*6 = 3*4 = 4*3 = 6*2 has four representations
    assert F(12) in res.s_t.member_set()
    assert res.witness_count == len(res.s_t) * len(a)


def test_st_lower_bound_random():
    rng = random.Random(32)
    for _ in range(25):
        a = random_q_set(rng, rng.randint(2, 6), exclude=(0,), num_range=8, den_range=2)
        b = random_q_set(rng, rng.randint(2, 6), exclude=(0,), num_range=8, den_range=2)
        t = rng.randint(1, min(len(a), len(b)))
        res = st_lower_bound_check(a, b, t)
        assert res.witness_count == len(res.s_t) * len(a)


nonzero_q = st.builds(F, st.integers(1, 9) | st.integers(-9, -1), st.integers(1, 4))
q_sets = st.sets(nonzero_q, min_size=1, max_size=6).map(lambda v: FSet(Q, v))


@settings(max_examples=60, deadline=None)
@given(q_sets, q_sets)
@example(FSet(Q, [F(-1, 2), F(1, 2), 2, -2]), FSet(Q, [F(1, 2), F(-1, 2), 4, -4]))
def test_st_lower_bound_s_t_is_the_rich_product_set(a, b):
    # S_t is read off the product representations, not recounted
    for t in range(1, min(len(a), len(b)) + 1):
        assert st_lower_bound_check(a, b, t).s_t == rich_products(a, b, t)
    for t in (0, min(len(a), len(b)) + 1):
        with pytest.raises(TOutOfRange, match=f"t = {t} outside"):
            st_lower_bound_check(a, b, t)


def test_st_lower_bound_fp_refused():
    fp = FieldCtx.prime(7)
    with pytest.raises(FieldMismatch):
        st_lower_bound_check(FSet(fp, [1, 2]), FSet(fp, [1, 2]), 1)
