"""The F_p log-mask kernels against the pair kernel they stand in for.

`energy._mask_energy` and `verify._r6_masks` are called directly, not
through their dispatch, and compared with `multiplicative_energy` and the
`_pair_ints` R6 count.  The primes include p = 2, whose primitive root is
1, and primes with 64 | p - 1, whose masks end on a word boundary.  The
dispatch tests count the pairs `_pair_ints` forms, so a cost model that
sends a verify-sized instance back to the pair kernel fails here.
"""
import importlib
import random
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from expanderlab import FieldCtx, FSet, Instance, check, combine
from expanderlab import sets, verify
from expanderlab.energy import _mask_energy, e2, multiplicative_energy
from expanderlab.errors import ContextMismatch, ZeroElementPresent
from expanderlab.sets import DiscreteLog
from expanderlab.verify import _r6_masks, _r6_pairs
from helpers import Q

TINY = (2, 3, 5, 7)
WORD_EDGE = (193, 257, 641, 769)  # p - 1 = 3, 4, 10 and 12 words of 64 bits
PRIMES = TINY + (11, 13, 101) + WORD_EDGE


@st.composite
def unit_sets(draw, sizes=(12, 40)):
    """A prime and two subsets of F_p^* (either may be empty)."""
    p = draw(st.sampled_from(PRIMES))
    ctx = FieldCtx.prime(p)
    units = st.integers(1, p - 1)
    x = draw(st.sets(units, max_size=min(p - 1, sizes[0])))
    y = draw(st.sets(units, max_size=min(p - 1, sizes[1])))
    return FSet(ctx, x), FSet(ctx, y)


def units(p, vals):
    return FSet(FieldCtx.prime(p), vals)


@pytest.mark.parametrize("p", PRIMES)
def test_the_log_table_inverts_powers_of_a_primitive_root(p):
    logs = DiscreteLog(p)
    table = logs.log
    assert sorted(table[x] for x in range(1, p)) == list(range(p - 1))
    g = next(x for x in range(1, p) if table[x] == 1 % (p - 1)) if p > 2 else 1
    assert all(pow(g, table[x], p) == x for x in range(1, p))


def test_f2_has_primitive_root_one():
    logs = DiscreteLog(2)
    assert logs.log[1] == 0
    assert logs.mask(units(2, [1])) == 1
    assert _mask_energy(units(2, [1]), units(2, [1]), logs) == 1


@pytest.mark.parametrize("p", PRIMES)
def test_masks_rotate_as_sets_dilate(p):
    logs = DiscreteLog(p)
    rng = random.Random(p)
    s = units(p, rng.sample(range(1, p), min(p - 1, 9)))
    everything = units(p, range(1, p))
    full = (1 << (p - 1)) - 1
    assert logs.mask(everything) == full
    assert logs.mask(units(p, [])) == 0
    for v, row in zip(everything.vals, logs.rotations(logs.mask(s), everything)):
        assert row == logs.mask(units(p, [v * x for x in s.vals]))
    # 1 has log 0: rotating by it is the identity
    assert logs.rotations(logs.mask(s), units(p, [1])) == [logs.mask(s)]
    assert logs.rotations(full, everything) == [full] * (p - 1)


@given(unit_sets())
@example((units(2, []), units(2, [1])))
@example((units(193, [1]), units(193, range(1, 193))))
@example((units(257, range(1, 257)), units(257, [1, 256])))
def test_mask_energy_matches_the_pair_kernel(pair):
    x, y = pair
    logs = DiscreteLog(x.ctx.p)
    expected = multiplicative_energy(x, y)
    assert _mask_energy(x, y, logs) == expected
    assert _mask_energy(y, x, logs) == expected


@given(unit_sets(sizes=(20, 20)), st.data())
@example((units(2, [1]), units(2, [1])), None)
@example((units(7, []), units(7, [3])), None)
@example((units(257, range(1, 257)), units(257, [3, 5, 256])), None)
def test_r6_masks_match_the_pair_count(pair, data):
    a, b = pair
    ratios = combine(a, b, "ratio")
    # any set of units in place of A/B: the kernels count the same pairs
    if data is not None:
        ratios = units(a.ctx.p, data.draw(st.sets(st.integers(1, a.ctx.p - 1), max_size=30)))
    logs = DiscreteLog(a.ctx.p)
    assert _r6_masks(a, ratios, b, logs) == _r6_pairs(a, ratios, b)
    assert _r6_masks(b, ratios, a, logs) == _r6_pairs(b, ratios, a)
    full = combine(a, b, "ratio")
    assert _r6_masks(a, full, b, logs) == _r6_pairs(a, full, b) == len(a) * len(b)


@given(unit_sets(sizes=(12, 12)), st.booleans())
def test_zero_raises_what_the_pair_kernel_raises(pair, first):
    x, y = pair
    with_zero = lambda s: units(s.ctx.p, s.vals + (0,))
    if first:
        x = with_zero(x)
    else:
        y = with_zero(y)
    logs = DiscreteLog(x.ctx.p)
    with pytest.raises(ZeroElementPresent) as pair_error:
        multiplicative_energy(x, y)
    with pytest.raises(ZeroElementPresent) as mask_error:
        _mask_energy(x, y, logs)
    assert str(mask_error.value) == str(pair_error.value)
    for args in ((x, y, y), (y, x, y), (y, y, x)):
        with pytest.raises(ZeroElementPresent):
            _r6_masks(*args, logs)


def test_kernels_refuse_sets_of_another_field():
    logs = DiscreteLog(13)
    a, b = units(13, [2, 3]), units(11, [2, 3])
    for args in ((a, b), (b, b)):
        with pytest.raises(ContextMismatch):
            _mask_energy(*args, logs)
    for args in ((a, a, b), (a, b, a), (b, a, a)):
        with pytest.raises(ContextMismatch):
            _r6_masks(*args, logs)
    with pytest.raises(ContextMismatch):
        logs.mask(FSet(Q, [2]))


@given(unit_sets(sizes=(40, 120)))
def test_e2_takes_either_path_to_the_same_energy(pair):
    x, y = pair
    logs = DiscreteLog(x.ctx.p)
    assert e2(x, y, logs) == e2(y, x, logs) == multiplicative_energy(x, y)


# -- the dispatch --------------------------------------------------------------------------

def count_pairs(monkeypatch):
    """Every `_pair_ints` pass, as (op, |a| * |b|), in each module that calls it."""
    passes = []
    real = sets._pair_ints

    def spy(a, b, op):
        passes.append((op, len(a) * len(b)))
        return real(a, b, op)

    # the package's `energy` attribute is the function of that name
    for module in (sets, importlib.import_module("expanderlab.energy"), verify):
        monkeypatch.setattr(module, "_pair_ints", spy)
    return passes


def test_a_verify_sized_instance_makes_no_full_pair_pass(monkeypatch):
    rng = random.Random(40009)
    ctx = FieldCtx.prime(40009)
    a = FSet(ctx, rng.sample(range(2, 40008), 100))
    b = FSet(ctx, rng.sample(range(2, 40008), 100))
    inst = Instance(a)
    aa1 = inst.aa1  # one pass over A x A
    passes = count_pairs(monkeypatch)
    inst.e2_a_aa1
    inst.e2_a1_aa1
    assert passes == []
    check("R6", A=inst, B=b)
    # A/B from one pass over A x B, and no pass over A/B x B
    assert passes == [("ratio", 100 * 100)]
    del passes[:]
    check("R5", A=inst, B=b)
    # A·B and the ratio spectra of A and B, each one pass over 100 x 100 pairs
    assert sorted(passes) == [("prod", 100 * 100)] + [("ratio", 100 * 100)] * 2
    assert len(aa1) * len(a) > 50 * 100 * 100


def test_q_and_small_sets_stay_on_the_pair_kernel(monkeypatch):
    p101 = FieldCtx.prime(101)
    instances = [
        (FSet(p101, [3, 5, 9, 11, 17, 23]), FSet(p101, [2, 7, 13, 19])),
        (FSet(Q, [2, 3, 5, Fraction(7, 2), Fraction(-3, 2), Fraction(4, 3)]),
         FSet(Q, [2, Fraction(5, 3), -2, 6])),
    ]
    for a, b in instances:
        inst = Instance(a)
        aa1, ratios = inst.aa1, combine(a, b, "ratio")
        passes = count_pairs(monkeypatch)
        inst.e2_a_aa1
        assert passes == [("prod", len(a) * len(aa1))]
        del passes[:]
        check("R6", A=inst, B=b)
        assert passes == [("ratio", len(a) * len(b)), ("prod", len(ratios) * len(b))]
        monkeypatch.undo()


@pytest.mark.parametrize("p, n", [(29, 12), (193, 16), (1009, 30)])
def test_reports_are_the_same_on_either_kernel(monkeypatch, p, n):
    rng = random.Random(p)
    ctx = FieldCtx.prime(p)
    a = FSet(ctx, rng.sample(range(2, p - 1), n))
    b = FSet(ctx, rng.sample(range(1, p), n // 2))
    names = ("R3", "R4", "R5", "R6", "R11")

    def reports():
        inst = Instance(a)
        return [check(name, A=inst, B=b).to_json() for name in names]

    masked = reports()
    for module in (importlib.import_module("expanderlab.energy"), verify):
        monkeypatch.setattr(module, "mask_steps", lambda *args: float("inf"))
    assert reports() == masked
