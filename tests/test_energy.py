import random
from fractions import Fraction

import pytest

from expanderlab import (
    FieldCtx,
    FSet,
    additive_energy,
    energy,
    histogram,
    multiplicative_energy,
    rich_products,
    twisted_energy,
)
from expanderlab.energy import (
    additive_energy_bruteforce,
    energy_at,
    multiplicative_energy_bruteforce,
)
from expanderlab.errors import (
    AlphaOutOfRange,
    BudgetExceeded,
    PrecisionCapExceeded,
    TOutOfRange,
    ZeroElementPresent,
    ZeroTwist,
)
from helpers import contains_interval, random_pair, random_q_set, width

F5 = FieldCtx.prime(5)
F7 = FieldCtx.prime(7)
SUBGROUP = FSet(F7, [1, 2, 4])


def test_histogram_subgroup_ratio():
    hist = histogram(SUBGROUP, SUBGROUP, "ratio")
    assert hist.entries == ((3, 3),)
    assert hist.total_support == 3 and hist.pair_total == 9


def test_histogram_singleton():
    s = FSet(F7, [1])
    assert histogram(s, s, "ratio").entries == ((1, 1),)


def test_histogram_pair_identity_random():
    rng = random.Random(10)
    for _ in range(200):
        a, b = random_pair(rng, exclude=(0,), max_size=8)
        for kind in ("product", "ratio", "additive"):
            hist = histogram(a, b, kind)
            assert sum(m * c for m, c in hist.entries) == len(a) * len(b)
            assert sum(c for _, c in hist.entries) == hist.total_support
            assert max(m for m, _ in hist.entries) <= min(len(a), len(b))


def test_histogram_zero_guard():
    z = FSet(F7, [0, 1])
    with pytest.raises(ZeroElementPresent):
        histogram(z, z, "ratio")
    with pytest.raises(ZeroElementPresent):
        histogram(z, z, "product")
    histogram(z, z, "additive")  # fine


def test_energy_subgroup_values():
    hist = histogram(SUBGROUP, SUBGROUP, "ratio")
    assert energy(hist, 2).exact == 27
    assert energy(hist, 3).exact == 81


def test_energy_diagonal_lower_bound():
    rng = random.Random(11)
    for _ in range(30):
        a, _ = random_pair(rng, exclude=(0,), max_size=8)
        assert energy(histogram(a, a, "ratio"), 2).exact >= len(a) ** 2


def test_energy_fractional_enclosure():
    hist = histogram(SUBGROUP, SUBGROUP, "ratio")
    val = energy(hist, Fraction(3, 2))
    # 3 * 3^(3/2) = 9 * sqrt(3)
    assert val.lo ** 2 <= Fraction(243) <= val.hi ** 2 or not val.is_exact
    assert (val.hi - val.lo) * (1 << 64) < val.lo


def test_energy_exact_when_squares():
    ctx = FieldCtx.prime(13)
    a = FSet(ctx, [1, 3, 9])  # multiplicative subgroup of order 3... check m=3
    hist = histogram(a, a, "ratio")
    # entries are all multiplicity 3: not a perfect square, so interval
    v = energy(hist, Fraction(3, 2))
    assert not v.is_exact
    # craft a spectrum with square multiplicities via a singleton (m = 1)
    s = FSet(ctx, [2])
    exact = energy(histogram(s, s, "ratio"), Fraction(3, 2))
    assert exact.is_exact and exact.exact == 1


def test_energy_nesting_under_refinement():
    hist = histogram(SUBGROUP, SUBGROUP, "ratio")
    wide = energy_at(hist, Fraction(3, 2), 128)
    tight = energy_at(hist, Fraction(3, 2), 512)
    assert (wide.precision_bits, tight.precision_bits) == (128, 512)
    assert contains_interval(wide.interval, tight.interval)
    assert width(tight.interval) < width(wide.interval)


def test_energy_precision_cap():
    hist = histogram(SUBGROUP, SUBGROUP, "ratio")
    with pytest.raises(PrecisionCapExceeded) as exc:
        energy(hist, Fraction(3, 2), cap=16)
    assert exc.value.achieved is not None
    assert exc.value.achieved.lo <= exc.value.achieved.hi


def test_rich_products_examples():
    assert rich_products(SUBGROUP, SUBGROUP, 3).vals == (1, 2, 4)
    ab = rich_products(SUBGROUP, SUBGROUP, 1)
    from expanderlab import combine

    assert ab == combine(SUBGROUP, SUBGROUP, "prod")
    with pytest.raises(TOutOfRange):
        rich_products(SUBGROUP, SUBGROUP, 4)
    with pytest.raises(TOutOfRange):
        rich_products(SUBGROUP, SUBGROUP, 0)


def test_rich_products_monotone():
    rng = random.Random(12)
    for _ in range(20):
        a, b = random_pair(rng, exclude=(0,), max_size=8)
        t_max = min(len(a), len(b))
        prev = None
        for t in range(1, t_max + 1):
            cur = rich_products(a, b, t)
            if prev is not None:
                assert cur.is_subset(prev)
            prev = cur


def test_additive_energy_examples():
    a = FSet(F5, [0, 1])
    assert additive_energy(a, a) == 6
    full = FSet(F5, range(5))
    assert additive_energy(full, full) == 125
    rng = random.Random(13)
    for _ in range(20):
        x, y = random_pair(rng, exclude=(), max_size=6)
        assert additive_energy(x, y) >= len(x) * len(y)


def test_twisted_energy_examples():
    a = FSet(F5, [0, 1])
    assert twisted_energy(a, 1) == additive_energy(a, a) == 6
    full = FSet(F5, range(5))
    assert twisted_energy(full, 2) == 125
    with pytest.raises(ZeroTwist):
        twisted_energy(a, 0)
    rng = random.Random(14)
    for _ in range(20):
        x, _ = random_pair(rng, exclude=(), max_size=6)
        xi = random.Random(99).randint(1, x.ctx.p - 1)
        assert twisted_energy(x, xi) >= len(x) ** 2


def test_oracle_equivalence_small():
    rng = random.Random(15)
    for _ in range(25):
        a, b = random_pair(rng, exclude=(0,), max_size=7)
        assert energy(histogram(a, b, "product"), 2).exact == \
            multiplicative_energy_bruteforce(a, b)
        assert energy(histogram(a, b, "ratio"), 2).exact == \
            multiplicative_energy_bruteforce(a, b)
        assert additive_energy(a, b) == additive_energy_bruteforce(a, b)


def test_product_and_ratio_agree_at_two():
    rng = random.Random(16)
    for _ in range(30):
        a = random_q_set(rng, rng.randint(2, 7))
        b = random_q_set(rng, rng.randint(2, 7))
        assert energy(histogram(a, b, "product"), 2).exact == \
            energy(histogram(a, b, "ratio"), 2).exact == multiplicative_energy(a, b)


def test_oracle_gate():
    big = FSet(FieldCtx.prime(101), range(1, 30))
    with pytest.raises(BudgetExceeded):
        multiplicative_energy_bruteforce(big, big)
    multiplicative_energy_bruteforce(big, big, force=True)


def test_precision_cap_env_override(monkeypatch):
    from expanderlab.energy import precision_cap

    assert precision_cap() == 4096
    assert precision_cap(512) == 512
    monkeypatch.setenv("EXPANDERLAB_PRECISION_CAP", "8")
    assert precision_cap() == 8
    hist = histogram(SUBGROUP, SUBGROUP, "ratio")
    with pytest.raises(PrecisionCapExceeded):
        energy(hist, Fraction(3, 2))


def test_split_histogram():
    rng = random.Random(17)
    a, b = random_pair(rng, exclude=(0,), max_size=9)
    hist = histogram(a, b, "product")
    low, high = hist.split(2)
    assert all(m <= 2 for m, _ in low.entries)
    assert all(m > 2 for m, _ in high.entries)
    assert low.pair_total + high.pair_total == hist.pair_total
    assert low.total_support + high.total_support == hist.total_support


@pytest.mark.parametrize("alpha", [0, Fraction(1, 2), -3, Fraction(99, 100)])
def test_energy_rejects_alpha_below_one(alpha):
    hist = histogram(FSet(FieldCtx.prime(11), [1, 2, 3]), FSet(FieldCtx.prime(11), [1, 2, 3]),
                     "ratio")
    with pytest.raises(AlphaOutOfRange):
        energy(hist, alpha)
    with pytest.raises(ValueError):  # as before, for library callers
        energy(hist, alpha)
