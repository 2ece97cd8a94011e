import itertools
from fractions import Fraction

import pytest

from expanderlab import (
    ExtremalRecord,
    FieldCtx,
    SearchConfig,
    exhaustive_min,
    exponent_table,
    stochastic_search,
)
from expanderlab.search import candidate_pool, expander_size, reevaluate, write_csv
from expanderlab.errors import BudgetExceeded, DensityViolated, InvariantViolation, SetTooSmall


def brute_minimum(p, n):
    ctx = FieldCtx.prime(p)
    pool = [v for v in range(p) if v not in (0, p - 1)]
    return min(expander_size(ctx, c) for c in itertools.combinations(pool, n))


def test_pool_excludes_degenerate():
    cfg = SearchConfig(ctx=FieldCtx.prime(7), set_size=2)
    assert candidate_pool(cfg) == (1, 2, 3, 4, 5)
    cfg2 = SearchConfig(ctx=FieldCtx.prime(7), set_size=2, exclude_degenerate=False,
                        density_guard=False)
    assert candidate_pool(cfg2) == (0, 1, 2, 3, 4, 5, 6)


def test_exhaustive_p7_n2():
    cfg = SearchConfig(ctx=FieldCtx.prime(7), set_size=2)
    rec = exhaustive_min(cfg)
    assert rec.value == 3 == brute_minimum(7, 2)
    assert rec.witness.vals == (2, 4)
    assert rec.certified_min
    # {1, 5} also attains 3; the colex tie-break prefers {2, 4}
    assert expander_size(rec.witness.ctx, (1, 5)) == 3


def test_exhaustive_n1():
    cfg = SearchConfig(ctx=FieldCtx.prime(11), set_size=1)
    rec = exhaustive_min(cfg)
    assert rec.value == 1
    assert rec.exponent.is_point and rec.exponent.lo == 1


def test_exhaustive_rational_range():
    cfg = SearchConfig(ctx=FieldCtx.rational(), set_size=2, rational_range=(-10, 10))
    rec = exhaustive_min(cfg)
    assert rec.value == 3


def test_exhaustive_budget():
    cfg = SearchConfig(ctx=FieldCtx.prime(101), set_size=10, budget=100)
    with pytest.raises(BudgetExceeded):
        exhaustive_min(cfg)


def test_density_guard():
    cfg = SearchConfig(ctx=FieldCtx.prime(7), set_size=3)
    with pytest.raises(DensityViolated):
        exhaustive_min(cfg)
    off = SearchConfig(ctx=FieldCtx.prime(7), set_size=3, density_guard=False)
    exhaustive_min(off)


def test_pool_too_small():
    cfg = SearchConfig(ctx=FieldCtx.prime(5), set_size=4, density_guard=False)
    with pytest.raises(SetTooSmall):
        exhaustive_min(cfg)


def test_stochastic_deterministic():
    cfg = SearchConfig(ctx=FieldCtx.prime(53), set_size=4, mode="anneal",
                       seed=7, restarts=4, iteration_cap=150)
    r1 = stochastic_search(cfg)
    r2 = stochastic_search(cfg)
    assert r1 == r2
    assert not r1.certified_min


def test_stochastic_rediscovers_p7_minimum():
    for seed in (1, 2, 3):
        cfg = SearchConfig(ctx=FieldCtx.prime(7), set_size=2, mode="hillclimb",
                           seed=seed, restarts=5, iteration_cap=120)
        assert stochastic_search(cfg).value == 3


def test_stochastic_at_least_certified():
    cert = exhaustive_min(SearchConfig(ctx=FieldCtx.prime(23), set_size=3))
    for seed in (5, 9):
        got = stochastic_search(SearchConfig(ctx=FieldCtx.prime(23), set_size=3,
                                             mode="anneal", seed=seed,
                                             restarts=6, iteration_cap=200))
        assert got.value >= cert.value


def test_floor_invariant():
    for seed in (0, 1):
        cfg = SearchConfig(ctx=FieldCtx.prime(997), set_size=8, mode="hillclimb",
                           seed=seed, restarts=2, iteration_cap=60)
        rec = stochastic_search(cfg)
        assert rec.value >= 8
        assert reevaluate(rec)


def test_exponent_interval_encloses():
    cfg = SearchConfig(ctx=FieldCtx.prime(7), set_size=2)
    rec = exhaustive_min(cfg)
    assert rec.exponent.lo <= Fraction("1.5849625008") <= rec.exponent.hi + Fraction(1, 10 ** 9)
    assert float(rec.exponent.lo) == pytest.approx(1.58496, abs=1e-4)


def test_exponent_table_sorted_and_csv(tmp_path):
    recs = [
        exhaustive_min(SearchConfig(ctx=FieldCtx.prime(11), set_size=2)),
        exhaustive_min(SearchConfig(ctx=FieldCtx.prime(7), set_size=2)),
        exhaustive_min(SearchConfig(ctx=FieldCtx.rational(), set_size=2)),
    ]
    rows = exponent_table(recs)
    assert [r["p"] for r in rows] == ["7", "11", "Q"]
    path = tmp_path / "out.csv"
    write_csv(rows, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "p,n,value,exponent_lo,exponent_hi,certified,witness,seed"
    assert lines[1].startswith("7,2,3,")
    assert "true" in lines[1]


def test_reevaluation_detects_corruption():
    rec = exhaustive_min(SearchConfig(ctx=FieldCtx.prime(7), set_size=2))
    bad = ExtremalRecord(witness=rec.witness, value=rec.value + 1,
                         exponent=rec.exponent, certified_min=True,
                         seed=0, mode="exhaustive")
    with pytest.raises(InvariantViolation):
        exponent_table([bad])
