import itertools
import tracemalloc
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
from expanderlab import search as search_mod
from expanderlab.search import candidate_pool, expander_size, reevaluate, write_csv
from expanderlab.errors import BudgetExceeded, DensityViolated, InvariantViolation, SetTooSmall
from helpers import is_point


def brute_minimum(p, n):
    ctx = FieldCtx.prime(p)
    pool = [v for v in range(p) if v not in (0, p - 1)]
    return min(expander_size(ctx, c) for c in itertools.combinations(pool, n))


def test_pool_excludes_degenerate():
    cfg = SearchConfig(ctx=FieldCtx.prime(7), set_size=2)
    assert candidate_pool(cfg) == range(1, 6)
    cfg2 = SearchConfig(ctx=FieldCtx.prime(7), set_size=2, exclude_degenerate=False,
                        density_guard=False)
    assert candidate_pool(cfg2) == range(7)


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
    assert is_point(rec.exponent) and rec.exponent.lo == 1


def test_exhaustive_rational_range():
    cfg = SearchConfig(ctx=FieldCtx.rational(), set_size=2, rational_range=(-10, 10))
    rec = exhaustive_min(cfg)
    assert rec.value == 3


def test_exhaustive_budget():
    cfg = SearchConfig(ctx=FieldCtx.prime(101), set_size=10, budget=100)
    with pytest.raises(BudgetExceeded):
        exhaustive_min(cfg)
    # C(5, 2) = 10 candidate sets over F_7: a budget of 10 admits them, 9 not
    assert exhaustive_min(SearchConfig(ctx=FieldCtx.prime(7), set_size=2, budget=10)).value
    with pytest.raises(BudgetExceeded, match="^10 candidate sets exceed budget 9$"):
        exhaustive_min(SearchConfig(ctx=FieldCtx.prime(7), set_size=2, budget=9))


def traced_peak(fn, *args):
    """fn(*args) (or what it raised) and the peak of memory it allocated."""
    tracemalloc.start()
    try:
        try:
            out = fn(*args)
        except BudgetExceeded as exc:
            out = exc
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_large_prime_pool_takes_no_memory():
    # a tuple of the p - 2 admissible residues would take about 97 MB
    ctx = FieldCtx.prime(2000003)
    cfg = SearchConfig(ctx=ctx, set_size=3, budget=5)
    err, peak = traced_peak(exhaustive_min, cfg)
    assert str(err) == "1333333333333000000 candidate sets exceed budget 5"
    assert peak < 100_000
    for mode in ("hillclimb", "anneal"):
        cfg = SearchConfig(ctx=ctx, set_size=3, mode=mode, seed=3, restarts=2,
                           iteration_cap=200)
        rec, peak = traced_peak(stochastic_search, cfg)
        assert rec.witness.vals == (4454, 12907, 20922) and rec.value == 9
        assert peak < 100_000
    assert candidate_pool(cfg) == range(1, 2000002)


def test_a_wide_rational_pool_takes_no_memory():
    # a tuple of the 2,000,000 admissible ints around the gap {-1, 0} peaked
    # at about 80 MB; the record is the one that tuple gave
    cfg = SearchConfig(ctx=FieldCtx.rational(), set_size=4, mode="hillclimb", seed=1,
                       restarts=1, iteration_cap=50, rational_range=(-10 ** 6, 10 ** 6))
    rec, peak = traced_peak(stochastic_search, cfg)
    assert rec.value == 16
    assert rec.witness.vals == (-940066, -882497, -806411, -774903)
    assert peak < 1_000_000
    pool = candidate_pool(cfg)
    assert len(pool) == 2 * 10 ** 6 - 1
    ends = (pool[0], pool[10 ** 6 - 2], pool[10 ** 6 - 1], pool[-1])
    assert ends == (-10 ** 6, -2, 1, 10 ** 6)


@pytest.mark.parametrize("p", [13, 1009])
@pytest.mark.parametrize("mode", ["exhaustive", "hillclimb", "anneal"])
@pytest.mark.parametrize("admit", [False, True])
def test_a_range_pool_searches_like_a_tuple(monkeypatch, p, mode, admit):
    cfg = SearchConfig(ctx=FieldCtx.prime(p), set_size=3 if p == 13 else 2, mode=mode,
                       seed=11, restarts=3, iteration_cap=300,
                       exclude_degenerate=not admit)
    search = exhaustive_min if mode == "exhaustive" else stochastic_search
    assert isinstance(candidate_pool(cfg), range)
    rec = search(cfg)
    monkeypatch.setattr(search_mod, "candidate_pool",
                        lambda cfg, budget=None: tuple(candidate_pool(cfg, budget)))
    assert search(cfg) == rec


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
