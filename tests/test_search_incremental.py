"""Differential tests of the incremental candidate count in `search`.

A candidate is a rest R plus one element z, counted from the 2|R| + 1
products that involve z.  The count is checked against `expander_size` (the
pair kernel), and `exhaustive_min` / `stochastic_search` against literal
copies of the loops that rebuilt all n^2 products of every candidate.  The
sha256 pins of `to_row()` were recorded with those loops.
"""
import hashlib
import itertools
import json
import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from expanderlab import FieldCtx, SearchConfig, exhaustive_min, search, stochastic_search
from expanderlab.errors import InvalidSearchConfig
from expanderlab.field import KIND_PRIME
from expanderlab.search import (
    _modulus,
    _rest,
    _size_with,
    candidate_pool,
    expander_size,
)

Q = FieldCtx.rational()


# -- the loops before the incremental count, copied literally ------------------

def old_candidate_pool(cfg):
    ctx = cfg.ctx
    if ctx.kind == KIND_PRIME:
        pool = list(range(ctx.p))
    else:
        lo, hi = cfg.rational_range
        pool = [Fraction(v) for v in range(lo, hi + 1)]
    if cfg.exclude_degenerate:
        banned = {ctx.canon(0), ctx.canon(-1)}
        pool = [v for v in pool if v not in banned]
    return tuple(sorted(pool))


def old_expander_size(ctx, vals):
    if ctx.kind == KIND_PRIME:
        p = ctx.p
        return len({x * (y + 1) % p for x in vals for y in vals})
    return len({x * (y + 1) for x in vals for y in vals})


def old_witness_key(vals):
    return (sum(vals), tuple(sorted(vals, reverse=True)))


def old_exhaustive_min(cfg):
    pool = old_candidate_pool(cfg)
    n = cfg.set_size
    ctx = cfg.ctx
    best = None
    for comb in itertools.combinations(pool, n):
        value = old_expander_size(ctx, comb)
        key = (value,) + old_witness_key(comb)
        if best is None or key < best:
            best = key
    return best


def old_one_restart(cfg, pool, seed):
    rng = random.Random(seed)
    ctx = cfg.ctx
    n = cfg.set_size
    current = sorted(rng.sample(pool, n))
    cur_val = old_expander_size(ctx, current)
    cur_key = (cur_val,) + old_witness_key(tuple(current))
    best_key = cur_key
    temp = search.INITIAL_TEMP
    anneal = cfg.mode == "anneal"
    for _ in range(cfg.iteration_cap):
        idx = rng.randrange(n)
        replacement = pool[rng.randrange(len(pool))]
        if replacement in current:
            temp *= search.COOLING
            continue
        proposal = sorted(current[:idx] + current[idx + 1:] + [replacement])
        val = old_expander_size(ctx, proposal)
        key = (val,) + old_witness_key(tuple(proposal))
        accept = key < cur_key
        if not accept and anneal and temp > 1e-9:
            delta = val - cur_val
            if delta > 0 and rng.random() < math.exp(-delta / temp):
                accept = True
        if accept:
            current, cur_val, cur_key = proposal, val, key
            if key < best_key:
                best_key = key
        temp *= search.COOLING
    return best_key


def old_stochastic_search(cfg):
    pool = old_candidate_pool(cfg)
    master = random.Random(cfg.seed)
    seeds = [master.getrandbits(64) for _ in range(cfg.restarts)]
    return min(old_one_restart(cfg, pool, s) for s in seeds)


def assert_matches(rec, key):
    assert rec.value == key[0]
    assert rec.witness.vals == tuple(sorted(key[2]))


# -- the incremental count against the pair kernel ----------------------------

@st.composite
def rests_and_extensions(draw):
    """A field, its candidate pool, a rest R and an element z outside R.

    Prime fields include p = 2 and 3; 0 and -1 may be members; rational pools
    are integer ranges with negative members."""
    if draw(st.booleans()):
        p = draw(st.sampled_from([2, 3, 5, 7, 13, 101, 1000003]))
        ctx = FieldCtx.prime(p)
        pool = range(p) if p < 200 else range(p - 100, p)
    else:
        ctx = Q
        lo = draw(st.integers(-1000, 0))
        pool = range(lo, draw(st.integers(lo, 40)) + 1)
    members = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=13, unique=True))
    z, rest = members[0], sorted(members[1:])
    if draw(st.booleans()) and ctx.kind == KIND_PRIME:
        rest = sorted(set(rest) | {0, ctx.p - 1} - {z})
    return ctx, tuple(pool), rest, z


@settings(max_examples=300, deadline=None)
@given(rests_and_extensions())
@example((FieldCtx.prime(2), (0, 1), [1], 0))
@example((FieldCtx.prime(3), (0, 1, 2), [0, 2], 1))
@example((Q, tuple(range(-3, 2)), [-1, 0], -3))
@example((Q, (0,), [], 0))
def test_incremental_count_matches_pair_kernel(case):
    ctx, pool, rest, z = case
    m = _modulus(ctx, pool)
    assert len(_rest(rest + [z], m)[2]) == expander_size(ctx, rest + [z])
    assert _size_with(_rest(rest, m), z, m) == expander_size(ctx, rest + [z])


def test_rational_pool_is_integral():
    cfg = SearchConfig(ctx=Q, set_size=2, rational_range=(-3, 2))
    pool = candidate_pool(cfg)
    assert tuple(pool) == (-3, -2, 1, 2)
    assert all(type(v) is int for v in pool)
    assert tuple(candidate_pool(cfg)) == old_candidate_pool(cfg)


# -- whole searches against the old loops -------------------------------------

fields = st.one_of(
    st.sampled_from([2, 3, 5, 7, 11, 13, 29, 53]).map(FieldCtx.prime),
    st.just(Q),
)


@settings(max_examples=60, deadline=None)
@given(ctx=fields, n=st.integers(1, 4), admit=st.booleans(),
       lo=st.integers(-9, 0), width=st.integers(0, 14))
def test_exhaustive_matches_old_loop(ctx, n, admit, lo, width):
    cfg = SearchConfig(ctx=ctx, set_size=n, exclude_degenerate=not admit,
                       density_guard=False, rational_range=(lo, lo + width))
    pool = old_candidate_pool(cfg)
    if len(pool) < n:
        return
    assert_matches(exhaustive_min(cfg), old_exhaustive_min(cfg))


@settings(max_examples=60, deadline=None)
@given(ctx=st.one_of(fields, st.sampled_from([101, 997, 4999]).map(FieldCtx.prime)),
       mode=st.sampled_from(["hillclimb", "anneal"]), seed=st.integers(0, 2 ** 64 - 1),
       n=st.integers(1, 12), admit=st.booleans(), restarts=st.integers(1, 3),
       iterations=st.integers(0, 250), temp=st.sampled_from([0.0, 0.5, 2.0, 8.0]),
       cooling=st.sampled_from([0.9, 0.995, 1.0]))
def test_stochastic_matches_old_loop(ctx, mode, seed, n, admit, restarts, iterations,
                                     temp, cooling):
    # both loops read the schedule from the module, so patch it there
    cfg = SearchConfig(ctx=ctx, set_size=n, mode=mode, seed=seed, restarts=restarts,
                       iteration_cap=iterations, exclude_degenerate=not admit,
                       density_guard=False)
    if len(old_candidate_pool(cfg)) < n:
        return
    with mock.patch.object(search, "INITIAL_TEMP", temp), \
            mock.patch.object(search, "COOLING", cooling):
        assert_matches(stochastic_search(cfg), old_stochastic_search(cfg))


# -- sha256 pins of to_row(), recorded with the old loops ---------------------

PINNED = [
    ("exhaustive", 7, 2, 0, {},
     "d882522466578ebb3fbb9ea8e4da2503a8dcafe5546dde66dfd111475efd312b"),
    ("exhaustive", 23, 3, 0, {},
     "b145c6049305e1e80022a36bfe27b36077d80d38d093120bebb9bf15ed5baee7"),
    ("exhaustive", 31, 4, 5, {},
     "0a2c9feda6d11704fbb1bc8d15454f0b18e8688bcfe36150729e45fe0992ca47"),
    ("exhaustive", None, 4, 0, {"rational_range": (-6, 10)},
     "5085dfe2bbd212a11b28f94a376b579eaeb936be12c67ad52ad18f417e5ea27a"),
    ("exhaustive", None, 3, 0, {"rational_range": (-10, 10), "exclude_degenerate": False},
     "d9b106671f3f33fbd096aa2bb6c04d0d42825e923048d2e7bf28dfa1dc524c41"),
    ("exhaustive", 11, 3, 0, {"exclude_degenerate": False, "density_guard": False},
     "00b5d16831add972ad78f38f31d3b67f09f855160213aadc5e89e1f62a61de86"),
    ("exhaustive", 2, 1, 0, {"exclude_degenerate": False, "density_guard": False},
     "cdb5633d1e3244ff69e07cdef9dc01812886a36e1ea9a6c195e40a0f8adfd9d4"),
    ("exhaustive", 3, 2, 0, {"exclude_degenerate": False, "density_guard": False},
     "2ea8061eff57111c0318ceb1311f2c573b0535b2a95e90a75091d5df4a40ef30"),
    ("exhaustive", 13, 1, 0, {},
     "19568eaf0929cdbdf484eba1118334294b231361a5eddc86dedae105634c8f40"),
    ("hillclimb", 997, 8, 1, {"restarts": 3, "iteration_cap": 300},
     "7500974fab2504e68cf5f7062414572a8024e6bd65a24ed8124ebba017d7b388"),
    ("hillclimb", None, 5, 2, {"restarts": 3, "iteration_cap": 300, "rational_range": (-9, 7)},
     "6435720ea5a2b984c3e0e4878ba6c6248b89a9235cad40f65701959e1497372e"),
    ("hillclimb", 53, 5, 7, {"restarts": 4, "iteration_cap": 200, "exclude_degenerate": False,
                             "density_guard": False},
     "2b0fe4dbca9e3f8c537df2f2e8421fbc45cb64187986159dffe7c0564ab17d7c"),
    ("hillclimb", 1000003, 12, 11, {"restarts": 2, "iteration_cap": 200},
     "3c1410916288857f1f3cac370a9f96129ebbcc305cb9d0669059d7a7866c5ae8"),
    ("anneal", 1009, 10, 3, {"restarts": 2, "iteration_cap": 400},
     "9fab94dbd85fa237a63c6e5a0cbc98cb2ff4b521893b53625964b31a1fc2aa56"),
    ("anneal", None, 6, 4, {"restarts": 3, "iteration_cap": 300, "rational_range": (-8, 8),
                            "exclude_degenerate": False},
     "82b535a8315175446530f5e1a1600585a133f90945ac2bed45bb51b371ad00f1"),
    ("anneal", 101, 9, 5, {"restarts": 3, "iteration_cap": 300, "exclude_degenerate": False,
                           "density_guard": False},
     "e8a9072fca807ef33f95c95c1088659853f78fa7aaffed0c7381d5f7ac57ed71"),
    ("anneal", 4999, 12, 2 ** 64 - 1, {"restarts": 2, "iteration_cap": 500},
     "c713b95ba64104654faf874a68c0715c1c739c1d1475a580e309df48b8c6c01e"),
]


@pytest.mark.parametrize("mode,p,n,seed,extra,digest", PINNED)
def test_record_rows_pinned(mode, p, n, seed, extra, digest):
    ctx = Q if p is None else FieldCtx.prime(p)
    cfg = SearchConfig(ctx=ctx, set_size=n, mode=mode, seed=seed, **extra)
    rec = exhaustive_min(cfg) if mode == "exhaustive" else stochastic_search(cfg)
    row = json.dumps(rec.to_row(), sort_keys=True).encode()
    assert hashlib.sha256(row).hexdigest() == digest


@pytest.mark.parametrize("bad", [
    {"mode": "sideways"}, {"seed": -1}, {"seed": 2 ** 64}, {"restarts": 0},
    {"iteration_cap": -1}, {"budget": -1},
])
def test_bad_config_is_an_expanderlab_error(bad):
    with pytest.raises(InvalidSearchConfig):
        SearchConfig(ctx=FieldCtx.prime(53), set_size=3, **bad)
