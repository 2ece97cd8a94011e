"""The F_p search kernels against their oracles.

- `_draw_below` against `random.Random.randrange`, draw for draw.
- The discrete-log mask count (`_mask_rest`, `_mask_size_with`) against the
  residue count `_size_with` and the pair kernel `expander_size`, including
  masks at 64-bit word boundaries and empty or singleton rests.
- The rests a restart derives from its set's doubled masks (`_mask_without`)
  and the masks it keeps after a move (`_mask_join`) against those built
  from scratch by `_mask_rest` and `helpers.log_mask`.
- The orbit-halved `exhaustive_min` against the brute-force minimum of
  (value, sum, colex) over every set of the pool, on either kernel.
- The dispatch `_kernel`: no log table where the residue set is chosen,
  and on a mid-size prime the log table, read by every move's count.
"""
import itertools
import random
import sys
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from expanderlab import FieldCtx, SearchConfig, exhaustive_min, search, stochastic_search
from expanderlab.search import (
    _draw_below,
    _kernel,
    _mask_join,
    _mask_logs,
    _mask_rest,
    _mask_size_with,
    _mask_without,
    _rest,
    _rest_join,
    _rest_without,
    _size_with,
    candidate_pool,
    expander_size,
)
from expanderlab.sets import DiscreteLog, FSet
from helpers import log_mask

Q = FieldCtx.rational()


# -- the draws -------------------------------------------------------------------

@pytest.mark.parametrize("seed", [0, 1, 7, 2 ** 32 + 5, 2 ** 64 - 1])
def test_draw_below_is_randrange(seed):
    # the same rejection loop as randrange(k) on CPython 3.11.7; a change in
    # how randrange draws shows here before it moves a search record
    ours, theirs = random.Random(seed), random.Random(seed)
    draw = ours.getrandbits
    for k in range(1, 5001):
        assert _draw_below(draw, k, k.bit_length()) == theirs.randrange(k)
    assert ours.getstate() == theirs.getstate()


# -- the mask count against the residue count and the pair kernel ---------------

# word boundaries: p - 1 = 60, 66, 192 = 3 * 64 and 256 bits
MASK_PRIMES = [5, 7, 13, 61, 67, 193, 257, 1009]


@st.composite
def mask_cases(draw):
    """A prime, a rest R of 0 to 12 elements and an element z outside R,
    all drawn from the default pool 1..p-2."""
    p = draw(st.sampled_from(MASK_PRIMES))
    members = draw(st.lists(st.integers(1, p - 2), min_size=1,
                            max_size=min(13, p - 2), unique=True))
    return p, sorted(members[1:]), members[0]


@settings(max_examples=300, deadline=None)
@given(mask_cases())
@example((5, [], 1))
@example((5, [3], 2))
@example((7, [1, 5], 2))
@example((61, [], 59))
@example((193, [1, 191], 96))
@example((257, [255], 1))
def test_mask_count_matches_residues_and_pair_kernel(case):
    p, rest, z = case
    logs = _mask_logs(p)
    mask_rest, residue_rest = _mask_rest(rest, logs), _rest(rest, p)
    _, _, _, count, free = mask_rest
    assert count == (free ^ (1 << p - 1) - 1).bit_count() == len(residue_rest[2])
    assert free >> (p - 1) == 0
    value = expander_size(FieldCtx.prime(p), rest + [z])
    assert _mask_size_with(mask_rest, z, logs) == _size_with(residue_rest, z, p) == value


# -- rests derived from a set's masks against rests built from scratch ----------

def doubled_masks(p, vals):
    """(D_S, D_{S+1}) of S = vals from `helpers.log_mask`."""
    ctx = FieldCtx.prime(p)
    masks = (log_mask(FSet(ctx, vals)), log_mask(FSet(ctx, [v + 1 for v in vals])))
    return tuple(m | m << (p - 1) for m in masks)


@st.composite
def sets_and_moves(draw):
    """A prime with p - 1 tiny or a multiple of 64 bits, a set S of n
    elements of the default pool 1..p-2, a swap index i and an element r
    outside S."""
    p = draw(st.sampled_from([5, 7, 193, 257]))
    n = draw(st.sampled_from([n for n in (1, 2, 12) if n < p - 2]))
    members = draw(st.lists(st.integers(1, p - 2), min_size=n + 1, max_size=n + 1,
                            unique=True))
    return p, sorted(members[1:]), draw(st.integers(0, n - 1)), members[0]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(sets_and_moves())
@example((5, [3], 0, 1))
@example((5, [1, 3], 1, 2))
@example((7, [5], 0, 1))
@example((7, [1, 2], 0, 5))
@example((193, [191], 0, 1))
@example((193, list(range(180, 192)), 11, 1))
@example((257, [1, 255], 1, 128))
@example((257, list(range(1, 13)), 0, 255))
def test_derived_rest_and_moved_masks_match_scratch(case):
    p, current, i, r = case
    logs = _mask_logs(p)
    summary = _mask_join(_mask_rest(current[1:], logs), current[0], logs)
    assert summary == doubled_masks(p, current)
    rest = _mask_without(summary, current, i, logs)
    assert rest == _mask_rest(current[:i] + current[i + 1:], logs)
    moved = sorted(rest[0] + [r])
    summary = _mask_join(rest, r, logs)
    assert summary == _mask_rest(moved, logs)[1:3] == doubled_masks(p, moved)
    # the rest a restart keeps after the move is that of `moved` at r's index
    assert _mask_without(summary, moved, moved.index(r), logs) == rest


# -- exhaustive search over orbits against brute force ---------------------------

def brute_min(cfg):
    pool = candidate_pool(cfg)
    return min((expander_size(cfg.ctx, c), sum(c), tuple(sorted(c, reverse=True)))
               for c in itertools.combinations(pool, cfg.set_size))


def residue_kernel(cfg, pool, candidates):
    return _rest, _size_with, cfg.ctx.p, _rest_without, _rest_join


def mask_kernel(cfg, pool, candidates):
    return _mask_rest, _mask_size_with, _mask_logs(cfg.ctx.p), _mask_without, _mask_join


# every n the pool admits, on each kernel; masks need the pool without 0 and -1
ORBIT_CASES = [(p, n, admit, kernel) for p in (2, 3, 5, 7, 11, 13) for admit in (False, True)
               for n in range(1, p + 1 if admit else p - 1)
               for kernel in ((residue_kernel,) if admit else (residue_kernel, mask_kernel))]


@pytest.mark.parametrize("p,n,admit,kernel", ORBIT_CASES)
def test_orbit_exhaustive_matches_brute_force(p, n, admit, kernel):
    cfg = SearchConfig(ctx=FieldCtx.prime(p), set_size=n, exclude_degenerate=not admit,
                       density_guard=False)
    with mock.patch.object(search, "_kernel", kernel):
        rec = exhaustive_min(cfg)
    value, total, colex = brute_min(cfg)
    assert (rec.value, sum(rec.witness.vals), rec.witness.vals) == (
        value, total, tuple(sorted(colex)))


# -- the dispatch ------------------------------------------------------------------

def counting_log_tables():
    """A patch of DiscreteLog.log that records the prime of every table built."""
    built = []
    table = DiscreteLog.log.func

    def log(self):
        built.append(self.p)
        return table(self)
    return built, mock.patch.object(DiscreteLog, "log", property(log))


@pytest.mark.parametrize("cfg", [
    SearchConfig(ctx=FieldCtx.prime(1000003), set_size=12, mode="hillclimb", seed=11,
                 restarts=2, iteration_cap=200),
    SearchConfig(ctx=Q, set_size=5, mode="anneal", seed=2, restarts=2, iteration_cap=100),
    SearchConfig(ctx=Q, set_size=3, rational_range=(-8, 8)),
    SearchConfig(ctx=FieldCtx.prime(1009), set_size=10, mode="hillclimb", seed=1,
                 restarts=2, iteration_cap=100, exclude_degenerate=False),
], ids=["p=1000003", "Q-anneal", "Q-exhaustive", "admit-degenerate"])
def test_residue_searches_build_no_log_table(cfg):
    built, patch = counting_log_tables()
    with patch:
        assert _kernel(cfg, candidate_pool(cfg), 10 ** 6)[1] is _size_with
        (exhaustive_min if cfg.mode == "exhaustive" else stochastic_search)(cfg)
    assert built == []


class CountedShifts(list):
    """A shift table of `_mask_logs` that counts the lookups made by a mask
    count, inline in `_one_restart` or in `_mask_size_with`; the rest builds
    read it too, but are not counted."""

    counting = (search._one_restart.__code__, _mask_size_with.__code__)

    def __init__(self, shifts):
        super().__init__(shifts)
        self.lookups = 0

    def __getitem__(self, i):
        if sys._getframe(1).f_code in self.counting:
            self.lookups += 1
        return super().__getitem__(i)


def test_mid_size_prime_search_takes_masks():
    cfg = SearchConfig(ctx=FieldCtx.prime(1009), set_size=10, mode="hillclimb", seed=3,
                       restarts=2)
    tables = []

    def counted_logs(p):
        shift, *rest = _mask_logs(p)
        tables.append(CountedShifts(shift))
        return (tables[-1], *rest)

    built, patch = counting_log_tables()
    with patch, mock.patch.object(search, "_mask_logs", counted_logs):
        rec = stochastic_search(cfg)
    assert built == [1009]
    # the moves counted: on the residue set, one `_size_with` call per restart
    # and one per move, and the same moves, since both count the same values
    counts = []

    def residue_count(rest, z, m):
        counts.append(z)
        return _size_with(rest, z, m)
    with mock.patch.object(search, "_kernel", lambda cfg, pool, candidates: (
            _rest, residue_count, cfg.ctx.p, _rest_without, _rest_join)):
        assert stochastic_search(cfg) == rec
    moves = len(counts) - cfg.restarts
    assert moves > cfg.restarts
    # every move's count, not just the first, reads log z and log(z + 1)
    [shifts] = tables
    assert shifts.lookups >= 2 * moves
    assert expander_size(rec.witness.ctx, rec.witness.vals) == rec.value
