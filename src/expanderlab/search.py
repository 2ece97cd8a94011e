"""Extremal-set search: certified minima of |A(A+1)| by exhaustive
enumeration at tiny scale, and seeded hill-climbing / annealing at larger
scale.

All randomness flows from one explicit 64-bit seed through random.Random
(the stdlib Mersenne Twister); restart seeds are drawn up front from the
master generator and the restarts run one after another, so the result
depends on the seed alone.  Ties between witnesses of equal objective value
break toward the smaller element sum and then toward the colexicographically
smaller witness, i.e. the one whose largest element is smallest.
"""
from __future__ import annotations

import csv
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence, Tuple

from .errors import BudgetExceeded, DensityViolated, SetTooSmall
from .field import KIND_PRIME, FieldCtx
from .intervals import RatInterval, fraction_to_decimal, log_ratio_interval
from .sets import FSet

MODES = ("exhaustive", "hillclimb", "anneal")
_LOG_BITS = 128


@dataclass(frozen=True)
class SearchConfig:
    ctx: FieldCtx
    set_size: int
    mode: str = "exhaustive"
    seed: int = 0
    iteration_cap: int = 2000
    budget: int = 2_000_000
    restarts: int = 20
    initial_temp: float = 2.0
    cooling: float = 0.995
    exclude_degenerate: bool = True   # drop 0 and -1 from the candidate pool
    density_guard: bool = True        # enforce |A|^2 < p over prime fields
    rational_range: Tuple[int, int] = (-10, 10)

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown search mode {self.mode!r}")
        if self.set_size < 1:
            raise SetTooSmall("set size must be positive")
        if not 0 <= self.seed < 1 << 64:
            raise ValueError("seed must fit in 64 bits")


@dataclass(frozen=True)
class ExtremalRecord:
    witness: FSet
    value: int
    exponent: RatInterval
    certified_min: bool
    seed: int
    mode: str

    def to_row(self) -> dict:
        ctx = self.witness.ctx
        return {
            "p": str(ctx.p) if ctx.kind == KIND_PRIME else "Q",
            "n": len(self.witness),
            "value": self.value,
            "exponent_lo": fraction_to_decimal(self.exponent.lo, 15, "floor"),
            "exponent_hi": fraction_to_decimal(self.exponent.hi, 15, "ceil"),
            "certified": "true" if self.certified_min else "false",
            "witness": " ".join(ctx.render(v) for v in self.witness.vals),
            "seed": self.seed,
        }


def candidate_pool(cfg: SearchConfig) -> Tuple:
    """Admissible elements: the nonzero field (or the configured integer
    range), with 0 and -1 dropped unless degenerate sets were re-admitted."""
    ctx = cfg.ctx
    if ctx.kind == KIND_PRIME:
        pool = list(range(ctx.p))
    else:
        lo, hi = cfg.rational_range
        pool = [Fraction(v) for v in range(lo, hi + 1)]
    if cfg.exclude_degenerate:
        banned = {ctx.canon(0), ctx.canon(-1)}
        pool = [v for v in pool if v not in banned]
    if len(pool) < cfg.set_size:
        raise SetTooSmall(f"pool of {len(pool)} cannot host sets of size {cfg.set_size}")
    if cfg.density_guard and ctx.kind == KIND_PRIME and cfg.set_size ** 2 >= ctx.p:
        raise DensityViolated(f"|A|^2 = {cfg.set_size ** 2} >= p = {ctx.p}")
    return tuple(sorted(pool))


def expander_size(ctx: FieldCtx, vals: Sequence) -> int:
    if ctx.kind == KIND_PRIME:
        p = ctx.p
        return len({x * (y + 1) % p for x in vals for y in vals})
    return len({x * (y + 1) for x in vals for y in vals})


def _witness_key(vals: Tuple) -> Tuple:
    """Deterministic tie-break: smaller element sum first, then the witness
    compared from its largest element down (colexicographic)."""
    return (sum(vals), tuple(sorted(vals, reverse=True)))


def _exponent_interval(value: int, n: int) -> RatInterval:
    if value == n or n == 1:
        return RatInterval.point(1)
    return log_ratio_interval(value, n, _LOG_BITS)


def exhaustive_min(cfg: SearchConfig) -> ExtremalRecord:
    """Certified global minimum of |A(A+1)| over all admissible size-n sets."""
    pool = candidate_pool(cfg)
    n = cfg.set_size
    total = math.comb(len(pool), n)
    if total > cfg.budget:
        raise BudgetExceeded(f"{total} candidate sets exceed budget {cfg.budget}")
    ctx = cfg.ctx
    best = None
    for comb in itertools.combinations(pool, n):
        value = expander_size(ctx, comb)
        key = (value,) + _witness_key(comb)
        if best is None or key < best:
            best = key
    value = best[0]
    witness = FSet(ctx, sorted(best[2]))
    return ExtremalRecord(
        witness=witness,
        value=value,
        exponent=_exponent_interval(value, n),
        certified_min=True,
        seed=cfg.seed,
        mode="exhaustive",
    )


def _one_restart(cfg: SearchConfig, pool: Tuple, seed: int) -> Tuple:
    rng = random.Random(seed)
    ctx = cfg.ctx
    n = cfg.set_size
    current = sorted(rng.sample(pool, n))
    cur_val = expander_size(ctx, current)
    cur_key = (cur_val,) + _witness_key(tuple(current))
    best_key = cur_key
    temp = cfg.initial_temp
    anneal = cfg.mode == "anneal"
    for _ in range(cfg.iteration_cap):
        idx = rng.randrange(n)
        replacement = pool[rng.randrange(len(pool))]
        if replacement in current:
            temp *= cfg.cooling
            continue
        proposal = sorted(current[:idx] + current[idx + 1:] + [replacement])
        val = expander_size(ctx, proposal)
        key = (val,) + _witness_key(tuple(proposal))
        accept = key < cur_key
        if not accept and anneal and temp > 1e-9:
            delta = val - cur_val
            if delta > 0 and rng.random() < math.exp(-delta / temp):
                accept = True
        if accept:
            current, cur_val, cur_key = proposal, val, key
            if key < best_key:
                best_key = key
        temp *= cfg.cooling
    return best_key


def stochastic_search(cfg: SearchConfig) -> ExtremalRecord:
    """Best-found record under single-element-swap moves; fully seed-driven."""
    if cfg.mode not in ("hillclimb", "anneal"):
        raise ValueError("stochastic search needs mode hillclimb or anneal")
    pool = candidate_pool(cfg)
    master = random.Random(cfg.seed)
    seeds = [master.getrandbits(64) for _ in range(cfg.restarts)]
    best = min(_one_restart(cfg, pool, s) for s in seeds)
    value = best[0]
    witness = FSet(cfg.ctx, sorted(best[2]))
    return ExtremalRecord(
        witness=witness,
        value=value,
        exponent=_exponent_interval(value, cfg.set_size),
        certified_min=False,
        seed=cfg.seed,
        mode=cfg.mode,
    )


def reevaluate(record: ExtremalRecord) -> bool:
    """Independent recomputation of a record's objective value."""
    return expander_size(record.witness.ctx, record.witness.vals) == record.value


CSV_COLUMNS = ("p", "n", "value", "exponent_lo", "exponent_hi", "certified", "witness", "seed")


def exponent_table(records: Sequence[ExtremalRecord]) -> List[dict]:
    """Rows sorted by (p, n), prime fields before the rational line; stable."""
    if not records:
        raise ValueError("no records")
    for rec in records:
        if not reevaluate(rec):
            raise ValueError(f"record {rec} does not re-evaluate to its value")

    def sort_key(rec: ExtremalRecord):
        ctx = rec.witness.ctx
        return (0, ctx.p, len(rec.witness)) if ctx.kind == KIND_PRIME else (1, 0, len(rec.witness))

    return [rec.to_row() for rec in sorted(records, key=sort_key)]


def write_csv(rows: Sequence[dict], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
