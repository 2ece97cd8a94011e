"""Extremal-set search: certified minima of |A(A+1)| by exhaustive
enumeration at tiny scale, and seeded hill-climbing / annealing at larger
scale.

All randomness flows from one explicit 64-bit seed through random.Random
(the stdlib Mersenne Twister); restart seeds are drawn up front from the
master generator and the restarts run one after another, so the result
depends on the seed alone.  Ties between witnesses of equal objective value
break toward the smaller element sum and then toward the colexicographically
smaller witness, i.e. the one whose largest element is smallest.

Both modes count each candidate incrementally.  A candidate is a rest R of
n - 1 elements plus one element z, and of its n^2 products x(y+1) only the
2n - 1 that involve z are new: |R(R+1)| + |{z(y+1), x(z+1), z(z+1) : x, y in
R} - R(R+1)|.  A single-element swap keeps the rest, so a restart caches R,
R+1 and R(R+1) for each swap index until a move is accepted; exhaustive
enumeration builds them once per (n-1)-prefix and extends it by every later
pool element.  The pool is plain ints in both fields, because the rational
pool is an integer range; there the products are reduced modulo a number
larger than twice their largest absolute value, which keeps them distinct, so
one residue count serves F_p and Q.  Witnesses map back through ctx.canon,
and `reevaluate` recounts them independently with the pair kernel.
"""
from __future__ import annotations

import csv
import itertools
import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import (
    BudgetExceeded,
    DensityViolated,
    InvalidSearchConfig,
    InvariantViolation,
    SetTooSmall,
)
from .field import KIND_PRIME, FieldCtx
from .intervals import RatInterval, fraction_to_decimal, log_ratio_interval
from .sets import FSet, expander_set

MODES = ("exhaustive", "hillclimb", "anneal")
_LOG_BITS = 128
INITIAL_TEMP = 2.0   # anneal temperature at the start of each restart
COOLING = 0.995      # factor applied to the temperature after every proposal


@dataclass(frozen=True)
class SearchConfig:
    ctx: FieldCtx
    set_size: int
    mode: str = "exhaustive"
    seed: int = 0
    iteration_cap: int = 2000
    budget: int = 2_000_000
    restarts: int = 20
    exclude_degenerate: bool = True   # drop 0 and -1 from the candidate pool
    density_guard: bool = True        # enforce |A|^2 < p over prime fields
    rational_range: Tuple[int, int] = (-10, 10)

    def __post_init__(self):
        if self.mode not in MODES:
            raise InvalidSearchConfig(f"unknown search mode {self.mode!r}")
        if self.set_size < 1:
            raise SetTooSmall("set size must be positive")
        if not 0 <= self.seed < 1 << 64:
            raise InvalidSearchConfig(f"seed {self.seed} does not lie in [0, 2^64)")
        if self.restarts < 1:
            raise InvalidSearchConfig(f"restarts must be at least 1, got {self.restarts}")
        if self.iteration_cap < 0:
            raise InvalidSearchConfig(
                f"iteration cap must be non-negative, got {self.iteration_cap}")
        if self.budget < 0:
            raise InvalidSearchConfig(f"budget must be non-negative, got {self.budget}")


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


def candidate_pool(cfg: SearchConfig, budget: Optional[int] = None) -> Sequence[int]:
    """Admissible elements as ints, ascending: the field's residues (or the
    configured integer range), with 0 and -1 dropped unless degenerate sets
    were re-admitted.  Over F_p those are the ends of range(p), so the pool is
    a range and takes constant memory at any p.

    The pool's size is known before it is built: with a `budget`, the
    C(size, n) candidate sets of an exhaustive search are checked against it
    first, and BudgetExceeded raised before any pool exists."""
    ctx = cfg.ctx
    if ctx.kind == KIND_PRIME:
        full = range(ctx.p)
        banned = {0, ctx.p - 1}
    else:
        lo, hi = cfg.rational_range
        full = range(lo, hi + 1)
        banned = {0, -1}
    banned = {v for v in banned if v in full} if cfg.exclude_degenerate else set()
    size = len(full) - len(banned)
    if size < cfg.set_size:
        raise SetTooSmall(f"pool of {size} cannot host sets of size {cfg.set_size}")
    if cfg.density_guard and ctx.kind == KIND_PRIME and cfg.set_size ** 2 >= ctx.p:
        raise DensityViolated(f"|A|^2 = {cfg.set_size ** 2} >= p = {ctx.p}")
    if budget is not None:
        total = math.comb(size, cfg.set_size)
        if total > budget:
            raise BudgetExceeded(f"{total} candidate sets exceed budget {budget}")
    if not banned:
        return full
    if ctx.kind == KIND_PRIME:  # 0 and p - 1 are the ends of range(p)
        return full[1:-1]
    return tuple(v for v in full if v not in banned)


def expander_size(ctx: FieldCtx, vals: Sequence) -> int:
    """|A(A+1)| of the set of vals, counted by the pair kernel."""
    w = FSet(ctx, vals)
    return len(expander_set(w, w))


def _modulus(ctx: FieldCtx, pool: Sequence[int]) -> int:
    """p over F_p; over Q a modulus under which the products x(y+1) of pool
    elements stay distinct: they lie in [-k(k+1), k(k+1)], k = max |v|."""
    if ctx.kind == KIND_PRIME:
        return ctx.p
    k = max(abs(v) for v in pool)
    return 2 * k * (k + 1) + 1


_Rest = Tuple[List[int], List[int], frozenset]


def _rest(vals: List[int], m: int) -> _Rest:
    """A rest R with R+1 and the residues mod m of R(R+1), ready to be
    extended by one element."""
    shifted = [y + 1 for y in vals]
    # frozenset of a set, not of a list: the copy's table is sized to fit, half
    # the size of one grown element by element, and up to n rests are cached
    return vals, shifted, frozenset({x * y1 % m for x in vals for y1 in shifted})


def _size_with(rest: _Rest, z: int, m: int) -> int:
    """|(R + z)(R + z + 1)| from the 2|R| + 1 products that involve z."""
    vals, shifted, products = rest
    z1 = z + 1
    new = {z * z1 % m}
    for y1 in shifted:  # plain loops: a comprehension costs a frame per call
        new.add(z * y1 % m)
    for x in vals:
        new.add(x * z1 % m)
    return len(products) + len(new - products)


def _witness_key(vals: Sequence) -> Tuple:
    """Deterministic tie-break: smaller element sum first, then the witness
    compared from its largest element down (colexicographic)."""
    return (sum(vals), tuple(sorted(vals, reverse=True)))


def _exponent_interval(value: int, n: int) -> RatInterval:
    if value == n or n == 1:
        return RatInterval.point(1)
    return log_ratio_interval(value, n, _LOG_BITS)


def exhaustive_min(cfg: SearchConfig) -> ExtremalRecord:
    """Certified global minimum of |A(A+1)| over all admissible size-n sets."""
    pool = candidate_pool(cfg, cfg.budget)
    n = cfg.set_size
    m = _modulus(cfg.ctx, pool)
    best = (n * n + 1,)  # above every key: no size-n set has more than n^2 products
    for prefix in itertools.combinations(range(len(pool) - 1), n - 1):
        rest = _rest([pool[i] for i in prefix], m)
        # islice, not a slice: a fresh tuple per prefix, of many sizes, raised peak RSS
        for z in itertools.islice(pool, prefix[-1] + 1 if prefix else 0, None):
            value = _size_with(rest, z, m)
            if value <= best[0]:
                key = (value,) + _witness_key(rest[0] + [z])
                if key < best:
                    best = key
    value = best[0]
    witness = FSet(cfg.ctx, best[2])
    return ExtremalRecord(
        witness=witness,
        value=value,
        exponent=_exponent_interval(value, n),
        certified_min=True,
        seed=cfg.seed,
        mode="exhaustive",
    )


def _one_restart(cfg: SearchConfig, pool: Sequence[int], m: int, seed: int) -> Tuple:
    rng = random.Random(seed)
    n = cfg.set_size
    current = sorted(rng.sample(pool, n))
    cur_val = _size_with(_rest(current[1:], m), current[0], m)
    cur_key = (cur_val,) + _witness_key(current)
    best_key = cur_key
    temp = INITIAL_TEMP
    anneal = cfg.mode == "anneal"
    rests: Dict[int, _Rest] = {}  # swap index -> rest of `current`; cleared on every move
    for _ in range(cfg.iteration_cap):
        idx = rng.randrange(n)
        replacement = pool[rng.randrange(len(pool))]
        if replacement in current:
            temp *= COOLING
            continue
        rest = rests.get(idx)
        if rest is None:
            rest = rests[idx] = _rest(current[:idx] + current[idx + 1:], m)
        val = _size_with(rest, replacement, m)
        # a larger value is a larger key, so only an anneal draw can take an uphill move
        uphill = val > cur_val
        if uphill and not (anneal and temp > 1e-9
                           and rng.random() < math.exp(-(val - cur_val) / temp)):
            temp *= COOLING
            continue
        proposal = sorted(rest[0] + [replacement])
        key = (val,) + _witness_key(proposal)
        if uphill or key < cur_key:
            current, cur_val, cur_key = proposal, val, key
            rests.clear()
            if key < best_key:
                best_key = key
        temp *= COOLING
    return best_key


def stochastic_search(cfg: SearchConfig) -> ExtremalRecord:
    """Best-found record under single-element-swap moves; fully seed-driven."""
    if cfg.mode not in ("hillclimb", "anneal"):
        raise InvalidSearchConfig("stochastic search needs mode hillclimb or anneal")
    pool = candidate_pool(cfg)
    m = _modulus(cfg.ctx, pool)
    master = random.Random(cfg.seed)
    seeds = [master.getrandbits(64) for _ in range(cfg.restarts)]
    best = min(_one_restart(cfg, pool, m, s) for s in seeds)
    value = best[0]
    witness = FSet(cfg.ctx, best[2])
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
            raise InvariantViolation(f"record {rec} does not re-evaluate to its value")

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
