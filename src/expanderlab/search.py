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
2n - 1 that involve z are new.  Exhaustive enumeration builds one rest per
(n-1)-prefix and extends it by every later pool element, unless |R(R+1)|
is already above the best value found: z only adds products, so none of
the rest's candidates can reach the best.  A rest whose count equals the
best is still extended, since its candidates may tie and win on the
witness key.  A restart caches each swap index's rest of its current set S
in a list indexed by swap index, and tests a drawn element against a set
of S's members; when a move x -> z is accepted, the rest just counted is
exactly the new set minus z, so it is kept as the new set's rest at z's
sorted index and the others are dropped.  On masks the restart makes the
count of `_mask_size_with` inline, its expression copied into the loop,
so that counting a candidate makes no call; the residue count stays a
call.  Two kernels count a candidate, and one is chosen per search:

- the residue set (`_rest`, `_size_with`): R, R+1 and the residues of
  R(R+1), and |R(R+1)| + |{z(y+1), x(z+1), z(z+1) : x, y in R} - R(R+1)|.
  The pool is plain ints in both fields, because the rational pool is an
  integer range; there the products are reduced modulo a number larger than
  twice their largest absolute value, which keeps them distinct, so one
  residue count serves F_p and Q.  A residue set cannot give a product
  back, so each rest is built afresh.  The rest keeps |R(R+1)| at the
  same index as a mask rest does, where exhaustive search reads it.
- discrete-log masks over F_p (`_mask_rest`, `_mask_size_with`): a subset
  of F_p^* is the (p-1)-bit int with bit log(x) set for each member x,
  the logs read from `sets.DiscreteLog`, and its doubled mask
  D = M | M << (p - 1) turns a rotation by log z into one shift.  A rest
  holds D_R, D_{R+1}, |R(R+1)| and the complement of R(R+1) in F_p^*; the
  candidate's value is |R(R+1)| plus the popcount of z(R+1), R(z+1) and
  the bit of z(z+1) ANDed with that complement.  A restart also keeps
  D_S and D_{S+1}: the rest S - x clears the two bits of x in one and of
  x + 1 in the other (`_mask_without`), so only its n - 1 product shifts
  are made anew, and after a move the new set's masks are the kept rest's
  with the bits of z and z + 1 set (`_mask_join`).  Every log must exist,
  so it needs the default pool, which drops 0 and -1.

`_kernel` takes the masks over F_p with 0 and -1 excluded when their cost,
in the pair steps of `sets.mask_steps` (the log table plus a few passes
over (p-1)-bit ints per candidate), is below that of the 2n - 1 residue
products per candidate; so small p and large n take masks, large p (where a
pass outgrows the products) and Q or `--admit-degenerate` the residue set.

Over F_p, x -> -1 - x maps A(A+1) onto itself, since (-1-a)(-b) = b(a+1),
and maps both pools onto themselves; min + max of A and of its mirror sum
to 2p - 2.  So exhaustive search enumerates only the sets with
min + max <= p - 1, one or both members of every orbit, and compares the
witness keys of both.  The rational pool is not symmetric, and is
enumerated directly.  Witnesses map back through ctx.canon, and
`reevaluate` recounts them independently with the pair kernel.
"""
from __future__ import annotations

import csv
import itertools
import math
import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .errors import (
    BudgetExceeded,
    DensityViolated,
    InvalidSearchConfig,
    InvariantViolation,
    SetTooSmall,
)
from .field import KIND_PRIME, FieldCtx
from .intervals import RatInterval, fraction_to_decimal, log_ratio_interval
from .sets import DiscreteLog, FSet, expander_set, mask_steps

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


class _TwoRanges(Sequence[int]):
    """The ints of one range, then those of a second: a range with a gap
    cut out, in constant memory.  A Sequence, so random.sample takes it."""

    __slots__ = ("low", "high")

    def __init__(self, low: range, high: range):
        self.low, self.high = low, high

    def __len__(self) -> int:
        return len(self.low) + len(self.high)

    def __getitem__(self, i: int) -> int:
        size, n = len(self), len(self.low)
        if not -size <= i < size:
            raise IndexError("pool index out of range")
        i %= size
        return self.low[i] if i < n else self.high[i - n]

    def __iter__(self):
        return itertools.chain(self.low, self.high)


def candidate_pool(cfg: SearchConfig, budget: Optional[int] = None) -> Sequence[int]:
    """Admissible elements as ints, ascending: the field's residues (or the
    configured integer range), with 0 and -1 dropped unless degenerate sets
    were re-admitted.  They are the ends of range(p) over F_p and two
    consecutive ints over Q, so the pool takes constant memory at any size.

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
    return _TwoRanges(range(lo, min(banned)), range(max(banned) + 1, hi + 1))


def expander_size(ctx: FieldCtx, vals: Sequence) -> int:
    """|A(A+1)| of the set of vals, counted by the pair kernel."""
    w = FSet(ctx, vals)
    return len(expander_set(w, w))


def _modulus(ctx: FieldCtx, pool: Sequence[int]) -> int:
    """p over F_p; over Q a modulus under which the products x(y+1) of pool
    elements stay distinct: they lie in [-k(k+1), k(k+1)], k = max |v|,
    which an ascending pool takes at one of its ends."""
    if ctx.kind == KIND_PRIME:
        return ctx.p
    k = max(abs(pool[0]), abs(pool[-1]))
    return 2 * k * (k + 1) + 1


# (R, R+1, the residues of R(R+1), |R(R+1)|): the count sits at index 3 in
# both kernels' rests, where exhaustive search reads it to prune
_Rest = Tuple[List[int], List[int], frozenset, int]


def _rest(vals: List[int], m: int) -> _Rest:
    """A rest R with R+1 and the residues mod m of R(R+1), ready to be
    extended by one element."""
    shifted = [y + 1 for y in vals]
    # frozenset of a set, not of a list: the copy's table is sized to fit, half
    # the size of one grown element by element, and up to n rests are cached
    products = frozenset({x * y1 % m for x in vals for y1 in shifted})
    return vals, shifted, products, len(products)


def _size_with(rest: _Rest, z: int, m: int) -> int:
    """|(R + z)(R + z + 1)| from the 2|R| + 1 products that involve z."""
    vals, shifted, products, base = rest
    z1 = z + 1
    new = {z * z1 % m}
    for y1 in shifted:  # plain loops: a comprehension costs a frame per call
        new.add(z * y1 % m)
    for x in vals:
        new.add(x * z1 % m)
    return base + len(new - products)


def _rest_without(summary: None, vals: List[int], i: int, m: int) -> _Rest:
    """The residue rest of vals without vals[i], built afresh: a residue set
    cannot give a product back, so there is no `summary` to derive it from."""
    return _rest(vals[:i] + vals[i + 1:], m)


def _rest_join(rest: _Rest, z: int, m: int) -> None:
    """The summary of R + z the residue kernel keeps: none."""
    return None


# (shift, p - 1, (1 << (p - 1)) - 1, twin): shift[v] = p - 1 - log v, so that
# for a doubled mask D = M | M << (p - 1), D >> shift[v] is M rotated by
# log v, and twin >> shift[v] is the doubled mask of {v}
_Logs = Tuple[List[int], int, int, int]
# (R, D_R, D_{R+1}, |R(R+1)|, the mask of F_p^* - R(R+1))
_MaskRest = Tuple[List[int], int, int, int, int]
# (D_S, D_{S+1}): the summary of a set S, from which each rest S - x derives
_Masks = Tuple[int, int]


def _mask_logs(p: int) -> _Logs:
    order = p - 1
    return ([order - k for k in DiscreteLog(p).log], order, (1 << order) - 1,
            1 << 2 * order | 1 << order)


def _mask_products(vals: List[int], d0: int, d1: int, logs: _Logs) -> _MaskRest:
    """The rest R = vals with d0 = D_R and d1 = D_{R+1}, and the mask of
    R(R+1), the OR of D_{R+1} rotated by each log x, kept as its popcount
    and its complement in F_p^*, the bits a candidate can add."""
    shift, _, full, _ = logs
    products = 0
    for x in vals:
        products |= d1 >> shift[x]
    products &= full
    return vals, d0, d1, products.bit_count(), products ^ full


def _mask_rest(vals: List[int], logs: _Logs) -> _MaskRest:
    """A rest R of elements of F_p other than 0 and -1, built from its
    elements."""
    shift, order, _, _ = logs
    m0 = m1 = 0
    for x in vals:  # order - shift[v] = log v
        m0 |= 1 << order - shift[x]
        m1 |= 1 << order - shift[x + 1]
    return _mask_products(vals, m0 | m0 << order, m1 | m1 << order, logs)


def _mask_without(summary: _Masks, vals: List[int], i: int, logs: _Logs) -> _MaskRest:
    """The rest of S = vals without x = vals[i], derived from the summary
    (D_S, D_{S+1}) of S by clearing the two bits of x in D_S and those of
    x + 1 in D_{S+1}; only the products are made anew."""
    shift, _, _, twin = logs
    x = vals[i]
    d0, d1 = summary
    return _mask_products(vals[:i] + vals[i + 1:], d0 ^ twin >> shift[x],
                          d1 ^ twin >> shift[x + 1], logs)


def _mask_join(rest: _MaskRest, z: int, logs: _Logs) -> _Masks:
    """The summary (D_S, D_{S+1}) of S = R + z, from the masks of the rest."""
    shift, _, _, twin = logs
    return rest[1] | twin >> shift[z], rest[2] | twin >> shift[z + 1]


def _mask_size_with(rest: _MaskRest, z: int, logs: _Logs) -> int:
    """|(R + z)(R + z + 1)|: |R(R+1)| plus the popcount of the bits of
    z(R+1), R(z+1) and z(z+1), at log z + log(z+1) mod p - 1, outside
    R(R+1)."""
    shift, order, _, _ = logs
    _, d0, d1, base, free = rest
    s0, s1 = shift[z], shift[z + 1]
    return base + ((d1 >> s0 | d0 >> s1 | 1 << (-s0 - s1) % order) & free).bit_count()


MASK_PASSES = 8      # word passes of one mask candidate: two shifts, the bit, ORs, AND, popcount
PRODUCT_STEPS = 4    # pair steps of one residue product in `_size_with`, measured on CPython 3.11


def _kernel(cfg: SearchConfig, pool: Sequence[int], candidates: int) -> Tuple:
    """The kernel of a search that counts about `candidates` candidates:
    (rest builder, candidate counter, their shared argument, the rest of a
    set without its i-th element given the set's summary, the summary of a
    rest plus one element).  Log masks over F_p when the pool excludes 0
    and -1 and their cost in `sets.mask_steps` units (the log table, two
    lookups and MASK_PASSES passes per candidate) is below that of the
    2n - 1 residue products per candidate, else the residue set."""
    ctx = cfg.ctx
    if ctx.kind == KIND_PRIME and cfg.exclude_degenerate:
        masks = mask_steps(ctx.p, 2 * candidates, MASK_PASSES * candidates)
        if masks < PRODUCT_STEPS * (2 * cfg.set_size - 1) * candidates:
            return _mask_rest, _mask_size_with, _mask_logs(ctx.p), _mask_without, _mask_join
    return _rest, _size_with, _modulus(ctx, pool), _rest_without, _rest_join


def _witness_key(vals: Sequence) -> Tuple:
    """Deterministic tie-break: smaller element sum first, then the witness
    compared from its largest element down (colexicographic)."""
    return (sum(vals), tuple(sorted(vals, reverse=True)))


def _exponent_interval(value: int, n: int) -> RatInterval:
    if value == n or n == 1:
        return RatInterval.point(1)
    return log_ratio_interval(value, n, _LOG_BITS)


def _extensions(pool: Sequence[int], n: int, top: Optional[int]):
    """Each (rest, zs) of exhaustive search: n - 1 ascending pool elements
    and the pool elements above them that complete a candidate set.  With
    `top` (p - 1 over F_p, where the pool is a range mapped onto itself by
    x -> top - x) only sets with min + max <= top are made: the rest's
    first element a bounds every later one by top - a."""
    if top is None:
        for prefix in itertools.combinations(range(len(pool) - 1), n - 1):
            # islice, not a slice: a fresh tuple per prefix, of many sizes, raised peak RSS
            yield [pool[i] for i in prefix], itertools.islice(
                pool, prefix[-1] + 1 if prefix else 0, None)
        return
    if n == 1:
        yield [], range(pool[0], top // 2 + 1)
        return
    for a in pool:
        above = range(a + 1, top - a + 1)
        if len(above) < n - 1:
            return  # `above` only shrinks as a grows
        for middle in itertools.combinations(above[:-1], n - 2):
            yield [a, *middle], above[middle[-1] - a:] if middle else above


def exhaustive_min(cfg: SearchConfig) -> ExtremalRecord:
    """Certified global minimum of |A(A+1)| over all admissible size-n sets."""
    pool = candidate_pool(cfg, cfg.budget)
    n = cfg.set_size
    rest_of, size_with, arg, _, _ = _kernel(cfg, pool, math.comb(len(pool), n))
    top = cfg.ctx.p - 1 if cfg.ctx.kind == KIND_PRIME else None
    best = (n * n + 1,)  # above every key: no size-n set has more than n^2 products
    for vals, zs in _extensions(pool, n, top):
        rest = rest_of(vals, arg)
        if rest[3] > best[0]:
            continue  # z only adds products; a rest equal to the best may still tie
        for z in zs:
            value = size_with(rest, z, arg)
            if value <= best[0]:
                witness = vals + [z]
                key = (value,) + _witness_key(witness)
                if top is not None:  # the mirror x -> top - x has the same value
                    key = min(key, (value,) + _witness_key([top - x for x in witness]))
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


def _draw_below(draw, k: int, bits: int) -> int:
    """rng.randrange(k) for k > 0, given rng.getrandbits as `draw` and
    k.bit_length() as `bits`: the rejection loop of Random's
    `_randbelow_with_getrandbits` in CPython 3.11.7, the draw randrange
    makes there, without randrange's argument checks."""
    r = draw(bits)
    while r >= k:
        r = draw(bits)
    return r


def _one_restart(cfg: SearchConfig, pool: Sequence[int], kernel: Tuple, seed: int) -> Tuple:
    rest_of, size_with, arg, without, join = kernel
    masks = size_with is _mask_size_with
    shift, order = (arg[0], arg[1]) if masks else (None, None)
    rng = random.Random(seed)
    draw = rng.getrandbits
    n, size = cfg.set_size, len(pool)
    n_bits, size_bits = n.bit_length(), size.bit_length()
    current = sorted(rng.sample(pool, n))
    members = set(current)
    rest = rest_of(current[1:], arg)
    cur_val = size_with(rest, current[0], arg)
    summary = join(rest, current[0], arg)  # the kernel's summary of `current`
    rests: List[Optional[Tuple]] = [None] * n  # swap index -> rest of `current`
    rests[0] = rest
    cur_key = (cur_val,) + _witness_key(current)
    best_key = cur_key
    temp = INITIAL_TEMP
    anneal = cfg.mode == "anneal"
    for _ in range(cfg.iteration_cap):
        idx = _draw_below(draw, n, n_bits)
        replacement = pool[_draw_below(draw, size, size_bits)]
        if replacement in members:
            temp *= COOLING
            continue
        rest = rests[idx]
        if rest is None:
            rest = rests[idx] = without(summary, current, idx, arg)
        if masks:  # the count of `_mask_size_with`, inline
            _, d0, d1, base, free = rest
            s0, s1 = shift[replacement], shift[replacement + 1]
            val = base + ((d1 >> s0 | d0 >> s1 | 1 << (-s0 - s1) % order) & free).bit_count()
        else:
            val = size_with(rest, replacement, arg)
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
            members = set(proposal)
            summary = join(rest, replacement, arg)
            # the rest just counted is the new set without `replacement`
            rests = [None] * n
            rests[proposal.index(replacement)] = rest
            if key < best_key:
                best_key = key
        temp *= COOLING
    return best_key


def stochastic_search(cfg: SearchConfig) -> ExtremalRecord:
    """Best-found record under single-element-swap moves; fully seed-driven."""
    if cfg.mode not in ("hillclimb", "anneal"):
        raise InvalidSearchConfig("stochastic search needs mode hillclimb or anneal")
    pool = candidate_pool(cfg)
    kernel = _kernel(cfg, pool, cfg.restarts * (cfg.iteration_cap + 1))
    master = random.Random(cfg.seed)
    seeds = [master.getrandbits(64) for _ in range(cfg.restarts)]
    best = min(_one_restart(cfg, pool, kernel, s) for s in seeds)
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
