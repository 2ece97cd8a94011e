"""Finite-set arithmetic: sumsets, product/ratio sets, the expander set
A(B+1), signed k-fold sums, dilates, and partial difference sets over
explicit bipartite graphs.

FSet instances are immutable and duplicate-free; all operations return new
sets and never change their operands.  A set keeps the form it was built
in and makes its canonical form, the values in sorted order, only when
that is first read, then keeps it.  A pair-kernel result stays a frozenset
of kernel ints until then: over F_p the residues, whose size and
membership need no sort; over Q the ints k of the values k/scale, whose
size and membership need no Fraction.  Equality, hashing, iteration,
`repr` and `to_json` read the canonical form, so no observable value
depends on how a set was built.

Over F_p the ints are the residues.  Over Q the pair kernel reads each
operand's int form, the sorted ints of its values at one positive scale:
a kernel-built set's own ints and scale, or, for a set built from
Fractions, its values scaled by their LCD, worked out once and kept.  For
products each side stays at its own scale (for ratios, after inverting
the right side, at the LCD of the inverses), for sums and differences
both sides go to the lcm of the two scales, so a pair's result is
k / scale for an int k.  Scaling one side by a nonzero constant is a
bijection, so distinct results stay distinct and every multiplicity is
unchanged; and as scale > 0, sorted ints give the results in Fraction
order.  A kernel scale need not be the LCD of its values, so code that
sets its own scaled ints next to kernel output takes them from the same
int form.

Over F_p two encodings on ints stand in for pairs where a cost model says
they are cheaper.  Discrete logarithms (`DiscreteLog`) put F_p^* in log
coordinates, where a dilate is a cyclic shift over Z/(p-1): `energy`'s slot
convolution and `search`'s log masks read the one table.  A residue mask is
a subset of F_p as the p-bit int with bit x set for each member x, so a
translate is a rotation: with D = M | M << p, the mask of X + y is the low
p bits of D >> (p - y) and that of X - y those of D >> y.  It needs no
table and allows every residue; `sumset_size` and `kfold_size` count sums
and differences on it without building them.  Its multiplicative twin is
the log mask, a subset of F_p^* as the (p-1)-bit int with bit log(x) set:
a dilate by u is a rotation by log u, so `log_mask` builds X·Y, X/Y and
X(Y+1) as the OR of one factor's doubled mask shifted once per element of
the other, and their size is a popcount.  A `Combination` holds such a set
and builds its size from the mask or from the pair kernel's set, by the
one cost rule `log_mask_steps`, which, like every kernel on the table
(`DiscreteLog.steps`), charges the table only until it is built.
"""
from __future__ import annotations

import itertools
import json
import math
from array import array
from collections import defaultdict
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Sequence, Tuple

from .errors import (
    ContextMismatch,
    DivisionByZero,
    InvalidGraphEdge,
    InvalidKernelArgument,
    InvalidSetFile,
    ZeroDilation,
    ZeroElementPresent,
)
from .field import KIND_PRIME, ElemLike, FieldCtx, RawValue

COMBINE_OPS = ("sum", "diff", "prod", "ratio")


class FSet:
    """A finite set of field elements, read in canonical (sorted) order.

    `_members` is the frozenset of the values, or None for a set over Q
    built from kernel ints whose values are not read yet: then `_kints` is
    the frozenset of those ints and `_scale` their scale, and size and
    membership read them.  `_vals`, the sorted values, and over Q `_ints`,
    the int form (the sorted ints of the values at `_scale`), are each
    built on first read and kept.  Building `_members` drops `_kints`."""

    __slots__ = ("ctx", "_members", "_vals", "_kints", "_ints", "_scale")

    def __init__(self, ctx: FieldCtx, values: Iterable[ElemLike] = ()):
        canon = ctx.canon
        self._set(ctx, frozenset(canon(v) for v in values), None, None)

    def _set(self, ctx, members, kints, scale) -> None:
        for name, value in (("ctx", ctx), ("_members", members), ("_vals", None),
                            ("_kints", kints), ("_ints", None), ("_scale", scale)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("FSet is immutable")

    @classmethod
    def _from_canonical(cls, ctx: FieldCtx, members: frozenset, scale=None) -> "FSet":
        """The set of the canonical values `members`; or, over Q with a
        `scale`, of the values k/scale for the ints k in `members`."""
        obj = object.__new__(cls)
        if scale is None or ctx.kind == KIND_PRIME:
            obj._set(ctx, members, None, None)
        else:
            obj._set(ctx, None, members, scale)
        return obj

    @property
    def vals(self) -> Tuple[RawValue, ...]:
        vals = self._vals
        if vals is None:
            if self._members is None:
                ints, scale = self._int_form()
                vals = tuple(Fraction(k, scale) for k in ints)
            else:
                vals = tuple(sorted(self._members))
            object.__setattr__(self, "_vals", vals)
        return vals

    def _int_form(self) -> Tuple[Tuple[int, ...], int]:
        """The sorted ints k of the values k/scale, with the scale: over Q a
        kernel-built set's own ints, else the values scaled by their LCD;
        over F_p the residues, at scale 1."""
        if self.ctx.kind == KIND_PRIME:
            return self.vals, 1
        ints = self._ints
        if ints is None:
            if self._members is None:
                ints = tuple(sorted(self._kints))
            else:
                vals = self.vals
                object.__setattr__(self, "_scale", _lcd(vals))
                ints = tuple(_scaled(vals, self._scale))
            object.__setattr__(self, "_ints", ints)
        return ints, self._scale

    def member_set(self) -> frozenset:
        members = self._members
        if members is None:
            members = frozenset(self.vals)
            object.__setattr__(self, "_members", members)
            object.__setattr__(self, "_kints", None)
        return members

    def __len__(self) -> int:
        members = self._members
        return len(self._kints if members is None else members)

    def __iter__(self) -> Iterator[RawValue]:
        return iter(self.vals)

    def __contains__(self, x: ElemLike) -> bool:
        try:
            v = self.ctx.canon(x)
        except (ContextMismatch, DivisionByZero):
            return False
        members = self._members
        if members is None:  # v is a member iff v * scale is one of the ints
            k, rem = divmod(v.numerator * self._scale, v.denominator)
            return rem == 0 and k in self._kints
        return v in members

    def __eq__(self, other):
        return self is other or (
            isinstance(other, FSet)
            and self.ctx == other.ctx
            and self.member_set() == other.member_set()
        )

    def __hash__(self):
        return hash((self.ctx, self.member_set()))

    def __repr__(self):
        vals = self.vals
        body = ", ".join(self.ctx.render(v) for v in vals[:12])
        if len(vals) > 12:
            body += ", ..."
        return f"FSet[{self.ctx!r}]{{{body}}}"

    def with_values(self, values: Iterable[ElemLike]) -> "FSet":
        return FSet(self.ctx, values)

    def intersection(self, other: "FSet") -> "FSet":
        _same_ctx(self, other)
        return FSet._from_canonical(self.ctx, self.member_set() & other.member_set())

    def is_subset(self, other: "FSet") -> bool:
        _same_ctx(self, other)
        return self.member_set() <= other.member_set()

    # -- serialisation ---------------------------------------------------------

    def to_json(self) -> dict:
        if self.ctx.kind == KIND_PRIME:
            return {"field": "fp", "p": self.ctx.p, "elements": list(self.vals)}
        return {"field": "q", "elements": [self.ctx.render(v) for v in self.vals]}

    @classmethod
    def from_json(cls, doc: dict) -> "FSet":
        if not isinstance(doc, dict) or "field" not in doc or "elements" not in doc:
            raise InvalidSetFile("set document needs 'field' and 'elements'")
        field = doc["field"]
        elements = doc["elements"]
        if not isinstance(elements, list):
            raise InvalidSetFile("'elements' must be a list")
        if field == "fp":
            if "p" not in doc:
                raise InvalidSetFile("prime-field set document needs 'p'")
            p = doc["p"]
            if isinstance(p, bool) or not isinstance(p, int):
                raise InvalidSetFile(f"'p' must be an integer, got {p!r}")
            ctx = FieldCtx.prime(p)
            for e in elements:
                if isinstance(e, bool) or not isinstance(e, int):
                    raise InvalidSetFile(f"non-integer residue {e!r}")
                if not 0 <= e < ctx.p:
                    raise InvalidSetFile(f"residue {e} out of range [0, {ctx.p})")
            return cls(ctx, elements)
        if field == "q":
            ctx = FieldCtx.rational()
            if not all(isinstance(e, str) for e in elements):
                raise InvalidSetFile("rational elements must be strings")
            return cls(ctx, elements)
        raise InvalidSetFile(f"unknown field tag {field!r}")


def load_set(path) -> FSet:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise InvalidSetFile(f"{path}: {exc}") from exc
    return FSet.from_json(doc)


def save_set(fset: FSet, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(fset.to_json(), fh, sort_keys=True)
        fh.write("\n")


def _same_ctx(a: FSet, b: FSet) -> FieldCtx:
    if a.ctx != b.ctx:
        raise ContextMismatch(f"{a.ctx!r} vs {b.ctx!r}")
    return a.ctx


def _lcd(vals: Iterable[Fraction]) -> int:
    return math.lcm(*(v.denominator for v in vals))


def _scaled(vals: Iterable[Fraction], scale: int) -> list:
    return [v.numerator * (scale // v.denominator) for v in vals]


def _pair_ints(a: FSet, b: FSet, op: str) -> Tuple[Iterator[int], int]:
    """Every pairwise result of `op` over a x b as a plain int, one per pair,
    pair (i, j) of a.vals x b.vals at position i * |b| + j.

    `op` is a COMBINE_OPS name or "expand" (x(y+1)).  Returns the ints with
    their scale: over F_p the int is the residue itself (scale 1); over Q the
    result is Fraction(int, scale), from the operands' int forms at scales
    sa and sb: lcm(sa, sb) for "sum" and "diff", sa * sb for "prod" and
    "expand", and sa times the LCD of the inverses for "ratio".  Callers
    reject 0 in b before a ratio.
    """
    ctx = _same_ctx(a, b)
    if ctx.kind == KIND_PRIME:
        av, bv = a.vals, b.vals
        p = ctx.p
        if op == "sum":
            return ((x + y) % p for x in av for y in bv), 1
        if op == "diff":
            return ((x - y) % p for x in av for y in bv), 1
        if op == "prod":
            return ((x * y) % p for x in av for y in bv), 1
        if op == "ratio":
            invs = [pow(y, -1, p) for y in bv]
            return ((x * iy) % p for x in av for iy in invs), 1
        return ((x * (y + 1)) % p for x in av for y in bv), 1
    (ai, sa), (bi, sb) = a._int_form(), b._int_form()
    if op in ("sum", "diff"):
        scale = math.lcm(sa, sb)
        ai = [x * (scale // sa) for x in ai]
        bi = [y * (scale // sb) for y in bi]
        if op == "sum":
            return (x + y for x in ai for y in bi), scale
        return (x - y for x in ai for y in bi), scale
    if op == "ratio":
        # 1/y = sb/k for y = k/sb, at the LCD of the inverses' denominators
        inv = math.lcm(*(abs(k) // math.gcd(k, sb) for k in bi))
        bi, sb = [sb * inv // k for k in bi], inv
    elif op == "expand":
        bi = [k + sb for k in bi]
    return (x * y for x in ai for y in bi), sa * sb


def _pair_groups(a: FSet, b: FSet, op: str, labels=None) -> Tuple[dict, int]:
    """The pairs of a x b grouped by their result's kernel int, with the
    scale.  Groups come in the order of their first pairs.  A pair is its
    two values, or its two entries of `labels`, a pair of sequences indexed
    like a.vals and b.vals."""
    ints, scale = _pair_ints(a, b, op)
    groups = defaultdict(list)
    for k, pair in zip(ints, itertools.product(*(labels or (a.vals, b.vals)))):
        groups[k].append(pair)
    return groups, scale


def _mask_of(ints: Iterable[int], width: int) -> int:
    """The `width`-bit int with bit k set for each k in `ints`, each in
    [0, width): with width p, the residue mask of a subset of F_p."""
    bits = bytearray((width + 7) >> 3)
    for k in ints:
        bits[k >> 3] |= 1 << (k & 7)
    return int.from_bytes(bits, "little")


def _prime_factors(n: int) -> list:
    """The distinct prime factors of n >= 1, by trial division."""
    factors, d = [], 2
    while d * d <= n:
        if n % d == 0:
            factors.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return factors + [n] if n > 1 else factors


class DiscreteLog:
    """Discrete logarithms on F_p^* to its least primitive root g: log(x) is
    the k in [0, p - 1) with g^k = x, so log(ax) = log(a) + log(x) mod p - 1.
    0 has no logarithm, so `_logs_of` refuses a set holding 0.

    Only p is kept until the table is first read; then g and the table (an
    `array('l')` of p entries) are built once for the object's life.  The
    search for g starts at 1, the primitive root of F_2."""

    def __init__(self, p: int):
        self.p = p

    @cached_property
    def log(self) -> array:
        p = self.p
        order = p - 1
        factors = _prime_factors(order)
        g = 1
        while any(pow(g, order // q, p) == 1 for q in factors):
            g += 1
        table = array("l", [0]) * p
        x = 1
        for k in range(order):
            table[x] = k
            x = x * g % p
        return table

    def _logs_of(self, a: FSet) -> list:
        if a.ctx.kind != KIND_PRIME or a.ctx.p != self.p:
            raise ContextMismatch(f"{a.ctx!r} vs the logs of F_{self.p}")
        if 0 in a:
            raise ZeroElementPresent("0 has no discrete logarithm")
        log = self.log
        return [log[v] for v in a.member_set()]

    def steps(self, lookups: int, word_passes: int) -> int:
        """`mask_steps` of a kernel that reads this table, less the table
        itself once it is built: an Instance's first log kernel pays for the
        table and the later ones do not."""
        steps = mask_steps(self.p, lookups, word_passes)
        return steps - self.p if "log" in vars(self) else steps


MASK_SETUP_STEPS = 100


def _pass_steps(bits: int) -> int:
    """The cost of one word pass over a `bits`-bit int, such as one
    AND-popcount, shift or rotation, in pair steps of `_pair_ints`: measured
    on CPython 3.11, one pair step per 16 64-bit words and at least one."""
    return -(-bits // 1024)


def mask_steps(p: int, lookups: int, word_passes: int) -> int:
    """The cost of a kernel on discrete logs over F_p, in pair steps of
    `_pair_ints`: the log table (p steps), one step per element looked up in
    it, a fixed setup (the primitive root, the buffers), and `word_passes`
    passes over (p-1)-bit ints."""
    return p + MASK_SETUP_STEPS + lookups + word_passes * _pass_steps(p - 1)


def _residue_masks_cheaper(p: int, nx: int, ny: int) -> bool:
    """Whether X + Y or X - Y over F_p, with |X| = nx and |Y| = ny, costs
    less on residue masks than its nx * ny pairs do, in `mask_steps` units
    with no log table and no setup: one step per element, and half a pass
    over p bits for each y (the shift of D and the OR) and for each of four
    fixed passes (the mask of X, D, the last AND and the popcount).
    Measured on CPython 3.11 at p = 61 to 1000003: on random sets with
    |X||Y| <= 400k the rule takes a path more than 10% slower than the other
    at 10 of 1042 points, where one pass per y and no fixed work did at 40
    (most at p = 1000003, where masks measured up to 4 times faster).
    """
    return nx + ny + (ny + 4) * _pass_steps(p) // 2 < nx * ny


def _translates(mask: int, width: int, shifts: Iterable[int]) -> int:
    """The OR of the `width`-bit `mask` rotated down by each s in `shifts`,
    0 <= s <= width: the low `width` bits of D >> s, with D the doubled mask
    mask | mask << width.  With width p and the residue mask of X, the
    residue mask of the union of X - s; with width p - 1 and a log mask, a
    rotation down by s is a dilate by g^-s."""
    doubled = mask | mask << width
    acc = 0
    for s in shifts:
        acc |= doubled >> s
    return acc & ((1 << width) - 1)


LOG_MASK_OPS = ("prod", "ratio", "expand")


def log_mask(x: FSet, y: FSet, op: str, logs: DiscreteLog) -> int:
    """The log mask of X·Y ("prod"), X/Y ("ratio") or X(Y+1) ("expand") over
    F_p, the (p-1)-bit int with bit log(z) set for each member z, without a
    pair pass.  Each is a product U·V of units, V being Y, 1/Y (logs
    negated) or Y + 1, and uV is V dilated by u, so the mask is the OR of
    the mask of the larger factor rotated up by log u for each u of the
    smaller (`_translates`, down by p - 1 - log u).  A member 0 has no
    logarithm, so 0 in X or Y, or -1 in Y for "expand", raises
    ZeroElementPresent."""
    _same_ctx(x, y)
    if op not in LOG_MASK_OPS:
        raise InvalidKernelArgument(f"unknown log mask op {op!r}")
    n = logs.p - 1
    us = logs._logs_of(x)
    if op == "expand":
        if -1 in y:
            raise ZeroElementPresent("x(y+1) is 0 at y = -1, which has no discrete logarithm")
        log = logs.log
        vs = [log[v + 1] for v in y.member_set()]
    else:
        vs = logs._logs_of(y)
        if op == "ratio":
            vs = [-k % n for k in vs]
    if len(us) > len(vs):
        us, vs = vs, us
    return _translates(_mask_of(vs, n), n, [n - k for k in us])


def log_mask_steps(logs: DiscreteLog, nx: int, ny: int) -> int:
    """The cost of `log_mask` on sets of nx and ny elements, in `mask_steps`
    units by `DiscreteLog.steps` (the table only until it is built): the
    nx + ny lookups, and half a pass over p - 1 bits for each rotation, one
    per element of the smaller set, and for each of four fixed passes (the
    mask, D, the last AND and the popcount), as `_residue_masks_cheaper`
    prices its translates.  Measured on CPython 3.11 at p = 40009 and
    |X| = |Y| = 100 to 160, the mask costs 0.2-0.4 ms and the pair kernel's
    set 0.9-2.9 ms; the table alone is 3.5 ms.  Against |X||Y| pair steps,
    on random sets at p = 1009 to 1000003 and |X| = |Y| = 5 to 800, with and
    without the table built, the rule took a path more than 10% slower
    than the other at 1 of 68 points (24% at p = 160001, 400 x 400, no
    table)."""
    return logs.steps(nx + ny, (min(nx, ny) + 4) // 2)


class Combination:
    """X·Y ("prod"), X/Y ("ratio") or X(Y+1) ("expand") of two sets over one
    field, built only as far as it is read.  `fset` is the set from the pair
    kernel: from `ints`, the pair pass's kernel ints in pair order with
    their scale, if a caller that reads the pairs has asked for them, and
    else from `combine` or `expander_set`, which keep no list.  `mask` is
    its log mask from `log_mask`.  Each is built on first read and kept.  Its
    size reads whichever is built, and else builds the mask when
    `log_mask_steps` prices it below the |X||Y| pair steps of the set: over
    F_p only, and only where no member would be 0, so Q, and a set the mask
    refuses, take the pair kernel and raise what it raises.  `slot_ints`
    keeps the slot ints that `energy` builds from it, by slot width, so
    that two convolutions against one combination build one."""

    def __init__(self, x: FSet, y: FSet, op: str, logs: DiscreteLog):
        if op not in LOG_MASK_OPS:
            raise InvalidKernelArgument(f"unknown combination op {op!r}")
        self.ctx = _same_ctx(x, y)
        self.x, self.y, self.op, self.logs = x, y, op, logs
        self.slot_ints = {}

    @cached_property
    def ints(self) -> Tuple[list, int]:
        ints, scale = _pair_ints(self.x, self.y, self.op)
        return list(ints), scale

    @cached_property
    def fset(self) -> FSet:
        if "ints" in vars(self):
            return _from_ints(self.ctx, *self.ints)
        if self.op == "expand":
            return expander_set(self.x, self.y)
        return combine(self.x, self.y, self.op)

    @cached_property
    def mask(self) -> int:
        return log_mask(self.x, self.y, self.op, self.logs)

    @cached_property
    def size(self) -> int:
        made = vars(self)
        if "fset" in made or ("mask" not in made
                              and self.pair_steps_left() <= self.mask_steps_left()):
            return len(self.fset)
        return self.mask.bit_count()

    def __len__(self) -> int:
        return self.size

    def __contains__(self, v) -> bool:
        len(self)  # builds the cheaper form if neither is built yet
        if "mask" not in vars(self):
            return v in self.fset
        try:
            v = self.ctx.canon(v)
        except (ContextMismatch, DivisionByZero):
            return False
        return v != 0 and self.mask >> self.logs.log[v] & 1 == 1

    def pair_steps_left(self) -> int:
        """What `fset` still costs: 0 once built, else |X||Y| pair steps."""
        return 0 if "fset" in vars(self) else len(self.x) * len(self.y)

    def mask_steps_left(self) -> float:
        """What `mask` still costs: 0 once built, `log_mask_steps` if
        `log_mask` takes the operands, and infinity if it refuses them."""
        if "mask" in vars(self):
            return 0
        x, y = self.x, self.y
        if self.ctx.kind != KIND_PRIME or 0 in x or (-1 if self.op == "expand" else 0) in y:
            return math.inf
        return log_mask_steps(self.logs, len(x), len(y))


def _from_ints(ctx: FieldCtx, ints: Iterable[int], scale: int) -> FSet:
    """The FSet of the distinct values int/scale (residues over F_p), kept
    as the frozenset of the ints until its values are read."""
    return FSet._from_canonical(ctx, frozenset(ints), scale)


def combine(a: FSet, b: FSet, op: str) -> FSet:
    """All pairwise sums / differences / products / ratios of a and b."""
    ctx = _same_ctx(a, b)
    if op not in COMBINE_OPS:
        raise InvalidKernelArgument(f"unknown combine op {op!r}")
    if op == "ratio" and 0 in b:
        raise DivisionByZero("ratio set with 0 in the denominator set")
    return _from_ints(ctx, *_pair_ints(a, b, op))


def expander_set(a: FSet, b: FSet) -> FSet:
    """The expander set {x(y+1) : x in a, y in b}."""
    return _from_ints(a.ctx, *_pair_ints(a, b, "expand"))


def sumset_size(a: FSet, b: FSet, op: str) -> int:
    """|a + b| (op "sum") or |a - b| (op "diff"), without building the set.

    Over F_p it counts on residue masks when `_residue_masks_cheaper` says
    so, and otherwise, as over Q, counts the distinct ints of `_pair_ints`.
    |a - b| = |b - a|, so the smaller set is the one stepped over."""
    ctx = _same_ctx(a, b)
    if op not in ("sum", "diff"):
        raise InvalidKernelArgument(f"unknown sumset op {op!r}")
    if len(b) > len(a):
        a, b = b, a
    if ctx.kind == KIND_PRIME and _residue_masks_cheaper(ctx.p, len(a), len(b)):
        p = ctx.p
        ys = b.member_set()
        shifts = [p - y for y in ys] if op == "sum" else ys
        return _translates(_mask_of(a.member_set(), p), p, shifts).bit_count()
    return len(set(_pair_ints(a, b, op)[0]))


def kfold_size(a: FSet, signs: Sequence[int]) -> int:
    """|s1*a + ... + sk*a| for the signs s1..sk, each +1 or -1, k >= 1.

    Over F_p the sum runs on residues while pairs are cheaper, and on a
    residue mask from the first step where the mask is cheaper; it never
    goes back, since |X + a| >= |X| for nonempty a.  It stops once it is
    all of F_p: the whole field plus or minus a nonempty set is the whole
    field again.  Over Q it runs on the int form of a.
    """
    if not signs or any(s not in (1, -1) for s in signs):
        raise InvalidKernelArgument("need k >= 1 signs, each +1 or -1")
    ctx = a.ctx
    p = ctx.p if ctx.kind == KIND_PRIME else None
    ys = a.member_set() if p else a._int_form()[0]
    acc, mask = {0}, None
    for s in signs:
        if mask is None and p and _residue_masks_cheaper(p, len(acc), len(ys)):
            mask = _mask_of(acc, p)
        if mask is not None:
            mask = _translates(mask, p, [p - y for y in ys] if s == 1 else ys)
            size = mask.bit_count()
        else:
            if p:
                acc = {(x + s * y) % p for x in acc for y in ys}
            else:
                acc = {x + s * y for x in acc for y in ys}
            size = len(acc)
        if size == p:
            break
    return size


def affine_image(a: FSet, x: ElemLike, y: ElemLike) -> FSet:
    """The image x*a + y; bijective, so the size is preserved."""
    ctx = a.ctx
    xv, yv = ctx.canon(x), ctx.canon(y)
    if xv == 0:
        raise ZeroDilation("dilation by zero collapses the set")
    out = frozenset(ctx.add(ctx.mul(xv, v), yv) for v in a.member_set())
    return FSet._from_canonical(ctx, out)


def dilate(a: FSet, x: ElemLike) -> FSet:
    return affine_image(a, x, a.ctx.zero)


def negate(a: FSet) -> FSet:
    return FSet._from_canonical(a.ctx, frozenset(a.ctx.neg(v) for v in a.member_set()))


def translate(a: FSet, y: ElemLike) -> FSet:
    """a + y; over Q, when y * scale is an int, a's int form shifted."""
    ctx = a.ctx
    if ctx.kind != KIND_PRIME:
        yv = ctx.canon(y)
        ints, scale = a._int_form()
        shift, rem = divmod(yv.numerator * scale, yv.denominator)
        if not rem:
            return _from_ints(ctx, (k + shift for k in ints), scale)
    return affine_image(a, ctx.one, y)


_DIGITS = bytes.maketrans(b"\0\1", b"01")


def _bits(flags: bytes) -> int:
    """The int with bit k set for each k where flags[k] is 1."""
    return int(flags[::-1].translate(_DIGITS), 2) if flags else 0


def _is_index(v, n: int) -> bool:
    """Whether v is an int (not a bool) in [0, n)."""
    return isinstance(v, int) and not isinstance(v, bool) and 0 <= v < n


class PairGraph:
    """An explicit bipartite graph G over left x right, stored as `flags`: one
    byte per pair of left x right in row-major order, pair (i, j) at
    i * |right| + j, 1 for an edge and 0 otherwise.  Sizes, degrees and
    neighbour masks are counts, slices and translations of those bytes; the
    index pairs (i, j) are rebuilt by `edges` only when asked for.
    `partial_combine` keeps the partial difference set it builds in `_diff`."""

    __slots__ = ("left", "right", "flags", "_diff")

    def __init__(self, left: FSet, right: FSet, edges: Iterable[Tuple[int, int]]):
        _same_ctx(left, right)
        nl, nr = len(left), len(right)
        flags = bytearray(nl * nr)
        for edge in edges:
            try:
                i, j = edge
            except (TypeError, ValueError):
                i = j = None  # not a pair: refused below
            if not (_is_index(i, nl) and _is_index(j, nr)):
                raise InvalidGraphEdge(f"edge {edge!r} out of range {nl}x{nr}")
            flags[i * nr + j] = 1
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        object.__setattr__(self, "flags", bytes(flags))
        object.__setattr__(self, "_diff", None)

    @classmethod
    def _from_flags(cls, left: FSet, right: FSet, flags: bytes) -> "PairGraph":
        """A graph on |left| * |right| flag bytes, each 0 or 1, with `left`
        and `right` over one field: no check."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "left", left)
        object.__setattr__(obj, "right", right)
        object.__setattr__(obj, "flags", flags)
        object.__setattr__(obj, "_diff", None)
        return obj

    def __setattr__(self, name, value):
        raise AttributeError("PairGraph is immutable")

    @classmethod
    def complete(cls, left: FSet, right: FSet) -> "PairGraph":
        _same_ctx(left, right)
        return cls._from_flags(left, right, b"\1" * (len(left) * len(right)))

    @property
    def edges(self) -> frozenset:
        """The edges as index pairs (i, j)."""
        nr = len(self.right)
        return frozenset(divmod(k, nr) for k in itertools.compress(itertools.count(), self.flags))

    def __len__(self) -> int:
        return self.flags.count(1)

    @property
    def is_complete(self) -> bool:
        """Whether every pair of left x right is an edge."""
        return 0 not in self.flags

    def __eq__(self, other):
        return (
            isinstance(other, PairGraph)
            and self.left == other.left
            and self.right == other.right
            and self.flags == other.flags
        )

    def __hash__(self):
        return hash((self.left, self.right, self.flags))

    def __repr__(self):
        return f"PairGraph({len(self.left)}x{len(self.right)}, |G|={len(self)})"

    def left_degrees(self) -> list:
        nr, flags = len(self.right), self.flags
        return [flags.count(1, i * nr, i * nr + nr) for i in range(len(self.left))]

    def right_degrees(self) -> list:
        nr, flags = len(self.right), self.flags
        return [flags[j::nr].count(1) for j in range(nr)]

    def row_masks(self, rows: Iterable[int]) -> list:
        """For each i in `rows`, the |right|-bit int with bit j set for each
        edge (i, j): the neighbour mask of left vertex i."""
        nr, flags = len(self.right), self.flags
        return [_bits(flags[i * nr:i * nr + nr]) for i in rows]

    def column_masks(self, columns: Iterable[int]) -> list:
        """For each j in `columns`, the |left|-bit int with bit i set for
        each edge (i, j): the neighbour mask of right vertex j."""
        nr, flags = len(self.right), self.flags
        return [_bits(flags[j::nr]) for j in columns]

    def value_edges(self) -> list:
        """Deterministically ordered list of (left value, right value) edges."""
        pairs = itertools.product(self.left.vals, self.right.vals)
        return sorted(itertools.compress(pairs, self.flags))


def partial_combine(g: PairGraph) -> FSet:
    """The partial difference set A -_G B = {a - b : (a, b) in G}: the kernel
    ints of a - b over left x right, kept where g has an edge, or all of
    them, A - B, when g is complete.  Built once per graph and kept in
    `g._diff`."""
    done = g._diff
    if done is None:
        ints, scale = _pair_ints(g.left, g.right, "diff")
        if not g.is_complete:
            ints = itertools.compress(ints, g.flags)
        done = _from_ints(g.left.ctx, ints, scale)
        object.__setattr__(g, "_diff", done)
    return done
