"""Finite-set arithmetic: sumsets, product/ratio sets, the expander set
A(B+1), signed k-fold sums, dilates, and partial difference sets over
explicit bipartite graphs.

FSet instances are immutable, canonically sorted and duplicate-free; all
operations return new sets, so values can be shared freely across threads.

Over F_p the ints are the residues.  Over Q the pair kernel clears
denominators once per operand: for products each side is multiplied by its
own positive LCD (for ratios, after inverting the right side), for sums and
differences both sides by one common LCD, so a pair's result is k / scale
for an int k.  Scaling one side by a nonzero constant is a bijection, so
distinct results stay distinct and every multiplicity is unchanged; and as
scale > 0, sorted ints give the results in Fraction order.
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
    InvalidSetFile,
    ZeroDilation,
    ZeroElementPresent,
)
from .field import KIND_PRIME, ElemLike, FieldCtx, RawValue

COMBINE_OPS = ("sum", "diff", "prod", "ratio")


class FSet:
    """A finite set of field elements with canonical ordering."""

    __slots__ = ("ctx", "_vals", "_members")

    def __init__(self, ctx: FieldCtx, values: Iterable[ElemLike] = ()):
        canon = ctx.canon
        members = frozenset(canon(v) for v in values)
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "_vals", tuple(sorted(members)))
        object.__setattr__(self, "_members", members)

    def __setattr__(self, name, value):
        raise AttributeError("FSet is immutable")

    @classmethod
    def _from_canonical(cls, ctx: FieldCtx, members: frozenset) -> "FSet":
        obj = object.__new__(cls)
        object.__setattr__(obj, "ctx", ctx)
        object.__setattr__(obj, "_vals", tuple(sorted(members)))
        object.__setattr__(obj, "_members", members)
        return obj

    @classmethod
    def _from_sorted(cls, ctx: FieldCtx, vals: Tuple[RawValue, ...]) -> "FSet":
        obj = object.__new__(cls)
        object.__setattr__(obj, "ctx", ctx)
        object.__setattr__(obj, "_vals", vals)
        object.__setattr__(obj, "_members", frozenset(vals))
        return obj

    @property
    def vals(self) -> Tuple[RawValue, ...]:
        return self._vals

    def __len__(self) -> int:
        return len(self._vals)

    def __iter__(self) -> Iterator[RawValue]:
        return iter(self._vals)

    def __contains__(self, x: ElemLike) -> bool:
        try:
            return self.ctx.canon(x) in self._members
        except (ContextMismatch, DivisionByZero):
            return False

    def __eq__(self, other):
        return (
            isinstance(other, FSet)
            and self.ctx == other.ctx
            and self._members == other._members
        )

    def __hash__(self):
        return hash((self.ctx, self._members))

    def __repr__(self):
        body = ", ".join(self.ctx.render(v) for v in self._vals[:12])
        if len(self._vals) > 12:
            body += ", ..."
        return f"FSet[{self.ctx!r}]{{{body}}}"

    def with_values(self, values: Iterable[ElemLike]) -> "FSet":
        return FSet(self.ctx, values)

    def intersection(self, other: "FSet") -> "FSet":
        _same_ctx(self, other)
        return FSet._from_canonical(self.ctx, self._members & other._members)

    def is_subset(self, other: "FSet") -> bool:
        _same_ctx(self, other)
        return self._members <= other._members

    def member_set(self) -> frozenset:
        return self._members

    # -- serialisation ---------------------------------------------------------

    def to_json(self) -> dict:
        if self.ctx.kind == KIND_PRIME:
            return {"field": "fp", "p": self.ctx.p, "elements": list(self._vals)}
        return {"field": "q", "elements": [self.ctx.render(v) for v in self._vals]}

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
    """Every pairwise result of `op` over a x b as a plain int, one per pair.

    `op` is a COMBINE_OPS name or "expand" (x(y+1)).  Returns the ints with
    their scale: over F_p the int is the residue itself (scale 1); over Q the
    result is Fraction(int, scale).  Callers reject 0 in b before a ratio.
    """
    ctx = _same_ctx(a, b)
    av, bv = a.vals, b.vals
    if ctx.kind == KIND_PRIME:
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
    if op in ("sum", "diff"):
        scale = _lcd(av + bv)
        ai, bi = _scaled(av, scale), _scaled(bv, scale)
        if op == "sum":
            return (x + y for x in ai for y in bi), scale
        return (x - y for x in ai for y in bi), scale
    if op == "ratio":
        bv = [1 / y for y in bv]
    elif op == "expand":
        bv = [y + 1 for y in bv]
    sa, sb = _lcd(av), _lcd(bv)
    ai, bi = _scaled(av, sa), _scaled(bv, sb)
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
    """Discrete logarithms on F_p^* to its least primitive root g, and the
    log-masks they give: a subset S of F_p^* is the (p-1)-bit int with bit
    log(s) set for each s in S, so the mask of aS is the mask of S rotated
    by log(a).  0 has no logarithm, so a mask of a set holding 0 is refused.

    Only p is kept until a mask is first asked for; then g and the table
    (an `array('l')` of p entries) are built once for the object's life.
    The search for g starts at 1, the primitive root of F_2."""

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
        if 0 in a.member_set():
            raise ZeroElementPresent("0 has no discrete logarithm")
        log = self.log
        return [log[v] for v in a.vals]

    def mask(self, a: FSet) -> int:
        bits = bytearray((self.p + 6) >> 3)
        for k in self._logs_of(a):
            bits[k >> 3] |= 1 << (k & 7)
        return int.from_bytes(bits, "little")

    def rotations(self, mask: int, by: FSet) -> list:
        """The masks of v*S for v in `by`, where `mask` is that of S:
        rotations by log(v) in p - 1 bits."""
        n = self.p - 1
        full = (1 << n) - 1
        return [((mask << k) | (mask >> (n - k))) & full for k in self._logs_of(by)]


MASK_SETUP_STEPS = 100


def mask_steps(p: int, lookups: int, word_passes: int) -> int:
    """The cost of a log-mask kernel over F_p, in pair steps of `_pair_ints`:
    the log table (p steps), one step per element looked up in it, a fixed
    setup (the primitive root, the mask buffers), and `word_passes` passes
    over ceil((p-1)/64)-word ints, such as one AND-popcount or one rotation.
    Measured on CPython 3.11, a pass costs one pair step per 16 words and at
    least one."""
    return p + MASK_SETUP_STEPS + lookups + word_passes * -(-(p - 1) // 1024)


def _from_ints(ctx: FieldCtx, ints: Iterable[int], scale: int) -> FSet:
    """The FSet of the distinct values int/scale (residues over F_p)."""
    ks = sorted(set(ints))
    if ctx.kind == KIND_PRIME:
        return FSet._from_sorted(ctx, tuple(ks))
    return FSet._from_sorted(ctx, tuple(Fraction(k, scale) for k in ks))


def combine(a: FSet, b: FSet, op: str) -> FSet:
    """All pairwise sums / differences / products / ratios of a and b."""
    ctx = _same_ctx(a, b)
    if op not in COMBINE_OPS:
        raise ValueError(f"unknown combine op {op!r}")
    if op == "ratio" and 0 in b.member_set():
        raise DivisionByZero("ratio set with 0 in the denominator set")
    return _from_ints(ctx, *_pair_ints(a, b, op))


def expander_set(a: FSet, b: FSet) -> FSet:
    """The expander set {x(y+1) : x in a, y in b}."""
    return _from_ints(a.ctx, *_pair_ints(a, b, "expand"))


def kfold_sum(a: FSet, k: int, signs: Sequence[int]) -> FSet:
    """The signed k-fold sum {s1*a1 + ... + sk*ak : ai in a}.

    Over F_p the sum stops growing once it is all of F_p: the whole field
    plus or minus a nonempty set is the whole field again.
    """
    if k < 1 or k != len(signs):
        raise ValueError("need k = len(signs) >= 1")
    if any(s not in (1, -1) for s in signs):
        raise ValueError("signs must be +1 or -1")
    ctx = a.ctx
    full = ctx.p if ctx.kind == KIND_PRIME else None
    acc = FSet._from_sorted(ctx, (ctx.zero,))
    for s in signs:
        acc = combine(acc, a, "sum" if s == 1 else "diff")
        if len(acc) == full:
            break
    return acc


def affine_image(a: FSet, x: ElemLike, y: ElemLike) -> FSet:
    """The image x*a + y; bijective, so the size is preserved."""
    ctx = a.ctx
    xv, yv = ctx.canon(x), ctx.canon(y)
    if xv == 0:
        raise ZeroDilation("dilation by zero collapses the set")
    out = frozenset(ctx.add(ctx.mul(xv, v), yv) for v in a.vals)
    return FSet._from_canonical(ctx, out)


def dilate(a: FSet, x: ElemLike) -> FSet:
    return affine_image(a, x, a.ctx.zero)


def negate(a: FSet) -> FSet:
    return FSet._from_canonical(a.ctx, frozenset(a.ctx.neg(v) for v in a.vals))


def translate(a: FSet, y: ElemLike) -> FSet:
    return affine_image(a, a.ctx.one, y)


class PairGraph:
    """An explicit bipartite graph G over left x right, stored as index pairs.
    `partial_combine` keeps the partial difference set it builds in `_diff`."""

    __slots__ = ("left", "right", "edges", "_diff")

    def __init__(self, left: FSet, right: FSet, edges: Iterable[Tuple[int, int]]):
        _same_ctx(left, right)
        edge_set = frozenset((int(i), int(j)) for i, j in edges)
        nl, nr = len(left), len(right)
        for i, j in edge_set:
            if not (0 <= i < nl and 0 <= j < nr):
                raise ValueError(f"edge ({i}, {j}) out of range {nl}x{nr}")
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        object.__setattr__(self, "edges", edge_set)
        object.__setattr__(self, "_diff", None)

    @classmethod
    def _in_range(cls, left: FSet, right: FSet, edges: Iterable[Tuple[int, int]]) -> "PairGraph":
        """A graph on int edges that are in range by construction, with
        `left` and `right` over one field: no per-edge check."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "left", left)
        object.__setattr__(obj, "right", right)
        object.__setattr__(obj, "edges", frozenset(edges))
        object.__setattr__(obj, "_diff", None)
        return obj

    def __setattr__(self, name, value):
        raise AttributeError("PairGraph is immutable")

    @classmethod
    def complete(cls, left: FSet, right: FSet) -> "PairGraph":
        return cls(left, right, ((i, j) for i in range(len(left)) for j in range(len(right))))

    def __len__(self) -> int:
        return len(self.edges)

    def __eq__(self, other):
        return (
            isinstance(other, PairGraph)
            and self.left == other.left
            and self.right == other.right
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.left, self.right, self.edges))

    def __repr__(self):
        return f"PairGraph({len(self.left)}x{len(self.right)}, |G|={len(self.edges)})"

    def left_degrees(self) -> list:
        degs = [0] * len(self.left)
        for i, _ in self.edges:
            degs[i] += 1
        return degs

    def neighbors_left(self) -> dict:
        """Map of left value -> sorted tuple of right neighbour values."""
        adj = {v: [] for v in self.left.vals}
        lv, rv = self.left.vals, self.right.vals
        for i, j in self.edges:
            adj[lv[i]].append(rv[j])
        return {v: tuple(sorted(ns)) for v, ns in adj.items()}

    def value_edges(self) -> list:
        """Deterministically ordered list of (left value, right value) edges."""
        lv, rv = self.left.vals, self.right.vals
        return sorted((lv[i], rv[j]) for i, j in self.edges)

    def transpose(self) -> "PairGraph":
        return PairGraph._in_range(self.right, self.left, ((j, i) for i, j in self.edges))


def partial_combine(g: PairGraph) -> FSet:
    """The partial difference set A -_G B = {a - b : (a, b) in G}, built once
    per graph: the pair kernel's differences over left x right, read at the
    positions i * |right| + j of the edges.  The graphs of the proof chain
    hold at least (1 - eps)|A||B| edges, so the full pass costs at most
    1 / (1 - eps) times the edge count."""
    done = g._diff
    if done is None:
        ints, scale = _pair_ints(g.left, g.right, "diff")
        diffs, nr = list(ints), len(g.right)
        done = _from_ints(g.left.ctx, (diffs[i * nr + j] for i, j in g.edges), scale)
        object.__setattr__(g, "_diff", done)
    return done
