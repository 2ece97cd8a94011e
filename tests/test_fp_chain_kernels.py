"""Differential tests of the prime-field pipeline's one-pass kernels.

The twist spectrum and its witness, `partial_ruzsa`, `popular_ratio_graph`,
`greedy_cover`, `kfold_size` and `plunnecke_witness` are each compared with
a literal copy of the per-pair (or per-quadruple, or per-subset) loop they
replace, written out in this file; `kfold_size` on each of its two paths.
`partial_ruzsa` is also compared with the pure-int witness scan its
neighbour-mask scan replaced (`helpers.pure_partial_ruzsa`).  On complete
graphs, `popular_ratio_graph`, `partial_combine`, `partial_ruzsa` and
`greedy_cover` are also compared with their own path for an arbitrary
graph (`general_path`).
"""
import hashlib
import itertools
import math
import random
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from expanderlab import (
    FSet,
    FieldCtx,
    PairGraph,
    combine,
    finite_field_pipeline,
    greedy_cover,
    kfold_size,
    partial_combine,
    partial_ruzsa,
    plunnecke_witness,
    popular_ratio_graph,
    twisted_energy,
)
from expanderlab import constructions as cons
from expanderlab import sets, verify
from expanderlab.constructions import (
    CoverResult,
    PartialTriangleResult,
    PopularRatioResult,
    dense_degree_subset,
    ge_one_minus_k_sqrt,
    gt_k_sqrt,
)
from expanderlab.energy import twist_spectrum, twist_witness
from expanderlab.errors import (
    CollisionFound,
    ExpanderlabError,
    FieldMismatch,
    GraphTooSparse,
    InvalidKernelArgument,
    InvariantViolation,
    SetTooSmall,
)
from helpers import (Q, dense_random_graph, force_kernels, literal_partial_diff,
                     neighbors_left, pure_partial_ruzsa, random_q_set, transpose)

SMALL_PRIMES = (7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71)


# -- literal oracles -------------------------------------------------------------

def quadruple_ratio_set(a: FSet) -> dict:
    """R(a) with its first witness per ratio, one pow per quadruple."""
    p = a.ctx.p
    r_quads = {}
    a1v = a.vals
    for al in a1v:
        for be in a1v:
            num = (al - be) % p
            for ga in a1v:
                for de in a1v:
                    if ga == de:
                        continue
                    xi = num * pow(ga - de, -1, p) % p
                    if xi not in r_quads:
                        r_quads[xi] = (al, be, ga, de)
    return r_quads


def min_energy_twist(a: FSet, r_set) -> int:
    best = None
    for cand in sorted(r_set):
        if cand == 0:
            continue
        e_val = twisted_energy(a, cand)
        if best is None or e_val < best[0]:
            best = (e_val, cand)
    return best[1]


def literal_popular_ratio_graph(a: FSet, b: FSet, epsilon) -> PopularRatioResult:
    ctx = a.ctx
    eps = Fraction(epsilon)
    ratio_of = ctx.div
    mult = Counter()
    for x in a.vals:
        for y in b.vals:
            mult[ratio_of(x, y)] += 1
    na, nb = len(a), len(b)
    threshold = eps * na * nb / len(mult)
    popular = {r for r, c in mult.items() if c >= threshold}
    edges = [
        (i, j)
        for i, av in enumerate(a.vals)
        for j, bv in enumerate(b.vals)
        if ratio_of(av, bv) in popular
    ]
    graph = PairGraph(a, b, edges)
    return PopularRatioResult(
        x_set=a.with_values(popular),
        graph=graph,
        epsilon=eps,
        threshold=threshold,
        ratio_support=len(mult),
    )


def literal_greedy_cover(a: FSet, b: FSet, g: PairGraph, epsilon, sign: str) -> CoverResult:
    """The per-candidate rescan: every shift gets its own |b| coverage count."""
    ctx = a.ctx
    eps = Fraction(epsilon)
    a1 = dense_degree_subset(g, eps)
    bvals = b.vals
    remaining = set(a1.vals)
    translates, per_step = [], []
    while gt_k_sqrt(len(remaining), len(a1), eps):
        best_cov, best_shift = -1, None
        for x in sorted(remaining):
            for y in bvals:
                shift = ctx.sub(x, y) if sign == "+" else ctx.add(x, y)
                if sign == "+":
                    cov = sum(1 for w in bvals if ctx.add(shift, w) in remaining)
                else:
                    cov = sum(1 for w in bvals if ctx.sub(shift, w) in remaining)
                if cov > best_cov or (cov == best_cov and shift < best_shift):
                    best_cov, best_shift = cov, shift
        if sign == "+":
            covered_now = {w for w in (ctx.add(best_shift, y) for y in bvals) if w in remaining}
        else:
            covered_now = {w for w in (ctx.sub(best_shift, y) for y in bvals) if w in remaining}
        remaining -= covered_now
        translates.append(best_shift)
        per_step.append((best_shift, len(covered_now)))
    return CoverResult(
        covered=a1.with_values(set(a1.vals) - remaining),
        base=a1,
        translates=tuple(translates),
        sign=sign,
        iterations=len(translates),
        per_step=tuple(per_step),
    )


def literal_partial_ruzsa(g: PairGraph, h: PairGraph, epsilon) -> PartialTriangleResult:
    """Value tuples, a Fraction threshold test per pair, and a dict of images.
    The threshold test is looked up in the module, so a test can patch it."""
    eps = Fraction(epsilon)
    ctx = g.left.ctx
    a_side = dense_degree_subset(g, eps)
    c_side = dense_degree_subset(transpose(h), eps)
    b_of_a = {v: frozenset(ns) for v, ns in neighbors_left(g).items()}
    b_of_c = {v: frozenset(ns) for v, ns in neighbors_left(transpose(h)).items()}
    nb = len(g.right)
    for av in a_side.vals:
        for cv in c_side.vals:
            if not cons.ge_one_minus_k_sqrt(len(b_of_a[av] & b_of_c[cv]), nb, eps, k=2):
                raise InvariantViolation(
                    f"overlap below (1 - 2 sqrt(eps))|B| at ({av}, {cv})"
                )
    reps = {}
    for av in a_side.vals:
        for cv in c_side.vals:
            x = ctx.sub(av, cv)
            if x not in reps:
                reps[x] = (av, cv)
    pab = partial_combine(g)
    pbc = partial_combine(h)
    pab_set, pbc_set = pab.member_set(), pbc.member_set()
    y_size = 0
    seen = {}
    for x in sorted(reps):
        av, cv = reps[x]
        common = b_of_a[av] & b_of_c[cv]
        assert cons.ge_one_minus_k_sqrt(len(common), nb, eps, k=2)
        for bv in common:
            y_size += 1
            image = (ctx.sub(av, bv), ctx.sub(bv, cv))
            assert image[0] in pab_set and image[1] in pbc_set
            assert image not in seen
            seen[image] = (x, bv)
    diff_ac = combine(a_side, c_side, "diff")
    return PartialTriangleResult(
        a_side=a_side,
        c_side=c_side,
        y_size=y_size,
        partial_ab=pab,
        partial_bc=pbc,
        diff_ac=diff_ac,
        slack=Fraction(len(diff_ac) * nb, len(pab) * len(pbc)),
    )


def literal_kfold_sum(a: FSet, signs) -> FSet:
    ctx = a.ctx
    acc = {ctx.zero}
    for s in signs:
        if s == 1:
            acc = {ctx.add(x, y) for x in acc for y in a.vals}
        else:
            acc = {ctx.sub(x, y) for x in acc for y in a.vals}
    return FSet(ctx, acc)


# -- strategies --------------------------------------------------------------------

@st.composite
def fp_sets(draw, min_size=0, max_size=8, nonzero=False):
    p = draw(st.sampled_from(SMALL_PRIMES))
    lo = 1 if nonzero else 0
    vals = draw(st.sets(st.integers(lo, p - 1), min_size=min_size, max_size=max_size))
    return FSet(FieldCtx.prime(p), vals)


@st.composite
def fp_set_pairs(draw, min_size=1, max_size=7, nonzero=True):
    a = draw(fp_sets(min_size, max_size, nonzero))
    lo = 1 if nonzero else 0
    b_vals = draw(st.sets(st.integers(lo, a.ctx.p - 1), min_size=min_size, max_size=max_size))
    return a, FSet(a.ctx, b_vals)


small_q = st.builds(Fraction, st.integers(1, 12) | st.integers(-12, -1), st.integers(1, 5))


@st.composite
def q_set_pairs(draw, min_size=1, max_size=6):
    a = draw(st.sets(small_q, min_size=min_size, max_size=max_size))
    b = draw(st.sets(small_q, min_size=min_size, max_size=max_size))
    return FSet(Q, a), FSet(Q, b)


epsilons = st.sampled_from([Fraction(1, 64), Fraction(1, 16), Fraction(1, 5)])


# -- twist spectrum -----------------------------------------------------------------

def assert_spectrum_matches(a: FSet):
    excess = twist_spectrum(a)
    quads = quadruple_ratio_set(a)
    assert set(excess) | ({0} if excess else set()) == set(quads)
    n2 = len(a) ** 2
    for xi in range(1, a.ctx.p):
        assert n2 + excess[xi] == twisted_energy(a, xi)
        if xi in quads:
            assert twist_witness(a, xi) == quads[xi]


@settings(max_examples=150, deadline=None)
@given(fp_sets(min_size=0, max_size=7))
@example(FSet(FieldCtx.prime(101), [3, 40]))                     # |A1| = 2
@example(FSet(FieldCtx.prime(7), [1, 2, 4]))                      # R(A1) = F_7
@example(FSet(FieldCtx.prime(109), [1, 5, 10, 31, 36, 40, 43]))   # R(A1) != F_p
def test_twist_spectrum_matches_quadruple_loop_and_twisted_energy(a):
    assert_spectrum_matches(a)


def test_twist_spectrum_covers_both_branches_and_the_req_twist():
    full = FSet(FieldCtx.prime(13), [1, 2, 5, 6])
    proper = FSet(FieldCtx.prime(109), [1, 5, 10, 31])
    assert len(quadruple_ratio_set(full)) == 13
    assert len(quadruple_ratio_set(proper)) < 109
    for a in (full, proper):
        assert_spectrum_matches(a)
    excess = twist_spectrum(full)
    new_xi = min((excess[c], c) for c in range(1, 13))[1]
    assert new_xi == min_energy_twist(full, quadruple_ratio_set(full))


def test_twist_spectrum_of_tiny_sets():
    f = FieldCtx.prime(11)
    assert twist_spectrum(FSet(f, [])) == Counter()
    assert twist_spectrum(FSet(f, [4])) == Counter()
    pair = FSet(f, [2, 5])
    # ratios of +-3 by +-3: only 1 and -1, each from two pairs (delta, eta)
    assert twist_spectrum(pair) == Counter({1: 2, 10: 2})
    assert twist_witness(pair, 1) == (2, 5, 2, 5)
    assert twist_witness(pair, 10) == (2, 5, 5, 2)


def test_twist_spectrum_needs_a_prime_field():
    with pytest.raises(FieldMismatch):
        twist_spectrum(FSet(Q, [1, 2]))
    with pytest.raises(FieldMismatch):
        twist_witness(FSet(Q, [1, 2]), 1)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from([2, 3, 5, 7, 13, 101]).flatmap(
    lambda p: st.tuples(st.sets(st.integers(0, p - 1), max_size=5).map(
        lambda v: FSet(FieldCtx.prime(p), v)), st.integers(0, p - 1))))
@example((FSet(FieldCtx.prime(2), [0, 1]), 1))
@example((FSet(FieldCtx.prime(13), [1, 2, 5, 6]), 0))
@example((FSet(FieldCtx.prime(101), [3, 40]), 2))
def test_twist_witness_is_the_least_quadruple(case):
    a, xi = case
    p = a.ctx.p
    excess = twist_spectrum(a)
    if len(a) >= 2:
        # -1 = d/(-d) is a ratio, so xi = 0 is never shiftable
        assert p - 1 in excess
    quads = [q for q in itertools.product(a.vals, repeat=4)
             if q[2] != q[3] and (q[0] - q[1] - xi * (q[2] - q[3])) % p == 0]
    if xi == 0 or not quads:
        assert xi not in excess
        with pytest.raises(ExpanderlabError):
            twist_witness(a, xi)
    else:
        assert xi in excess
        assert twist_witness(a, xi) == min(quads)


def test_pipeline_req_branch_twist_is_the_min_energy_twist():
    a = FSet(FieldCtx.prime(103), [24, 27, 39, 58, 61, 62, 65, 88, 93])
    trace = finite_field_pipeline(a)
    sel = trace.selected
    assert sel["branch"] == "ReqFp"
    a1 = a.with_values(int(v) for v in sel["A1"])
    quads = quadruple_ratio_set(a1)
    xi = min_energy_twist(a1, quads)
    assert sel["xi"] == str(xi)
    assert sel["quad"] == [str(v) for v in quads[xi]]


def test_req_branch_twist_matches_the_range_loop_on_dense_classes():
    # near-dense random sets (|A|^2 ~ 0.9p), as fp-chain draws them; on the
    # ReqFp branch every c in 1..p-1 is a twist, so the C-level min over the
    # spectrum picks what the loop over range(1, p) picked
    rng = random.Random(1)
    spectra = []
    real = verify.twist_spectrum

    def spy(a1):
        spectra.append(real(a1))
        return spectra[-1]

    req = 0
    with mock.patch.object(verify, "twist_spectrum", spy):
        for _ in range(8):
            p = rng.choice([2503, 3001])
            a = FSet(FieldCtx.prime(p), rng.sample(range(1, p), math.isqrt(9 * p // 10)))
            sel = finite_field_pipeline(a).selected
            if sel["branch"] == "ReqFp":
                req += 1
                excess = spectra[-1]
                assert sel["xi"] == str(min((excess[c], c) for c in range(1, p))[1])
    assert req >= 3


# -- popular ratio graph ---------------------------------------------------------------

@settings(max_examples=120, deadline=None)
@given(fp_set_pairs() | q_set_pairs(), epsilons)
def test_popular_ratio_graph_matches_literal_division(pair, eps):
    a, b = pair
    assert popular_ratio_graph(a, b, eps) == literal_popular_ratio_graph(a, b, eps)


# -- dense degree subset ------------------------------------------------------------------

def literal_dense_degree_subset(g: PairGraph, epsilon) -> FSet:
    """One exact threshold test per left vertex, on its neighbour count."""
    eps = Fraction(epsilon)
    na, nb = len(g.left), len(g.right)
    if Fraction(len(g)) < (1 - eps) * na * nb:
        raise GraphTooSparse
    nbrs = neighbors_left(g)
    kept = [v for v in g.left.vals if ge_one_minus_k_sqrt(len(nbrs[v]), nb, eps)]
    if not ge_one_minus_k_sqrt(len(kept), na, eps):
        raise InvariantViolation
    return g.left.with_values(kept)


DEGREE_EPSILONS = [Fraction(0), Fraction(1, 64), Fraction(1, 16), Fraction(1, 5),
                   Fraction(99, 100)]


def row_clustered_graph(rng, a: FSet, b: FSet, epsilon: Fraction) -> PairGraph:
    """The complete graph less the first floor(epsilon |A||B|) edges in a
    random row order, so that whole rows lose their edges first."""
    rows = list(range(len(a)))
    rng.shuffle(rows)
    full = [(i, j) for i in rows for j in range(len(b))]
    return PairGraph(a, b, full[int(epsilon * len(full)):])


@settings(max_examples=200, deadline=None)
@given(fp_set_pairs(max_size=9) | q_set_pairs(1, 7), st.sampled_from(DEGREE_EPSILONS),
       st.booleans(), st.booleans(), st.randoms(use_true_random=False))
def test_dense_degree_subset_matches_per_vertex_filter(pair, eps, sparse, clustered, rng):
    # a dense graph loses at most an eps-fraction of its edges; a sparse one
    # may lose them all and then raises GraphTooSparse on both sides
    a, b = pair
    build = row_clustered_graph if clustered else dense_random_graph
    g = build(rng, a, b, Fraction(1) if sparse else eps)
    try:
        expected = literal_dense_degree_subset(g, eps)
    except GraphTooSparse:
        with pytest.raises(GraphTooSparse):
            dense_degree_subset(g, eps)
        return
    assert dense_degree_subset(g, eps) == expected


@pytest.mark.parametrize("eps", DEGREE_EPSILONS[1:] + [Fraction(1, 4), Fraction(1, 3),
                                                         Fraction(1, 2), Fraction(9, 10)])
def test_dense_degree_subset_threshold_at_every_degree(eps):
    # one left vertex of each degree 0..|B|, padded with complete rows until
    # the graph is dense enough for eps
    for nb in range(1, 17):
        pad = math.ceil((nb + 1) / (2 * eps))
        a = FSet(Q, range(1, nb + 2 + pad))
        b = FSet(Q, range(1, nb + 1))
        g = PairGraph(a, b, [(i, j) for i in range(len(a)) for j in range(min(i, nb))])
        assert dense_degree_subset(g, eps) == literal_dense_degree_subset(g, eps)


# -- greedy cover -------------------------------------------------------------------------

@st.composite
def multi_step_pairs(draw):
    """(a, b) over F_p or Q with 8 to 24 elements in a and 2 to 8 in b, so
    that most covers take several steps of the running shift count."""
    if draw(st.booleans()):
        p = draw(st.sampled_from([101, 257, 1009]))
        vals, ctx = st.integers(0, p - 1), FieldCtx.prime(p)
    else:
        vals, ctx = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 7)), Q
    return (FSet(ctx, draw(st.sets(vals, min_size=8, max_size=24))),
            FSet(ctx, draw(st.sets(vals, min_size=2, max_size=8))))


@settings(max_examples=200, deadline=None)
@given(fp_set_pairs(min_size=2, max_size=9, nonzero=False) | q_set_pairs(2, 7)
       | multi_step_pairs(),
       st.sampled_from([Fraction(1, 16), Fraction(1, 64), Fraction(1, 5)]),
       st.sampled_from("+-"), st.randoms(use_true_random=False))
def test_greedy_cover_matches_per_candidate_rescan(pair, eps, sign, rng):
    a, b = pair
    g = dense_random_graph(rng, a, b, eps)
    assert greedy_cover(a, b, g, eps, sign) == literal_greedy_cover(a, b, g, eps, sign)


def test_greedy_cover_counts_its_shifts_in_one_pair_pass(monkeypatch):
    passes = []
    real = cons._pair_ints

    def spy(x, y, op):
        passes.append((x, y, op))
        return real(x, y, op)

    monkeypatch.setattr(cons, "_pair_ints", spy)
    diffs = []
    real_diff = sets.partial_combine
    monkeypatch.setattr(sets, "partial_combine", lambda g: diffs.append(g) or real_diff(g))
    f = FieldCtx.prime(101)
    a = FSet(f, range(2, 40, 3))
    b = FSet(f, [1, 4, 9, 16])
    for sign, op in (("+", "diff"), ("-", "sum")):
        complete = PairGraph.complete(a, b)
        # one edge short, with every vertex of A still dense: A1 is all of A
        short = PairGraph(a, b, [(i, j) for i in range(len(a)) for j in range(len(b)) if i + j])
        for g in (complete, short):
            passes.clear()
            diffs.clear()
            res = greedy_cover(a, b, g, Fraction(1, 16), sign)
            assert res.iterations > 1 and res.base == a
            assert passes == [(res.base, b, op)]
            # the shifts of a "+" cover on a complete graph are A -_G B
            # itself, and a "-" cover there counts A - B without the set
            assert len(diffs) == (g is short)


def test_each_plus_cover_of_the_fp_pipeline_makes_one_difference_pass(monkeypatch):
    # a "+" cover's popular-ratio graph is complete, so the shifts it counts,
    # A1 - B_sym, are the graph's partial difference set: one pass gives both.
    # The "-" cover counts A1 - B_sym by `sumset_size`, a pair pass only
    # where residue masks cost more, and builds no set
    passes = []
    real = sets._pair_ints

    def spy(x, y, op):
        passes.append((op, x, y))
        return real(x, y, op)

    for module in (sets, cons, verify):
        monkeypatch.setattr(module, "_pair_ints", spy)
    covers = []
    real_cover = cons.greedy_cover

    def cover_spy(a, b, g, eps, sign):
        covers.append((a, b, g, sign))
        return real_cover(a, b, g, eps, sign)

    monkeypatch.setattr(cons, "greedy_cover", cover_spy)
    real_diff = sets.partial_combine
    diffs = []
    monkeypatch.setattr(sets, "partial_combine", lambda g: diffs.append(g) or real_diff(g))
    p = 3001
    a = FSet(FieldCtx.prime(p), random.Random(1).sample(range(2, p - 1), 51))
    assert verify.finite_field_pipeline(a).selected["branch"] == "ReqFp"
    assert [sign for *_, sign in covers] == ["+", "+", "+", "-"]
    a1 = covers[0][0]
    for _, b, g, _ in covers:
        assert g.is_complete and g.left is a1 and g.right is b
        assert all(built is not g for built in diffs)
    # one popular-ratio graph, so one ratio pass, per distinct B_sym (beta
    # and delta share theirs here)
    for b in {id(b): b for _, b, _, _ in covers}.values():
        signs = Counter(sign for _, cover_b, _, sign in covers if cover_b is b)
        minus_by_pairs = signs["-"] and not sets.choose(
            "residue", p, max(len(a1), len(b)), min(len(a1), len(b)))
        made = Counter(op for op, x, y in passes if x == a1 and y is b)
        assert made == +Counter(ratio=1, diff=signs["+"] + minus_by_pairs, sum=signs["-"])


def test_two_symbols_with_one_b_sym_build_one_popular_ratio_graph(monkeypatch):
    # alpha and delta give one B_sym here, and beta and gamma another, so
    # the four covers share two graphs; the trace is the one recorded when
    # each symbol built its own
    graphs, covers = [], []
    real_graph, real_cover = cons.popular_ratio_graph, cons.greedy_cover
    monkeypatch.setattr(cons, "popular_ratio_graph",
                        lambda a, b, eps: graphs.append(b) or real_graph(a, b, eps))
    monkeypatch.setattr(cons, "greedy_cover", lambda a, b, g, eps, sign: (
        covers.append(g) or real_cover(a, b, g, eps, sign)))
    trace = verify.finite_field_pipeline(FSet(FieldCtx.prime(101), [5, 14, 28, 50, 51, 64, 85]))
    assert hashlib.sha256(trace.to_bytes()).hexdigest() == (
        "0a8391d78cd319bb61ed051d129cc44c7aac4c63b9042b51bb8ced8c82565202")
    assert len(covers) == 4 and covers[0] is covers[3] and covers[1] is covers[2]
    assert len(graphs) == len({id(g) for g in covers}) == 2


@pytest.mark.parametrize("sign", ["", "+-", "*", 1, None])
def test_greedy_cover_bad_sign_is_an_expanderlab_error(sign):
    f = FieldCtx.prime(7)
    a, b = FSet(f, [1, 2]), FSet(f, [3])
    with pytest.raises(InvalidKernelArgument):
        greedy_cover(a, b, PairGraph.complete(a, b), Fraction(1, 16), sign)
    with pytest.raises(ValueError):  # as before, for library callers
        greedy_cover(a, b, PairGraph.complete(a, b), Fraction(1, 16), sign)


def test_greedy_cover_by_an_empty_set_is_set_too_small():
    f = FieldCtx.prime(7)
    a, b = FSet(f, [1, 2]), FSet(f, [])
    with pytest.raises(SetTooSmall):
        greedy_cover(a, b, PairGraph(a, b, []), Fraction(1, 16))
    # an empty a needs no step, so nothing is raised
    assert greedy_cover(b, b, PairGraph(b, b, []), Fraction(1, 16)).iterations == 0


# -- the sqrt thresholds on ints ------------------------------------------------------------

def fraction_ge_one_minus_k_sqrt(value, scale, eps, k=1):
    value, scale, eps = Fraction(value), Fraction(scale), Fraction(eps)
    rhs = scale - value
    if rhs <= 0:
        return True
    return k * k * eps * scale * scale >= rhs * rhs


def fraction_gt_k_sqrt(value, scale, eps, k=1):
    value, scale, eps = Fraction(value), Fraction(scale), Fraction(eps)
    if value <= 0:
        return False
    return value * value > k * k * eps * scale * scale


THRESHOLD_EPSILONS = ([Fraction(1, d) for d in range(1, 65)]
                      + [Fraction(c, d) for d in range(3, 17) for c in range(2, d)
                         if math.gcd(c, d) == 1])


def around_the_roots(scale, eps, k):
    """0, scale, and the ints within 2 of k sqrt(eps) scale and of
    (1 - k sqrt(eps)) scale, the two thresholds' roots, where >= 0."""
    root = math.isqrt(k * k * eps.numerator * scale * scale // eps.denominator)
    near = {0, scale}
    for r in (root, scale - root):
        near.update(range(r - 2, r + 3))
    return sorted(v for v in near if v >= 0)


@pytest.mark.parametrize("k", [1, 2])
def test_int_thresholds_match_the_fraction_formulas(k):
    for eps in THRESHOLD_EPSILONS:
        for scale in range(0, 25):
            for value in around_the_roots(scale, eps, k):
                want_ge = fraction_ge_one_minus_k_sqrt(value, scale, eps, k)
                want_gt = fraction_gt_k_sqrt(value, scale, eps, k)
                assert ge_one_minus_k_sqrt(value, scale, eps, k) == want_ge
                assert gt_k_sqrt(value, scale, eps, k) == want_gt
                # Fraction arguments, at the same ratio, give the same answers
                fv, fs = Fraction(value, 3), Fraction(scale, 3)
                assert ge_one_minus_k_sqrt(fv, fs, eps, k) == want_ge
                assert gt_k_sqrt(fv, fs, eps, k) == want_gt


# -- partial triangle ---------------------------------------------------------------------

@st.composite
def triangle_inputs(draw):
    """(g, h, eps) with g on A x B and h on B x C, over F_p or Q; g = h when
    A = B = C is drawn, and eps = 0 leaves both graphs complete."""
    rng = draw(st.randoms(use_true_random=False))
    eps = draw(st.sampled_from([Fraction(0), Fraction(1, 64), Fraction(1, 16), Fraction(1, 5)]))
    if draw(st.booleans()):
        a, b = draw(fp_set_pairs(min_size=1, max_size=7, nonzero=False))
        c = FSet(a.ctx, draw(st.sets(st.integers(0, a.ctx.p - 1), min_size=1, max_size=7)))
    else:
        a, b = draw(q_set_pairs(1, 6))
        c = FSet(Q, draw(st.sets(small_q, min_size=1, max_size=6)))
    if draw(st.booleans()):
        g = dense_random_graph(rng, a, a, eps)
        return g, g, eps
    return dense_random_graph(rng, a, b, eps), dense_random_graph(rng, b, c, eps), eps


def assert_matches_both_oracles(g, h, eps):
    # every field of the result, A' - C' included
    res = partial_ruzsa(g, h, eps)
    assert res == literal_partial_ruzsa(g, h, eps)
    assert res == pure_partial_ruzsa(g, h, eps)


Q_A = FSet(Q, [Fraction(-3, 2), Fraction(1, 3), Fraction(5, 4)])
Q_B = FSet(Q, [Fraction(-1, 2), Fraction(2, 5), 3])


@settings(max_examples=150, deadline=None)
@given(triangle_inputs())
@example((PairGraph(Q_A, Q_B, [(i, j) for i in range(3) for j in range(3) if i or j]),
          PairGraph.complete(Q_B, FSet(Q, [Fraction(-7, 3), Fraction(1, 5)])),
          Fraction(1, 5)))                       # fractional and negative members
def test_partial_ruzsa_matches_literal_algorithm(inputs):
    assert_matches_both_oracles(*inputs)


def test_partial_ruzsa_complete_graphs_at_eps_zero():
    f = FieldCtx.prime(101)
    a, b, c = FSet(f, [2, 3, 5, 7, 11]), FSet(f, [1, 4, 9]), FSet(f, [0, 50, 60, 99])
    g, h = PairGraph.complete(a, b), PairGraph.complete(b, c)
    assert_matches_both_oracles(g, h, Fraction(0))
    res = partial_ruzsa(g, h, Fraction(0))
    assert res.y_size == len(b) * len(res.diff_ac)


@st.composite
def self_ratio_inputs(draw):
    f = FieldCtx.prime(draw(st.sampled_from((2, 3, 5, 7, 11, 13))))
    a = FSet(f, draw(st.sets(st.integers(1, f.p - 1), min_size=1, max_size=8)))
    return a, draw(st.sampled_from([Fraction(1, 64), Fraction(1, 16), Fraction(1, 5)]))


@settings(max_examples=150, deadline=None)
@given(self_ratio_inputs())
def test_popular_ratio_self_graph_is_symmetric(inputs):
    # r and 1/r have the same multiplicity on A x A, so A' = C'
    a, eps = inputs
    g = popular_ratio_graph(a, a, eps).graph
    assert g == transpose(g)
    tri = partial_ruzsa(g, g, eps)
    assert tri.a_side == tri.c_side


# primes up to just below 2^31, 2^61 - 1, and the primes next to 2^62 and
# 2^89 - 1, whose residues, differences and their products outgrow 64 bits
LARGE_PRIMES = (65537, 1000003, 2147483587, 2147483629, 2147483647,
                2305843009213693951, 4611686018427387847, 4611686018427388039,
                2 ** 89 - 1)


@st.composite
def large_prime_triangles(draw):
    rng = draw(st.randoms(use_true_random=False))
    f = FieldCtx.prime(draw(st.sampled_from(LARGE_PRIMES)))
    eps = draw(st.sampled_from([Fraction(0), Fraction(1, 16), Fraction(1, 5)]))
    a, b, c = (FSet(f, draw(st.sets(st.integers(0, f.p - 1), min_size=1, max_size=6)))
               for _ in range(3))
    if draw(st.booleans()):
        g = dense_random_graph(rng, a, a, eps)
        return g, g, eps
    return dense_random_graph(rng, a, b, eps), dense_random_graph(rng, b, c, eps), eps


@settings(max_examples=100, deadline=None)
@given(large_prime_triangles())
def test_partial_ruzsa_on_large_primes(inputs):
    assert_matches_both_oracles(*inputs)


def random_side(rng, f, size: int) -> FSet:
    if f == Q:
        return random_q_set(rng, size, exclude=(), num_range=300, den_range=6)
    return FSet(f, rng.sample(range(f.p), size))


@st.composite
def triangles_over(draw, fields, b_sizes, side_max):
    """(g, h, eps): g on A x B and h on B x C over a field drawn from
    `fields`, each dense for eps, with b_sizes[0] <= |B| <= b_sizes[1].
    A or C is a singleton when drawn, and g = h on A = B = C when drawn."""
    rng = draw(st.randoms(use_true_random=False))
    eps = draw(st.sampled_from([Fraction(0), Fraction(1, 64), Fraction(1, 16), Fraction(1, 5)]))
    f = draw(st.sampled_from(fields))
    cap = f.p if f != Q else b_sizes[1]   # no more than the field holds
    b = random_side(rng, f, draw(st.integers(b_sizes[0], min(cap, b_sizes[1]))))
    if draw(st.booleans()):
        g = dense_random_graph(rng, b, b, eps)
        return g, g, eps
    single = draw(st.sampled_from("AC-"))
    a, c = (random_side(rng, f, 1 if side == single else draw(st.integers(1, min(cap, side_max))))
            for side in "AC")
    return dense_random_graph(rng, a, b, eps), dense_random_graph(rng, b, c, eps), eps


@settings(max_examples=150, deadline=None)
@given(triangles_over([FieldCtx.prime(p) for p in (2, 3, 5)], (1, 5), 5))
def test_partial_ruzsa_on_tiny_fields_and_singletons(inputs):
    assert_matches_both_oracles(*inputs)


@settings(max_examples=30, deadline=None)
@given(triangles_over([FieldCtx.prime(257), FieldCtx.prime(2 ** 61 - 1), Q], (64, 80), 4))
def test_partial_ruzsa_masks_past_one_word(inputs):
    # |B| >= 64, so every neighbour mask spans more than one 64-bit word
    g, h, eps = inputs
    assert len(g.right) >= 64
    assert_matches_both_oracles(g, h, eps)


def failure_of(run, g, h, eps):
    """The exception of run(g, h, eps) as a comparable (type, message,
    first, second) tuple."""
    with pytest.raises(Exception) as err:
        run(g, h, eps)
    exc = err.value
    return type(exc), str(exc), getattr(exc, "first", None), getattr(exc, "second", None)


def test_partial_ruzsa_failure_replays_the_literal_error(monkeypatch):
    # a k = 2 threshold that only the full overlap |B| passes, and one edge
    # missing at a = 2: the scan and both oracles name the same first pair
    real = cons.ge_one_minus_k_sqrt
    monkeypatch.setattr(cons, "ge_one_minus_k_sqrt",
                        lambda v, s, e, k=1: real(v, s, e, k) if k == 1 else v >= s)
    f = FieldCtx.prime(53)
    a = FSet(f, [2, 3, 5, 7])
    b = FSet(f, [1, 4, 9, 16, 25])
    g = PairGraph(a, b, [(i, j) for i in range(4) for j in range(5) if (i, j) != (0, 0)])
    h = PairGraph.complete(b, a)
    eps = Fraction(1, 5)
    with pytest.raises(InvariantViolation) as slow:
        literal_partial_ruzsa(g, h, eps)
    message = "overlap below (1 - 2 sqrt(eps))|B| at (2, 2)"
    assert str(slow.value) == message
    expected = (InvariantViolation, message, None, None)
    assert failure_of(partial_ruzsa, g, h, eps) == expected
    assert failure_of(pure_partial_ruzsa, g, h, eps) == expected


def test_pure_scan_raises_on_a_forced_escape(monkeypatch):
    # A -_G B = {8, 9, 18, 19} loses 19 = 20 - 1, which the witness (20, 1)
    # of the difference 20 - 0 reaches; no other witness shares its key.
    # `partial_ruzsa` has no escape check: a witness image lies in the
    # partial difference sets by their definition (see
    # test_edge_differences_at_any_rows_or_columns_lie_in_the_partial_set)
    f = FieldCtx.prime(101)
    a, b, c = FSet(f, [10, 20]), FSet(f, [1, 2]), FSet(f, [0])
    g, h = PairGraph.complete(a, b), PairGraph.complete(b, c)
    real = cons.partial_combine
    monkeypatch.setattr(cons, "partial_combine", lambda graph: (
        a.with_values(real(graph).vals[:-1]) if graph is g else real(graph)))
    expected = (InvariantViolation, "witness image escapes the partial difference sets",
                None, None)
    assert failure_of(pure_partial_ruzsa, g, h, Fraction(0)) == expected


def test_pure_scan_checks_only_the_images_of_witnesses(monkeypatch):
    # over F_5 with C' = F_5, the pairs (0, c) are the first pairs of every
    # difference, so only edges at a = 0 carry witnesses.  G lacks (0, 2), so
    # 3 = 0 - 2 comes only from edges at a != 0: the oracle's witness walk
    # misses its loss from A -_G B
    f = FieldCtx.prime(5)
    a = FSet(f, range(5))
    g = PairGraph(a, a, [(i, j) for i in range(5) for j in range(5) if (i, j) != (0, 2)])
    h = PairGraph.complete(a, a)
    real = cons.partial_combine
    monkeypatch.setattr(cons, "partial_combine", lambda graph: (
        a.with_values(set(real(graph).vals) - {3}) if graph is g else real(graph)))
    eps = Fraction(1, 16)
    assert pure_partial_ruzsa(g, h, eps).partial_ab.vals == (0, 1, 2, 4)


def test_forced_collision_fails_alike_on_every_path():
    # a middle set holding 1 and p + 1, one residue twice, which only a
    # corrupt FSet can: both give every witness pair the same image
    f = FieldCtx.prime(101)
    a, c = FSet(f, [2, 3]), FSet(f, [5])
    b = FSet._from_canonical(f, frozenset({1, 102}))
    g, h = PairGraph.complete(a, b), PairGraph.complete(b, c)
    failure = failure_of(partial_ruzsa, g, h, Fraction(0))
    # x = 2 - 5 = 98 is the first difference; b = 1 and b = 102 both give (1, 97)
    assert failure == (CollisionFound, "image (1, 97) reached twice", (98, 1), (98, 102))
    assert failure_of(pure_partial_ruzsa, g, h, Fraction(0)) == failure


@pytest.mark.parametrize("empty", "ABC")
def test_partial_ruzsa_empty_side_is_set_too_small(empty):
    f = FieldCtx.prime(101)
    sides = {"A": FSet(f, [2, 3]), "B": FSet(f, [1, 4]), "C": FSet(f, [5, 9])}
    sides[empty] = FSet(f, [])
    g = PairGraph.complete(sides["A"], sides["B"])
    h = PairGraph.complete(sides["B"], sides["C"])
    with pytest.raises(SetTooSmall):
        partial_ruzsa(g, h, Fraction(0))


@pytest.mark.parametrize("eps", [Fraction(0), Fraction(1, 64), Fraction(3, 16)])
@pytest.mark.parametrize("nb", [0, 1, 2, 7, 100])
def test_least_passing_is_the_threshold(nb, eps):
    least = cons._least_passing(nb, eps, k=2)
    assert all(ge_one_minus_k_sqrt(v, nb, eps, k=2) == (v >= least) for v in range(nb + 1))


# -- complete graphs ------------------------------------------------------------------------

def general_path():
    """A patch under which every PairGraph reads as incomplete, so
    `partial_combine`, `partial_ruzsa` and `greedy_cover` take their path
    for an arbitrary graph: flags, neighbour masks and the witness scan."""
    return mock.patch.object(PairGraph, "is_complete", property(lambda self: False))


def fresh(g: PairGraph) -> PairGraph:
    """g anew, without the partial difference set it keeps."""
    return PairGraph._from_flags(g.left, g.right, g.flags)


@st.composite
def one_field_sides(draw, count, nonzero):
    """`count` nonempty sets, singletons included, over one field: F_2,
    F_3, another small F_p or Q, with 0 in none when `nonzero`."""
    if draw(st.booleans()):
        f = FieldCtx.prime(draw(st.sampled_from((2, 3, 5, 7, 13, 101))))
        elems = st.integers(1 if nonzero else 0, f.p - 1)
    else:
        f, elems = Q, small_q  # small_q has no 0
    return [FSet(f, draw(st.sets(elems, min_size=1, max_size=6))) for _ in range(count)]


F101 = FieldCtx.prime(101)
POWERS_OF_TWO = FSet(F101, [1, 2, 4])  # |A/A| = 5: least is 1 at eps 1/2, 2 at eps 3/4


@settings(max_examples=200, deadline=None, derandomize=True)
@given(one_field_sides(2, nonzero=True),
       st.sampled_from([Fraction(1, 64), Fraction(1, 5), Fraction(1, 2), Fraction(3, 4),
                        Fraction(9, 10)]))
@example([POWERS_OF_TWO, POWERS_OF_TWO], Fraction(1, 2))      # complete
@example([POWERS_OF_TWO, POWERS_OF_TWO], Fraction(3, 4))      # 4 and 1/4 dropped
@example([FSet(FieldCtx.prime(2), [1])] * 2, Fraction(9, 10))  # |A| = 1 over F_2
@example([FSet(FieldCtx.prime(3), [1, 2])] * 2, Fraction(3, 4))  # least 2, yet complete
@example([FSet(Q, [Fraction(-1, 2)]), FSet(Q, [3, Fraction(1, 4)])], Fraction(1, 2))
def test_popular_ratio_graph_is_complete_when_least_is_one(sides, eps):
    # least >= 2 can keep every ratio too, as {1, 2} over F_3 at eps 3/4
    a, b = sides
    res = popular_ratio_graph(a, b, eps)
    assert res == literal_popular_ratio_graph(a, b, eps)
    assert res.partial_diff == literal_partial_diff(res.graph)
    if math.ceil(res.threshold) <= 1:
        assert res.graph.is_complete
        assert res.x_set == combine(a, b, "ratio")
        assert res.partial_diff == combine(a, b, "diff")


@settings(max_examples=150, deadline=None, derandomize=True)
@given(one_field_sides(2, nonzero=False))
def test_partial_combine_of_a_complete_graph_is_the_difference_set(sides):
    a, b = sides
    g = PairGraph.complete(a, b)
    assert g.is_complete
    got = partial_combine(g)
    assert got == combine(a, b, "diff") == literal_partial_diff(g)
    with general_path():
        assert partial_combine(fresh(g)) == got


def complete_triangle(sides, shape):
    """Complete g on A x B and h on B x C from three drawn sides, with
    A = B = C and h = g ("="), A = B ("<"), C = B (">") or all three drawn
    ("-")."""
    a, b, c = sides
    if shape == "=":
        g = PairGraph.complete(b, b)
        return g, g
    a = b if shape == "<" else a
    c = b if shape == ">" else c
    return PairGraph.complete(a, b), PairGraph.complete(b, c)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(one_field_sides(3, nonzero=False), st.sampled_from("=<>-"),
       st.sampled_from([Fraction(0), Fraction(1, 64), Fraction(1, 16), Fraction(1, 5)]))
@example([FSet(FieldCtx.prime(3), [0, 1, 2])] * 3, "=", Fraction(1, 5))  # all of F_3
@example([FSet(FieldCtx.prime(2), [1]), FSet(FieldCtx.prime(2), [0, 1]),
          FSet(FieldCtx.prime(2), [0])], "-", Fraction(0))
def test_partial_ruzsa_on_complete_graphs_matches_the_scan(sides, shape, eps):
    g, h = complete_triangle(sides, shape)
    res = partial_ruzsa(g, h, eps)
    with general_path():
        g2 = fresh(g)
        assert partial_ruzsa(g2, g2 if h is g else fresh(h), eps) == res
    assert_matches_both_oracles(g, h, eps)
    assert res.partial_ab == literal_partial_diff(g)
    assert res.partial_bc == literal_partial_diff(h)
    assert (res.a_side, res.c_side) == (g.left, h.right)
    assert res.y_size == len(g.right) * len(combine(g.left, h.right, "diff"))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(one_field_sides(2, nonzero=False),
       st.sampled_from([Fraction(1, 64), Fraction(1, 16), Fraction(1, 5)]),
       st.sampled_from("+-"))
def test_greedy_cover_on_a_complete_graph_matches_the_general_path(sides, eps, sign):
    a, b = sides
    g = PairGraph.complete(a, b)
    res = greedy_cover(a, b, g, eps, sign)
    with general_path():
        assert greedy_cover(a, b, fresh(g), eps, sign) == res
    assert res == literal_greedy_cover(a, b, g, eps, sign)


def test_complete_overlap_failure_names_the_first_pair(monkeypatch):
    # a k = 2 threshold above |B|: the complete path, the scan and the pure
    # scan all fail at the first pair (a, c) with one message
    real = cons._least_passing
    monkeypatch.setattr(cons, "_least_passing",
                        lambda scale, eps, k: real(scale, eps, k) + (k == 2) * (scale + 1))
    a, b, c = FSet(F101, [7, 3]), FSet(F101, [1, 4, 9]), FSet(F101, [50, 5])
    g, h = PairGraph.complete(a, b), PairGraph.complete(b, c)
    expected = (InvariantViolation, "overlap below (1 - 2 sqrt(eps))|B| at (3, 5)", None, None)
    assert failure_of(partial_ruzsa, g, h, Fraction(1, 64)) == expected
    with general_path():
        assert failure_of(partial_ruzsa, fresh(g), fresh(h), Fraction(1, 64)) == expected
    assert failure_of(pure_partial_ruzsa, g, h, Fraction(1, 64)) == expected


def test_incomplete_popular_ratio_graph_keeps_the_flag_path():
    # twenty powers of 3 mod 1009: |A/A| = 39, so least = ceil(100/39) = 3
    # and the ratios 3^19 and 3^-19, 3^18 and 3^-18, one or two pairs
    # each, are not popular
    a = FSet(FieldCtx.prime(1009), [pow(3, i, 1009) for i in range(1, 21)])
    res = popular_ratio_graph(a, a, Fraction(1, 4))
    assert (len(res.graph), res.graph.is_complete) == (394, False)
    assert res == literal_popular_ratio_graph(a, a, Fraction(1, 4))
    assert res.partial_diff == literal_partial_diff(res.graph)
    assert_matches_both_oracles(res.graph, res.graph, Fraction(1, 64))


def assert_reads_the_difference_set(trace, a: FSet):
    """The fp pipeline's |A - A| (fp-diff-assumed and fp-fourfold) is that
    of the literal difference set, on either kind of self graph."""
    diff_size = len(literal_partial_diff(PairGraph.complete(a, a)))
    reports = {step.report.name: step.report for step in trace.steps}
    assert reports["fp-diff-assumed"].lhs == diff_size
    assert reports["fp-fourfold"].rhs == Fraction(diff_size ** 3, len(a) ** 2)


def test_fp_pipeline_on_an_incomplete_self_graph_matches_the_oracles(monkeypatch):
    # 38 powers of 7 mod 1453 (|A|^2 < p): at eps = 1/17, |A/A| = 75 <
    # eps|A|^2, so least = 2, and the ratios 7^37 and 7^-37, one pair each,
    # are not popular.  Their differences have no other pair, so A -_G A
    # is smaller than A - A, and the trace runs on to the ReqFp branch
    p, eps = 1453, Fraction(1, 17)
    a = FSet(FieldCtx.prime(p), [pow(7, i, p) for i in range(1, 39)])
    calls = []
    real = cons.partial_ruzsa

    def spy(g, h, eps):
        calls.append((g, h, eps, real(g, h, eps)))
        return calls[-1][3]

    monkeypatch.setattr(cons, "partial_ruzsa", spy)
    trace = finite_field_pipeline(a, eps)
    assert trace.selected["branch"] == "ReqFp"
    [(g, h, _, res)] = calls
    assert g is h and len(g) == 38 ** 2 - 2
    assert g == literal_popular_ratio_graph(a, a, eps).graph
    assert len(res.partial_ab) == len(combine(a, a, "diff")) - 2
    assert res == literal_partial_ruzsa(g, h, eps)
    assert res == pure_partial_ruzsa(g, h, eps)
    assert_reads_the_difference_set(trace, a)
    monkeypatch.setattr(cons, "partial_ruzsa", real)
    with general_path():
        assert finite_field_pipeline(a, eps).to_bytes() == trace.to_bytes()


@pytest.mark.parametrize("a, branch", [
    (FSet(FieldCtx.prime(103), [24, 27, 39, 58, 61, 62, 65, 88, 93]), "ReqFp"),
    (FSet(FieldCtx.prime(109), [1, 5, 10, 31, 36, 40, 43, 65, 71]), "RneqFp"),
], ids=["ReqFp", "RneqFp"])
def test_fp_pipeline_trace_is_the_same_on_the_general_path(a, branch):
    # the self graph and the covering graphs are complete
    trace = finite_field_pipeline(a)
    assert trace.selected["branch"] == branch
    assert_reads_the_difference_set(trace, a)
    with general_path():
        assert finite_field_pipeline(a).to_bytes() == trace.to_bytes()


@pytest.mark.parametrize("field", [F101, Q], ids=["F101", "Q"])
@pytest.mark.parametrize("empty", "AB")
def test_popular_ratio_graph_of_an_empty_side_is_set_too_small(field, empty):
    sides = {"A": FSet(field, [1, 2]), "B": FSet(field, [3])}
    sides[empty] = FSet(field, [])
    with pytest.raises(SetTooSmall):
        popular_ratio_graph(sides["A"], sides["B"], Fraction(1, 4))


# -- k-fold sums ----------------------------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(fp_sets(min_size=0, max_size=5) | st.sets(small_q, max_size=4).map(lambda v: FSet(Q, v)),
       st.lists(st.sampled_from([1, -1]), min_size=1, max_size=5))
@example(FSet(FieldCtx.prime(7), [1, 3]), [1, -1, -1, -1])     # saturates after 3 steps
@example(FSet(FieldCtx.prime(7), [0, 1, 3]), [1, 1, 1, 1, 1])  # saturates after 2 steps
def test_kfold_sum_matches_literal_loop(a, signs):
    want = len(literal_kfold_sum(a, signs))
    for masks in (True, False):
        with force_kernels(masks, "residue"):
            assert kfold_size(a, signs) == want


def test_kfold_sum_saturated_field_stays_full():
    a = FSet(FieldCtx.prime(11), [0, 1, 2, 3])
    assert len(literal_kfold_sum(a, [1, -1, -1, -1])) == 11
    for masks in (True, False):
        with force_kernels(masks, "residue"):
            assert kfold_size(a, [1, -1, -1, -1]) == 11


# -- iterated sumset witness ------------------------------------------------------------------

def literal_plunnecke_witness(a: FSet, xs, budget=10):
    """Every subset's iterated sumset built summand by summand."""
    ctx = a.ctx
    n, k = len(a), len(xs)
    single = [len(combine(a, x, "sum")) for x in xs]
    denom = 1
    for size in single:
        denom *= size
    scale = n ** (k - 1)
    best = None
    for r in range(-(-n // 2), n + 1):
        for sub in itertools.combinations(a.vals, r):
            acc = set(sub)
            for x in xs:
                acc = {ctx.add(u, v) for u in acc for v in x.vals}
            key = (Fraction(len(acc) * scale, denom), sub)
            if best is None or key < best[:2]:
                best = (key[0], sub, len(acc))
    slack, sub, iterated = best
    return cons.PlunneckeResult(
        subset=a.with_values(sub),
        slack=slack,
        subset_ratio=Fraction(len(sub), n),
        iterated_size=iterated,
        single_sizes=tuple(single),
    )


@st.composite
def plunnecke_inputs(draw):
    if draw(st.booleans()):
        f = FieldCtx.prime(draw(st.sampled_from(SMALL_PRIMES)))
        elems = st.integers(0, f.p - 1)
    else:
        f = Q
        elems = small_q
    a = FSet(f, draw(st.sets(elems, min_size=1, max_size=9)))
    xs = draw(st.lists(st.sets(elems, min_size=1, max_size=4).map(lambda v: FSet(f, v)),
                       min_size=1, max_size=3))
    return a, xs


P11 = FieldCtx.prime(11)


@settings(max_examples=150, deadline=None)
@given(plunnecke_inputs())
@example((FSet(Q, range(9)), [FSet(Q, range(3))] * 3))    # progressions tie often
@example((FSet(P11, [0, 1, 2, 3, 4, 5, 6, 7, 8]), [FSet(P11, [0, 1])] * 2))
@example((FSet(P11, range(8)), [FSet(P11, range(11))]))   # every subset ties at p
@example((FSet(Q, [Fraction(1, 2)]), [FSet(Q, [0])]))     # |A| = 1
def test_plunnecke_witness_matches_old_subset_loop(inputs):
    a, xs = inputs
    assert plunnecke_witness(a, xs) == literal_plunnecke_witness(a, xs)


def test_plunnecke_tie_goes_to_the_least_subset():
    # every subset reaches all of F_11, so the least value tuple of the
    # smallest size wins
    res = plunnecke_witness(FSet(P11, range(8)), [FSet(P11, range(11))])
    assert res.subset.vals == (0, 1, 2, 3)
    assert res.iterated_size == 11


@pytest.mark.parametrize("a, xs", [
    (FSet(P11, [1, 2]), []),                     # no summands
    (FSet(P11, []), [FSet(P11, [1])]),           # empty base
    (FSet(P11, [1, 2]), [FSet(P11, [1]), FSet(P11, [])]),  # an empty summand
    (FSet(Q, [1, 2]), [FSet(Q, [])]),
], ids=["no-summands", "empty-base", "empty-summand-fp", "empty-summand-q"])
def test_plunnecke_empty_inputs_are_set_too_small(a, xs):
    with pytest.raises(SetTooSmall):
        plunnecke_witness(a, xs)
    with pytest.raises(ValueError):  # SetTooSmall is a ValueError too
        plunnecke_witness(a, xs)
