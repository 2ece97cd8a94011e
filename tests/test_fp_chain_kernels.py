"""Differential tests of the prime-field pipeline's one-pass kernels.

The twist spectrum, `partial_ruzsa`, `popular_ratio_graph`, `greedy_cover`,
`kfold_sum` and `plunnecke_witness` are each compared with a literal copy
of the per-pair (or per-quadruple, or per-subset) loop they replace, written
out in this file.  `partial_ruzsa` runs on each of its scan paths: numpy
arrays, and plain ints with numpy missing.
"""
import itertools
import math
import sys
from collections import Counter
from fractions import Fraction

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
    kfold_sum,
    partial_combine,
    partial_ruzsa,
    plunnecke_witness,
    popular_ratio_graph,
    twisted_energy,
)
from expanderlab import constructions as cons
from expanderlab.constructions import (
    CoverResult,
    PartialTriangleResult,
    PopularRatioResult,
    dense_degree_subset,
    ge_one_minus_k_sqrt,
    gt_k_sqrt,
)
from expanderlab.energy import twist_spectrum
from expanderlab.errors import (
    CollisionFound,
    FieldMismatch,
    GraphTooSparse,
    InvariantViolation,
    SetTooSmall,
)
from helpers import SCAN_PATHS, Q, dense_random_graph, scan_path

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
        partial_diff=partial_combine(graph),
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
    c_side = dense_degree_subset(h.transpose(), eps)
    b_of_a = {v: frozenset(ns) for v, ns in g.neighbors_left().items()}
    b_of_c = {v: frozenset(ns) for v, ns in h.transpose().neighbors_left().items()}
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
    quads, energies = twist_spectrum(a)
    assert quads == quadruple_ratio_set(a)
    n2 = len(a) ** 2
    for xi in range(1, a.ctx.p):
        assert energies.get(xi, n2) == twisted_energy(a, xi)
    assert set(energies) == set(quads) - {0}


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
    quads, energies = twist_spectrum(full)
    new_xi = min((energies[c], c) for c in range(1, 13))[1]
    assert new_xi == min_energy_twist(full, quads)


def test_twist_spectrum_of_tiny_sets():
    f = FieldCtx.prime(11)
    assert twist_spectrum(FSet(f, [])) == ({}, {})
    assert twist_spectrum(FSet(f, [4])) == ({}, {})
    quads, energies = twist_spectrum(FSet(f, [2, 5]))
    # ratios of +-3 by +-3: only 1 and -1, plus 0
    assert quads == {0: (2, 2, 2, 5), 1: (2, 5, 2, 5), 10: (2, 5, 5, 2)}
    assert energies == {1: 6, 10: 6}


def test_twist_spectrum_needs_a_prime_field():
    with pytest.raises(FieldMismatch):
        twist_spectrum(FSet(Q, [1, 2]))


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
    nbrs = g.neighbors_left()
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

@settings(max_examples=120, deadline=None)
@given(fp_set_pairs(min_size=2, max_size=9, nonzero=False) | q_set_pairs(2, 7),
       st.sampled_from([Fraction(1, 16), Fraction(1, 64), Fraction(1, 5)]),
       st.sampled_from("+-"), st.randoms(use_true_random=False))
def test_greedy_cover_matches_per_candidate_rescan(pair, eps, sign, rng):
    a, b = pair
    g = dense_random_graph(rng, a, b, eps)
    assert greedy_cover(a, b, g, eps, sign) == literal_greedy_cover(a, b, g, eps, sign)


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


def assert_every_path_matches(g, h, eps):
    expected = literal_partial_ruzsa(g, h, eps)
    for path in SCAN_PATHS:
        with scan_path(path):
            assert partial_ruzsa(g, h, eps) == expected, path


@settings(max_examples=150, deadline=None)
@given(triangle_inputs())
def test_partial_ruzsa_matches_literal_algorithm(inputs):
    assert_every_path_matches(*inputs)


def test_partial_ruzsa_complete_graphs_at_eps_zero():
    f = FieldCtx.prime(101)
    a, b, c = FSet(f, [2, 3, 5, 7, 11]), FSet(f, [1, 4, 9]), FSet(f, [0, 50, 60, 99])
    g, h = PairGraph.complete(a, b), PairGraph.complete(b, c)
    assert_every_path_matches(g, h, Fraction(0))
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
    assert g == g.transpose()
    tri = partial_ruzsa(g, g, eps)
    assert tri.a_side == tri.c_side


# primes up to just below 2^31, 2^61 - 1, and the primes next to the 2^62 guard
LARGE_PRIMES = (65537, 1000003, 2147483587, 2147483629, 2147483647,
                2305843009213693951, 4611686018427387847, 4611686018427388039)


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
    assert_every_path_matches(*inputs)


@pytest.fixture
def scans(monkeypatch):
    """The names of the scans `partial_ruzsa` ran, in order."""
    ran = []
    for name in ("_array_scan", "_pure_scan"):
        real = getattr(cons, name)
        monkeypatch.setattr(cons, name,
                            lambda *args, _real=real, _name=name: ran.append(_name) or _real(*args))
    return ran


@pytest.mark.parametrize("path, ctx, expected", [
    ("array", FieldCtx.prime(101), "_array_scan"),
    ("array", FieldCtx.prime(4611686018427387847), "_array_scan"),  # p just below 2^62
    ("array", FieldCtx.prime(4611686018427388039), "_pure_scan"),   # p just above
    ("array", FieldCtx.prime(2 ** 89 - 1), "_pure_scan"),
    ("array", Q, "_pure_scan"),
    ("no-numpy", FieldCtx.prime(101), "_pure_scan"),
])
def test_scan_dispatch(scans, path, ctx, expected):
    if expected == "_array_scan":
        pytest.importorskip("numpy")
    a = FSet(ctx, [2, 3, 5, 7])
    g = PairGraph.complete(a, a)
    with scan_path(path):
        res = partial_ruzsa(g, g, Fraction(0))
    assert scans == [expected]
    assert res == literal_partial_ruzsa(g, g, Fraction(0))


def test_array_scan_guard_on_key_range():
    f = FieldCtx.prime(101)
    assert cons._array_scan_fits(f, 2 ** 31, 2 ** 31 - 1)
    assert not cons._array_scan_fits(f, 2 ** 31, 2 ** 31)   # keys reach 2^62
    assert not cons._array_scan_fits(f, 2 ** 62, 1)
    assert not cons._array_scan_fits(Q, 1, 1)


def test_missing_numpy_falls_back_to_the_pure_scan(scans, monkeypatch):
    monkeypatch.setitem(sys.modules, "numpy", None)  # import numpy now fails
    cons._numpy.cache_clear()
    try:
        assert cons._numpy() is None
        f = FieldCtx.prime(103)
        a = FSet(f, [24, 27, 39, 58, 61, 62, 65, 88, 93])
        g = PairGraph.complete(a, a)
        assert partial_ruzsa(g, g, Fraction(0)) == literal_partial_ruzsa(g, g, Fraction(0))
        assert scans == ["_pure_scan"]
    finally:
        cons._numpy.cache_clear()


def failures_on_every_path(g, h, eps):
    """The exception of `partial_ruzsa` on each scan path, as comparable
    (type, message, first, second) tuples."""
    out = []
    for path in SCAN_PATHS:
        with scan_path(path), pytest.raises(Exception) as err:
            partial_ruzsa(g, h, eps)
        exc = err.value
        out.append((type(exc), str(exc), getattr(exc, "first", None),
                    getattr(exc, "second", None)))
    return out


def test_partial_ruzsa_failure_replays_the_literal_error(monkeypatch):
    # a k = 2 threshold that only the full overlap |B| passes, and one edge
    # missing at a = 2: every path must name the same first pair
    real = cons.ge_one_minus_k_sqrt
    monkeypatch.setattr(cons, "ge_one_minus_k_sqrt",
                        lambda v, s, e, k=1: real(v, s, e, k) if k == 1 else v >= s)
    f = FieldCtx.prime(53)
    a = FSet(f, [2, 3, 5, 7])
    b = FSet(f, [1, 4, 9, 16, 25])
    g = PairGraph(a, b, [(i, j) for i in range(4) for j in range(5) if (i, j) != (0, 0)])
    h = PairGraph.complete(b, a)
    with pytest.raises(InvariantViolation) as slow:
        literal_partial_ruzsa(g, h, Fraction(1, 5))
    message = "overlap below (1 - 2 sqrt(eps))|B| at (2, 2)"
    assert str(slow.value) == message
    assert failures_on_every_path(g, h, Fraction(1, 5)) == [
        (InvariantViolation, message, None, None)] * len(SCAN_PATHS)


def test_forced_escape_fails_alike_on_every_path(monkeypatch):
    # A -_G B = {8, 9, 18, 19} loses 19 = 20 - 1, which the witness (20, 1)
    # of the difference 20 - 0 reaches; no other witness shares its key
    f = FieldCtx.prime(101)
    a, b, c = FSet(f, [10, 20]), FSet(f, [1, 2]), FSet(f, [0])
    g, h = PairGraph.complete(a, b), PairGraph.complete(b, c)
    real = cons.partial_combine
    monkeypatch.setattr(cons, "partial_combine", lambda graph: (
        a.with_values(real(graph).vals[:-1]) if graph is g else real(graph)))
    assert failures_on_every_path(g, h, Fraction(0)) == [
        (InvariantViolation, "witness image escapes the partial difference sets", None, None)
    ] * len(SCAN_PATHS)


def test_forced_collision_fails_alike_on_every_path():
    # a middle set holding 1 and p + 1, one residue twice, which only a
    # corrupt FSet can: both give every witness pair the same image
    f = FieldCtx.prime(101)
    a, c = FSet(f, [2, 3]), FSet(f, [5])
    b = FSet._from_sorted(f, (1, 102))
    g, h = PairGraph.complete(a, b), PairGraph.complete(b, c)
    failures = failures_on_every_path(g, h, Fraction(0))
    # x = 2 - 5 = 98 is the first difference; b = 1 and b = 102 both give (1, 97)
    assert failures[0][:2] == (CollisionFound, "image (1, 97) reached twice")
    assert {failures[0][2], failures[0][3]} == {(98, 1), (98, 102)}
    assert failures == [failures[0]] * len(SCAN_PATHS)


@pytest.mark.parametrize("empty", "ABC")
def test_partial_ruzsa_empty_side_is_set_too_small(empty):
    f = FieldCtx.prime(101)
    sides = {"A": FSet(f, [2, 3]), "B": FSet(f, [1, 4]), "C": FSet(f, [5, 9])}
    sides[empty] = FSet(f, [])
    g = PairGraph.complete(sides["A"], sides["B"])
    h = PairGraph.complete(sides["B"], sides["C"])
    for path in SCAN_PATHS:
        with scan_path(path), pytest.raises(SetTooSmall):
            partial_ruzsa(g, h, Fraction(0))


@pytest.mark.parametrize("eps", [Fraction(0), Fraction(1, 64), Fraction(3, 16)])
@pytest.mark.parametrize("nb", [0, 1, 2, 7, 100])
def test_least_passing_is_the_threshold(nb, eps):
    least = cons._least_passing(nb, eps, k=2)
    assert all(ge_one_minus_k_sqrt(v, nb, eps, k=2) == (v >= least) for v in range(nb + 1))


# -- k-fold sums ----------------------------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(fp_sets(min_size=0, max_size=5) | st.sets(small_q, max_size=4).map(lambda v: FSet(Q, v)),
       st.lists(st.sampled_from([1, -1]), min_size=1, max_size=5))
@example(FSet(FieldCtx.prime(7), [1, 3]), [1, -1, -1, -1])     # saturates after 3 steps
@example(FSet(FieldCtx.prime(7), [0, 1, 3]), [1, 1, 1, 1, 1])  # saturates after 2 steps
def test_kfold_sum_matches_literal_loop(a, signs):
    assert kfold_sum(a, len(signs), signs) == literal_kfold_sum(a, signs)


def test_kfold_sum_saturated_field_stays_full():
    f = FieldCtx.prime(11)
    a = FSet(f, [0, 1, 2, 3])
    assert len(kfold_sum(a, 4, [1, -1, -1, -1])) == 11
    assert kfold_sum(a, 4, [1, -1, -1, -1]) == literal_kfold_sum(a, [1, -1, -1, -1])


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
