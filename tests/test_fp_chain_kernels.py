"""Differential tests of the prime-field pipeline's one-pass kernels.

The twist spectrum, `partial_ruzsa`, `popular_ratio_graph`, `greedy_cover`
and `kfold_sum` are each compared with a literal copy of the per-pair
(or per-quadruple) loop they replace, written out in this file.
"""
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
    expander_set,
    finite_field_pipeline,
    greedy_cover,
    kfold_sum,
    partial_combine,
    partial_ruzsa,
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
from expanderlab.errors import FieldMismatch, InvariantViolation
from helpers import Q, dense_random_graph

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
    pdiff = partial_combine(graph, "diff")
    shape = Fraction(len(expander_set(a, b)) * len(expander_set(b, a)) * len(mult), na * nb)
    return PopularRatioResult(
        x_set=a.with_values(popular),
        graph=graph,
        epsilon=eps,
        threshold=threshold,
        partial_diff=pdiff,
        bound_rhs_shape=shape,
        slack=Fraction(len(pdiff)) / shape,
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
    pab = partial_combine(g, "diff")
    pbc = partial_combine(h, "diff")
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


@settings(max_examples=150, deadline=None)
@given(triangle_inputs())
def test_partial_ruzsa_matches_literal_algorithm(inputs):
    g, h, eps = inputs
    assert partial_ruzsa(g, h, eps) == literal_partial_ruzsa(g, h, eps)


def test_partial_ruzsa_complete_graphs_at_eps_zero():
    f = FieldCtx.prime(101)
    a, b, c = FSet(f, [2, 3, 5, 7, 11]), FSet(f, [1, 4, 9]), FSet(f, [0, 50, 60, 99])
    g, h = PairGraph.complete(a, b), PairGraph.complete(b, c)
    res = partial_ruzsa(g, h, Fraction(0))
    assert res == literal_partial_ruzsa(g, h, Fraction(0))
    assert res.y_size == len(b) * len(res.diff_ac)


def test_partial_ruzsa_failure_replays_the_literal_error(monkeypatch):
    # a k = 2 threshold that only the full overlap |B| passes, and one edge
    # missing at a = 2: both versions must name the same first pair
    real = cons.ge_one_minus_k_sqrt
    monkeypatch.setattr(cons, "ge_one_minus_k_sqrt",
                        lambda v, s, e, k=1: real(v, s, e, k) if k == 1 else v >= s)
    f = FieldCtx.prime(53)
    a = FSet(f, [2, 3, 5, 7])
    b = FSet(f, [1, 4, 9, 16, 25])
    g = PairGraph(a, b, [(i, j) for i in range(4) for j in range(5) if (i, j) != (0, 0)])
    h = PairGraph.complete(b, a)
    with pytest.raises(InvariantViolation) as fast:
        partial_ruzsa(g, h, Fraction(1, 5))
    with pytest.raises(InvariantViolation) as slow:
        literal_partial_ruzsa(g, h, Fraction(1, 5))
    assert str(fast.value) == str(slow.value) == "overlap below (1 - 2 sqrt(eps))|B| at (2, 2)"


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
