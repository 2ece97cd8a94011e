import random
from fractions import Fraction

import pytest

from expanderlab import (
    FSet,
    FieldCtx,
    PairGraph,
    combine,
    dense_degree_subset,
    greedy_cover,
    injection_witness,
    partial_combine,
    partial_ruzsa,
    plunnecke_witness,
    popular_ratio_graph,
)
from expanderlab.constructions import ge_one_minus_k_sqrt
from expanderlab.errors import (
    BudgetExceeded,
    EpsilonOutOfRange,
    GraphTooSparse,
    ZeroElementPresent,
)
from helpers import PRIMES_TO_101, Q, dense_random_graph, random_fp_set

F7 = FieldCtx.prime(7)
SUBGROUP = FSet(F7, [1, 2, 4])


def test_sqrt_threshold_helper():
    # value >= (1 - sqrt(eps)) * scale with eps = 1/4: threshold scale/2
    assert ge_one_minus_k_sqrt(5, 10, Fraction(1, 4))
    assert ge_one_minus_k_sqrt(50, 100, Fraction(1, 4))
    assert not ge_one_minus_k_sqrt(49, 100, Fraction(1, 4))
    # k = 2, eps = 1/16: threshold scale/2 again
    assert ge_one_minus_k_sqrt(50, 100, Fraction(1, 16), k=2)
    assert not ge_one_minus_k_sqrt(49, 100, Fraction(1, 16), k=2)
    assert ge_one_minus_k_sqrt(100, 100, Fraction(1, 10 ** 9))


def test_popular_ratio_subgroup():
    res = popular_ratio_graph(SUBGROUP, SUBGROUP, Fraction(1, 2))
    assert res.x_set == SUBGROUP
    assert len(res.graph) == 9
    assert res.partial_diff == combine(SUBGROUP, SUBGROUP, "diff")


def test_popular_ratio_tiny_epsilon_gives_complete_graph():
    rng = random.Random(20)
    for _ in range(20):
        p = rng.choice(PRIMES_TO_101)
        a = random_fp_set(rng, p, rng.randint(2, 6), exclude=(0,))
        b = random_fp_set(rng, p, rng.randint(2, 6), exclude=(0,))
        eps = Fraction(1, len(a) * len(b) + 1)
        res = popular_ratio_graph(a, b, eps)
        assert len(res.graph) == len(a) * len(b)


def test_popular_ratio_density_contract():
    rng = random.Random(21)
    for _ in range(50):
        a = random_fp_set(rng, 101, 10, exclude=(0,))
        b = random_fp_set(rng, 101, 10, exclude=(0,))
        res = popular_ratio_graph(a, b, Fraction(1, 4))
        assert len(res.graph) >= Fraction(3, 4) * 100
        # every edge realises a popular ratio at or above the threshold
        mult = {}
        for x in a.vals:
            for y in b.vals:
                r = a.ctx.div(x, y)
                mult[r] = mult.get(r, 0) + 1
        for av, bv in res.graph.value_edges():
            r = a.ctx.div(av, bv)
            assert r in res.x_set.member_set()
            assert mult[r] >= res.threshold


def test_popular_ratio_guards():
    with pytest.raises(EpsilonOutOfRange):
        popular_ratio_graph(SUBGROUP, SUBGROUP, Fraction(1))
    with pytest.raises(ZeroElementPresent):
        popular_ratio_graph(FSet(F7, [0, 1]), SUBGROUP, Fraction(1, 2))


def test_injection_empty_graph():
    g = PairGraph(SUBGROUP, SUBGROUP, [])
    res = injection_witness(SUBGROUP, SUBGROUP, g)
    assert res.s_size == 0


def test_injection_subgroup_complete():
    g = PairGraph.complete(SUBGROUP, SUBGROUP)
    res = injection_witness(SUBGROUP, SUBGROUP, g, epsilon=Fraction(1, 2))
    # |S| = sum over the 7 partial differences of the multiplicity of the
    # representative's ratio; every ratio of the subgroup has multiplicity 3
    assert res.s_size == 3 * len(partial_combine(g))
    assert res.s_size <= res.image_bound


def test_injection_random_no_collisions():
    rng = random.Random(22)
    for _ in range(40):
        p = rng.choice(PRIMES_TO_101)
        a = random_fp_set(rng, p, rng.randint(2, 8), exclude=(0,))
        b = random_fp_set(rng, p, rng.randint(2, 8), exclude=(0,))
        eps = Fraction(1, 4)
        res = popular_ratio_graph(a, b, eps)
        out = injection_witness(a, b, res.graph, epsilon=eps)
        assert out.s_size <= out.image_bound
        assert out.lower_bound_lhs is not None


def test_dense_degree_complete():
    g = PairGraph.complete(SUBGROUP, SUBGROUP)
    assert dense_degree_subset(g, Fraction(1, 8)) == SUBGROUP


def test_dense_degree_missing_one_edge():
    ctx = FieldCtx.prime(31)
    a = FSet(ctx, [1, 2, 3, 4])
    b = FSet(ctx, [5, 6, 7, 8])
    edges = [(i, j) for i in range(4) for j in range(4) if (i, j) != (0, 0)]
    g = PairGraph(a, b, edges)
    assert dense_degree_subset(g, Fraction(1, 16)) == a


def test_dense_degree_contract_random():
    rng = random.Random(23)
    for _ in range(60):
        p = rng.choice(PRIMES_TO_101)
        a = random_fp_set(rng, p, rng.randint(3, 9), exclude=())
        b = random_fp_set(rng, p, rng.randint(3, 9), exclude=())
        eps = Fraction(1, rng.choice([8, 16, 64]))
        g = dense_random_graph(rng, a, b, eps)
        sub = dense_degree_subset(g, eps)
        assert ge_one_minus_k_sqrt(len(sub), len(a), eps)
        thresh_check = [d for v, d in zip(a.vals, g.left_degrees())
                        if v in sub.member_set()]
        for d in thresh_check:
            assert ge_one_minus_k_sqrt(d, len(b), eps)


def test_dense_degree_idempotent():
    rng = random.Random(24)
    for _ in range(20):
        a = random_fp_set(rng, 53, 7, exclude=())
        b = random_fp_set(rng, 53, 7, exclude=())
        eps = Fraction(1, 16)
        g = dense_random_graph(rng, a, b, eps)
        first = dense_degree_subset(g, eps)
        # restricting the graph to the kept rows and reapplying keeps them all
        keep = {i for i, v in enumerate(a.vals) if v in first.member_set()}
        g2 = PairGraph(first, b,
                       [(sorted(keep).index(i), j) for i, j in g.edges if i in keep])
        assert dense_degree_subset(g2, eps) == first


def test_dense_degree_sparse_graph_rejected():
    g = PairGraph(SUBGROUP, SUBGROUP, [(0, 0)])
    with pytest.raises(GraphTooSparse):
        dense_degree_subset(g, Fraction(1, 16))


def test_greedy_cover_single_translate():
    ctx = FieldCtx.prime(101)
    b = FSet(ctx, [3, 5, 9, 11])
    a = FSet(ctx, [(v + 7) % 101 for v in b.vals])
    g = PairGraph.complete(a, b)
    res = greedy_cover(a, b, g, Fraction(1, 16), "+")
    assert res.iterations == 1 and res.translates == (7,)
    assert res.covered == a


def test_greedy_cover_self_zero_shift():
    a = FSet(FieldCtx.prime(101), [2, 3, 5, 7])
    g = PairGraph.complete(a, a)
    res = greedy_cover(a, a, g, Fraction(1, 16), "+")
    assert res.translates == (0,)


def test_greedy_cover_contract_random():
    rng = random.Random(25)
    for _ in range(40):
        p = rng.choice([53, 59, 61, 67, 101])
        a = random_fp_set(rng, p, rng.randint(4, 10), exclude=())
        b = random_fp_set(rng, p, rng.randint(4, 10), exclude=())
        for eps in (Fraction(1, 16), Fraction(1, 64)):
            g = dense_random_graph(rng, a, b, eps)
            sign = rng.choice(["+", "-"])
            res = greedy_cover(a, b, g, eps, sign)
            assert ge_one_minus_k_sqrt(len(res.covered), len(a), eps, k=2)
            assert res.iterations == len(res.translates)
            assert sum(c for _, c in res.per_step) == len(res.covered)


def test_greedy_cover_guards():
    g = PairGraph.complete(SUBGROUP, SUBGROUP)
    with pytest.raises(EpsilonOutOfRange):
        greedy_cover(SUBGROUP, SUBGROUP, g, Fraction(1, 2), "+")
    sparse = PairGraph(SUBGROUP, SUBGROUP, [(0, 0)])
    with pytest.raises(GraphTooSparse):
        greedy_cover(SUBGROUP, SUBGROUP, sparse, Fraction(1, 16), "+")


def test_partial_ruzsa_complete_is_triangle():
    ctx = FieldCtx.prime(101)
    a = FSet(ctx, [2, 3, 5, 7, 11])
    g = PairGraph.complete(a, a)
    res = partial_ruzsa(g, g, Fraction(0))
    assert res.a_side == a and res.c_side == a
    # with eps = 0 the certified inequality is |A - A| |A| <= |A - A|^2
    d = len(combine(a, a, "diff"))
    assert len(res.diff_ac) == d
    assert d * len(a) <= d * d


def test_partial_ruzsa_random():
    rng = random.Random(26)
    for _ in range(30):
        p = rng.choice([53, 59, 101])
        a = random_fp_set(rng, p, rng.randint(3, 8), exclude=())
        b = random_fp_set(rng, p, rng.randint(3, 8), exclude=())
        c = random_fp_set(rng, p, rng.randint(3, 8), exclude=())
        eps = Fraction(1, 64)
        g = dense_random_graph(rng, a, b, eps)
        h = dense_random_graph(rng, b, c, eps)
        res = partial_ruzsa(g, h, eps)
        # the certified counting inequality, re-checked here in squared form
        lhs = len(g.right) * len(res.diff_ac)
        rhs = len(res.partial_ab) * len(res.partial_bc)
        assert ge_one_minus_k_sqrt(rhs, lhs, eps, k=2) or rhs >= lhs


def test_plunnecke_identity_case():
    a = FSet(Q, [1, 2, 5])
    x = FSet(Q, [0, 3])
    res = plunnecke_witness(a, [x])
    assert res.slack <= 1


def test_plunnecke_progression():
    ap = FSet(Q, range(5))
    res = plunnecke_witness(ap, [ap, ap])
    assert res.slack == Fraction(55, 81)
    assert res.subset.vals == (0, 1, 2)
    assert res.iterated_size == 11
    assert res.single_sizes == (9, 9)


def test_plunnecke_random_finite():
    rng = random.Random(27)
    a = random_fp_set(rng, 101, 8, exclude=())
    xs = [random_fp_set(rng, 101, 4, exclude=()) for _ in range(2)]
    res = plunnecke_witness(a, xs)
    assert res.slack > 0
    assert 2 * len(res.subset) >= len(a)


def test_plunnecke_budget():
    big = FSet(Q, range(11))
    with pytest.raises(BudgetExceeded):
        plunnecke_witness(big, [big])


def test_energy_cs_bound_on_dense_graphs():
    # E+(A*, B) |A -_G B| >= |G*|^2 for the dense-degree rows of dense graphs
    from expanderlab import additive_energy

    rng = random.Random(28)
    for _ in range(30):
        p = rng.choice([53, 101])
        a = random_fp_set(rng, p, rng.randint(4, 9), exclude=())
        b = random_fp_set(rng, p, rng.randint(4, 9), exclude=())
        eps = Fraction(1, 16)
        g = dense_random_graph(rng, a, b, eps)
        astar = dense_degree_subset(g, eps)
        kept = {i for i, v in enumerate(a.vals) if v in astar.member_set()}
        gstar = sum(1 for i, _ in g.edges if i in kept)
        pdiff = len(partial_combine(g))
        assert additive_energy(astar, b) * pdiff >= gstar ** 2
