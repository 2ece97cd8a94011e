import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from expanderlab import (
    FieldCtx,
    FSet,
    PairGraph,
    affine_image,
    combine,
    expander_set,
    kfold_size,
    load_set,
    partial_combine,
    popular_ratio_graph,
    save_set,
    sumset_size,
)
from expanderlab.errors import (
    ContextMismatch,
    DivisionByZero,
    ExpanderlabError,
    InvalidKernelArgument,
    InvalidSetFile,
    ZeroDilation,
)
from helpers import (
    PRIMES_TO_101,
    Q,
    neighbour_masks,
    random_fp_set,
    random_q_set,
    transpose,
)
from test_fp_chain_kernels import literal_kfold_sum

F5 = FieldCtx.prime(5)
F7 = FieldCtx.prime(7)


def brute_combine(a, b, op):
    ctx = a.ctx
    fn = {"sum": ctx.add, "diff": ctx.sub, "prod": ctx.mul, "ratio": ctx.div}[op]
    return sorted({fn(x, y) for x in a.vals for y in b.vals})


def test_fset_canonicalisation():
    s = FSet(F7, [9, 2, 2, -5])
    assert s.vals == (2,)
    s2 = FSet(Q, ["3/6", Fraction(1, 2), 2])
    assert s2.vals == (Fraction(1, 2), Fraction(2))


def test_combine_examples():
    a = FSet(F5, [0, 1])
    b = FSet(F5, [0, 2])
    assert combine(a, b, "sum").vals == (0, 1, 2, 3)
    assert combine(a, FSet(F5, [0]), "sum") == a
    sub = FSet(F7, [1, 2, 4])
    assert combine(sub, sub, "ratio").vals == (1, 2, 4)


def test_combine_matches_bruteforce():
    rng = random.Random(0)
    for _ in range(40):
        p = rng.choice(PRIMES_TO_101)
        a = random_fp_set(rng, p, rng.randint(1, 8), exclude=())
        b = random_fp_set(rng, p, rng.randint(1, 8), exclude=(0,))
        for op in ("sum", "diff", "prod", "ratio"):
            assert list(combine(a, b, op).vals) == brute_combine(a, b, op)


@settings(max_examples=60, derandomize=True)
@given(
    a=st.sets(st.fractions(max_denominator=6), min_size=1, max_size=6),
    b=st.sets(st.fractions(max_denominator=6), min_size=1, max_size=6),
)
def test_combine_properties_rational(a, b):
    A, B = FSet(Q, a), FSet(Q, b)
    for op in ("sum", "prod"):
        left = combine(A, B, op)
        assert len(left) <= len(A) * len(B)
        assert left == combine(B, A, op)


def test_combine_size_capped_by_field():
    a = FSet(F5, range(5))
    assert len(combine(a, a, "sum")) <= 5


def test_ratio_rejects_zero_denominator():
    with pytest.raises(DivisionByZero):
        combine(FSet(F7, [1]), FSet(F7, [0, 1]), "ratio")


def test_context_mismatch():
    with pytest.raises(ContextMismatch):
        combine(FSet(F5, [1]), FSet(F7, [1]), "sum")


def test_expander_examples():
    a = FSet(F7, [1, 2])
    assert expander_set(a, a).vals == (2, 3, 4, 6)
    b = FSet(F7, [2, 4])
    assert expander_set(b, b).vals == (3, 5, 6)
    z = FSet(F7, [0])
    assert expander_set(z, z).vals == (0,)


def test_expander_floor_invariant():
    rng = random.Random(1)
    for _ in range(50):
        p = rng.choice(PRIMES_TO_101)
        a = random_fp_set(rng, p, rng.randint(1, 8), exclude=())
        if a.vals == (p - 1,):
            continue
        assert len(expander_set(a, a)) >= len(a)


def test_kfold_examples():
    a = FSet(F5, [0, 1])
    assert literal_kfold_sum(a, [1]) == a
    assert literal_kfold_sum(a, [1, -1]).vals == (0, 1, 4)
    for signs in ([1], [1, -1]):
        assert kfold_size(a, signs) == len(literal_kfold_sum(a, signs))
    c = FSet(F7, [1, 2, 4])
    brute = {(w + x + y + z) % 7 for w in c.vals for x in c.vals
             for y in c.vals for z in c.vals}
    assert set(literal_kfold_sum(c, [1, 1, 1, 1]).vals) == brute
    assert kfold_size(c, [1, 1, 1, 1]) == len(literal_kfold_sum(c, [1, 1, 1, 1]))
    for signs in ([], [1, 2], [0]):
        with pytest.raises(ValueError):
            kfold_size(a, signs)



KERNEL_ARGUMENT_ERRORS = [
    ("combine", lambda a: combine(a, a, "expand")),
    ("combine", lambda a: combine(a, a, "")),
    ("sumset_size", lambda a: sumset_size(a, a, "prod")),
    ("sumset_size", lambda a: sumset_size(a, a, "ratio")),
    ("kfold_size", lambda a: kfold_size(a, [])),
    ("kfold_size", lambda a: kfold_size(a, [1, 2])),
    ("kfold_size", lambda a: kfold_size(a, [0])),
]


@pytest.mark.parametrize("a", [FSet(F7, [1, 2]), FSet(Q, [Fraction(1, 2), 3])], ids=["fp", "q"])
@pytest.mark.parametrize("name, call", KERNEL_ARGUMENT_ERRORS,
                         ids=[f"{name}-{k}" for k, (name, _) in enumerate(KERNEL_ARGUMENT_ERRORS)])
def test_kernel_argument_errors_are_expanderlab_errors(name, call, a):
    # one class for every bad kernel argument, still a ValueError for
    # callers that caught one before
    with pytest.raises(InvalidKernelArgument) as err:
        call(a)
    assert isinstance(err.value, ExpanderlabError) and isinstance(err.value, ValueError)


def test_affine_image():
    a = FSet(F7, [1, 2])
    assert affine_image(a, 1, 0) == a
    assert affine_image(a, 2, 1).vals == (3, 5)
    assert len(affine_image(a, 3, 6)) == len(a)
    with pytest.raises(ZeroDilation):
        affine_image(a, 0, 1)


def test_pairgraph_basics():
    a = FSet(F7, [1, 2])
    b = FSet(F7, [3, 4])
    g = PairGraph(a, b, [(0, 0), (1, 1)])  # the value pairs (1, 3) and (2, 4)
    assert len(g) == 2
    assert g.left_degrees() == [1, 1]
    assert partial_combine(g).vals == (5,)
    assert transpose(g).value_edges() == [(3, 1), (4, 2)]
    with pytest.raises(ValueError):
        PairGraph(a, b, [(0, 5)])


@pytest.mark.parametrize("edge", [(0, 2), (2, 0), (-1, 0), (0, -1),
                                  (0.7, 0), (0, 1.0), ("1", 0), (True, 0), (0, False),
                                  0, (0,), (0, 0, 1), None])
def test_pairgraph_rejects_an_out_of_range_edge(edge):
    # a float, a str or a bool is no index, even where int() of it is one,
    # and an edge that is not a pair has no index at all
    a = FSet(F7, [1, 2])
    b = FSet(F7, [3, 4])
    with pytest.raises(ValueError, match="out of range 2x2") as err:
        PairGraph(a, b, [(0, 0), edge])
    assert isinstance(err.value, ExpanderlabError)


SIDE_SIZES = (0, 1, 2, 5, 64, 70)


@st.composite
def graph_sides(draw, nonzero=False):
    """Two sets over F_p (p = 2, 5 or 1009) or over Q, of sizes drawn from
    SIDE_SIZES (at least 1 when `nonzero`, which also leaves 0 out), so that
    0 x n and n x 0 graphs and |right| >= 64 all come up."""
    p = draw(st.sampled_from([2, 5, 1009, None]))
    lo = int(nonzero)
    if p is None:
        ctx = Q
        nums = st.integers(-150, 150).filter(lambda k: k or not nonzero)
        members, room = st.builds(Fraction, nums, st.integers(1, 4)), 300
    else:
        ctx, members, room = FieldCtx.prime(p), st.integers(lo, p - 1), p - lo
    sides = []
    for _ in range(2):
        n = min(max(draw(st.sampled_from(SIDE_SIZES)), lo), room)
        sides.append(FSet(ctx, draw(st.sets(members, min_size=n, max_size=n))))
    return tuple(sides)


@st.composite
def edge_sets(draw):
    """(A, B, E) for sides from graph_sides and any set E of index pairs."""
    a, b = draw(graph_sides())
    rng = random.Random(draw(st.integers(0, 2 ** 16)))
    density = draw(st.sampled_from([0, 0.2, 0.9, 1]))
    pairs = itertools.product(range(len(a)), range(len(b)))
    return a, b, frozenset(e for e in pairs if rng.random() < density)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(edge_sets())
@example((FSet(F5, []), FSet(F5, [1, 2, 3]), frozenset()))
@example((FSet(Q, [Fraction(1, 2), 3]), FSet(Q, []), frozenset()))
@example((FSet(FieldCtx.prime(1009), [0, 7]), FSet(FieldCtx.prime(1009), range(3, 73)),
          frozenset({(0, 0), (0, 63), (0, 64), (1, 69)})))
def test_flag_graph_matches_its_edge_set(case):
    a, b, edges = case
    nl, nr = len(a), len(b)
    g = PairGraph(a, b, sorted(edges) * 2)  # a repeated edge is one edge
    assert g.edges == edges and len(g) == len(edges) and len(g.flags) == nl * nr
    assert g.left_degrees() == [sum(i == r for i, _ in edges) for r in range(nl)]
    assert g.right_degrees() == [sum(j == c for _, j in edges) for c in range(nr)]
    rows, cols = range(nl - 1, -1, -1), range(nr - 1, -1, -1)
    assert g.row_masks(rows) == neighbour_masks(edges, nl, rows)
    assert g.column_masks(cols) == neighbour_masks({(j, i) for i, j in edges}, nr, cols)
    assert g.value_edges() == sorted((a.vals[i], b.vals[j]) for i, j in edges)
    assert PairGraph(a, b, g.edges) == g and hash(PairGraph(a, b, g.edges)) == hash(g)
    full = PairGraph.complete(a, b)
    assert full.edges == set(itertools.product(range(nl), range(nr)))
    assert full == PairGraph(a, b, full.edges) and hash(full) == hash(PairGraph(a, b, full.edges))
    assert (full == g) == (len(edges) == nl * nr)
    assert full.left_degrees() == [nr] * nl and full.right_degrees() == [nl] * nr


@settings(max_examples=100, derandomize=True, deadline=None)
@given(graph_sides(nonzero=True),
       st.sampled_from([Fraction(1, 64), Fraction(1, 4), Fraction(1, 2)]))
def test_popular_ratio_graph_equals_the_graph_of_its_edge_set(sides, eps):
    a, b = sides
    res = popular_ratio_graph(a, b, eps)
    div = a.ctx.div
    want = {(i, j) for i, x in enumerate(a.vals) for j, y in enumerate(b.vals)
            if div(x, y) in res.x_set}
    g = PairGraph(a, b, want)
    assert res.graph.edges == want
    assert res.graph == g and hash(res.graph) == hash(g)


@settings(max_examples=60, deadline=None)
@given(st.sets(st.integers(1, 12), min_size=1, max_size=6),
       st.sets(st.integers(1, 12), min_size=1, max_size=6), st.data())
def test_pairgraph_transpose_twice_is_the_graph(left, right, data):
    a, b = FSet(FieldCtx.prime(13), left), FSet(FieldCtx.prime(13), right)
    pairs = [(i, j) for i in range(len(a)) for j in range(len(b))]
    g = PairGraph(a, b, data.draw(st.sets(st.sampled_from(pairs))))
    t = transpose(g)
    assert (t.left, t.right) == (b, a)
    assert t.value_edges() == sorted((y, x) for x, y in g.value_edges())
    assert transpose(t) == g
    assert g.right_degrees() == t.left_degrees()


def test_partial_combine_complete_and_empty():
    a = FSet(F7, [1, 2, 3])
    b = FSet(F7, [2, 5])
    assert partial_combine(PairGraph.complete(a, b)) == combine(a, b, "diff")
    assert len(partial_combine(PairGraph(a, b, []))) == 0


def test_partial_subset_of_full():
    rng = random.Random(2)
    for _ in range(30):
        p = rng.choice(PRIMES_TO_101)
        a = random_fp_set(rng, p, 5, exclude=(0,))
        b = random_fp_set(rng, p, 5, exclude=(0,))
        edges = [(i, j) for i in range(len(a)) for j in range(len(b)) if rng.random() < 0.5]
        g = PairGraph(a, b, edges)
        assert partial_combine(g).is_subset(combine(a, b, "diff"))


def test_degree_sum_equals_edge_count():
    rng = random.Random(3)
    a = random_fp_set(rng, 31, 6, exclude=())
    b = random_fp_set(rng, 31, 4, exclude=())
    edges = [(i, j) for i in range(6) for j in range(4) if rng.random() < 0.7]
    g = PairGraph(a, b, edges)
    assert sum(g.left_degrees()) == sum(g.right_degrees()) == len(g)


def test_json_roundtrip(tmp_path):
    s = FSet(FieldCtx.prime(101), [3, 5, 9])
    path = tmp_path / "s.json"
    save_set(s, path)
    assert load_set(path) == s
    q = random_q_set(random.Random(4), 5)
    save_set(q, tmp_path / "q.json")
    assert load_set(tmp_path / "q.json") == q


def test_loader_deduplicates_and_sorts(tmp_path):
    path = tmp_path / "dup.json"
    path.write_text(json.dumps({"field": "fp", "p": 11, "elements": [5, 3, 5]}))
    assert load_set(path).vals == (3, 5)


@pytest.mark.parametrize("doc", [
    {"field": "fp", "p": 101, "elements": [3, 101]},
    {"field": "fp", "p": 101, "elements": [-1]},
    {"field": "fp", "p": 101, "elements": ["3"]},
    {"field": "fp", "elements": [1]},
    {"field": "gf4", "elements": [1]},
    {"field": "q", "elements": [2]},
    {"field": "q"},
    {"elements": [1]},
])
def test_loader_rejections(tmp_path, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(InvalidSetFile):
        load_set(path)


def test_loader_rejects_composite_modulus(tmp_path):
    from expanderlab.errors import NonPrimeModulus

    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"field": "fp", "p": 6, "elements": [1]}))
    with pytest.raises(NonPrimeModulus):
        load_set(path)


def test_loader_rejects_out_of_range(tmp_path):
    path = tmp_path / "oor.json"
    path.write_text(json.dumps({"field": "fp", "p": 7, "elements": [7]}))
    with pytest.raises(InvalidSetFile):
        load_set(path)
