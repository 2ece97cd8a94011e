import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expanderlab import (
    FieldCtx,
    FSet,
    PairGraph,
    affine_image,
    combine,
    expander_set,
    kfold_sum,
    load_set,
    partial_combine,
    save_set,
)
from expanderlab.errors import (
    ContextMismatch,
    DivisionByZero,
    InvalidSetFile,
    ZeroDilation,
)
from helpers import PRIMES_TO_101, Q, random_fp_set, random_q_set

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
    assert kfold_sum(a, 1, [1]) == a
    assert kfold_sum(a, 2, [1, -1]).vals == (0, 1, 4)
    c = FSet(F7, [1, 2, 4])
    four = kfold_sum(c, 4, [1, 1, 1, 1])
    brute = {(w + x + y + z) % 7 for w in c.vals for x in c.vals
             for y in c.vals for z in c.vals}
    assert set(four.vals) == brute
    assert len(four) <= min(7, len(c) ** 4)
    with pytest.raises(ValueError):
        kfold_sum(a, 2, [1])


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
    assert g.transpose().value_edges() == [(3, 1), (4, 2)]
    with pytest.raises(ValueError):
        PairGraph(a, b, [(0, 5)])


@pytest.mark.parametrize("edge", [(0, 2), (2, 0), (-1, 0), (0, -1)])
def test_pairgraph_rejects_an_out_of_range_edge(edge):
    a = FSet(F7, [1, 2])
    b = FSet(F7, [3, 4])
    with pytest.raises(ValueError, match="out of range 2x2"):
        PairGraph(a, b, [(0, 0), edge])


@settings(max_examples=60, deadline=None)
@given(st.sets(st.integers(1, 12), min_size=1, max_size=6),
       st.sets(st.integers(1, 12), min_size=1, max_size=6), st.data())
def test_pairgraph_transpose_twice_is_the_graph(left, right, data):
    a, b = FSet(FieldCtx.prime(13), left), FSet(FieldCtx.prime(13), right)
    pairs = [(i, j) for i in range(len(a)) for j in range(len(b))]
    g = PairGraph(a, b, data.draw(st.sets(st.sampled_from(pairs))))
    t = g.transpose()
    assert (t.left, t.right) == (b, a)
    assert t.value_edges() == sorted((y, x) for x, y in g.value_edges())
    assert t.transpose() == g


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
    assert sum(g.left_degrees()) == len(g)


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
