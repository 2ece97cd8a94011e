"""F_p sumset sizes on residue masks against the sets they count.

`sets.sumset_size` and `sets.kfold_size` count X + Y, X - Y and signed k-fold
sums without building them: over F_p on p-bit residue masks where
`sets._residue_masks_cheaper` says so, and otherwise from the pair kernel.
Each property runs with that rule patched to each answer, so both paths meet
the same oracle (the size of `combine`, and `literal_kfold_sum`) at F_2, F_3
and F_5, at primes on either side of a multiple of 64 bits, and at p = 1031
and 40009.  The dispatch tests pin where a pipeline-sized count takes masks,
and that none is built at p = 10^9 + 7, where one mask would take 125 MB.
"""
import json
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from expanderlab import FieldCtx, FSet, combine, kfold_size, sets, sumset_size
from expanderlab.cli import main
from expanderlab.errors import ContextMismatch
from helpers import Q
from test_fp_chain_kernels import literal_kfold_sum

TINY = (2, 3, 5)
WORD_EDGE = (61, 67, 127, 131, 193, 257)  # p on either side of 64, 128, 192 and 256 bits
LARGE = (1031, 40009)
PRIMES = TINY + WORD_EDGE + LARGE


def on_each_path(count):
    """count() with the rule patched to take residue masks, then pairs, and
    then with the rule as it is, which can switch a k-fold sum midway."""
    sizes = []
    for masks in (True, False):
        with mock.patch.object(sets, "_residue_masks_cheaper", lambda p, nx, ny: masks):
            sizes.append(count())
    return sizes + [count()]


@st.composite
def fp_sets(draw, p, max_size):
    """A random set, or an arithmetic progression that may wrap past p - 1,
    which keeps many sums equal at any p; either may hold 0 and p - 1."""
    ctx = FieldCtx.prime(p)
    if draw(st.booleans()):
        members = st.integers(0, p - 1) | st.sampled_from([0, p - 1])
        return FSet(ctx, draw(st.sets(members, max_size=max_size)))
    start = draw(st.integers(0, p - 1) | st.sampled_from([0, p - 1]))
    step = draw(st.integers(1, p - 1) | st.just(1))
    return FSet(ctx, ((start + k * step) % p for k in range(draw(st.integers(0, max_size)))))


@st.composite
def fp_set_pairs(draw, max_size=24):
    p = draw(st.sampled_from(PRIMES))
    return draw(fp_sets(p, max_size)), draw(fp_sets(p, max_size))


q_set_pairs = st.tuples(*[st.sets(st.builds(Fraction, st.integers(-20, 20), st.integers(1, 6)),
                                  max_size=7).map(lambda v: FSet(Q, v))] * 2)


def fp(p, vals):
    return FSet(FieldCtx.prime(p), vals)


# -- X + Y and X - Y ---------------------------------------------------------------------

@settings(max_examples=400, deadline=None)
@given(fp_set_pairs() | q_set_pairs, st.sampled_from(["sum", "diff"]))
@example((fp(2, []), fp(2, [])), "sum")
@example((fp(2, [0, 1]), fp(2, [1])), "diff")
@example((fp(3, [2]), fp(3, [0, 2])), "sum")
@example((fp(5, [0, 4]), fp(5, [4])), "diff")
@example((fp(61, [60]), fp(61, [])), "diff")
@example((fp(67, [0, 66]), fp(67, [66])), "sum")
@example((fp(257, [0, 256]), fp(257, range(0, 257, 2))), "sum")
@example((fp(40009, [0]), fp(40009, [40008])), "diff")
@example((fp(1031, range(1000, 1031)), fp(1031, range(20))), "sum")
def test_sumset_size_is_the_size_of_combine(pair, op):
    a, b = pair
    want = len(combine(a, b, op))
    assert on_each_path(lambda: sumset_size(a, b, op)) == [want] * 3
    assert sumset_size(b, a, op) == want


def test_sumset_size_rejects_what_combine_rejects():
    a = fp(7, [1, 2])
    with pytest.raises(ValueError):
        sumset_size(a, a, "prod")
    with pytest.raises(ContextMismatch):
        sumset_size(a, fp(11, [1]), "sum")


# -- signed k-fold sums ------------------------------------------------------------------

@st.composite
def kfold_inputs(draw):
    p = draw(st.sampled_from(PRIMES))
    return draw(fp_sets(p, 6)), draw(st.lists(st.sampled_from([1, -1]), min_size=1, max_size=4))


@settings(max_examples=300, deadline=None)
@given(kfold_inputs())
@example((fp(2, [1]), [1, 1, 1]))
@example((fp(3, []), [1, -1]))
@example((fp(5, [0, 4]), [-1, -1, 1]))
@example((fp(61, [0, 60]), [1, -1, -1, -1]))
@example((fp(193, [5]), [1, 1, 1, 1]))
@example((fp(40009, [0, 1, 40008]), [1, -1, -1, -1]))
def test_kfold_size_is_the_size_of_the_literal_sum(inputs):
    a, signs = inputs
    want = len(literal_kfold_sum(a, signs))
    assert on_each_path(lambda: kfold_size(a, signs)) == [want] * 3


def test_kfold_size_over_q():
    a = FSet(Q, [Fraction(1, 2), Fraction(-2, 3), 3])
    for signs in ([1], [1, -1], [-1, -1, 1, 1]):
        assert kfold_size(a, signs) == len(literal_kfold_sum(a, signs))


def test_a_saturating_kfold_sum_stops_at_the_field():
    # 20 consecutive residues: 7 steps reach all 131 of F_131, 12 are asked
    a, signs = fp(131, range(111, 131)), [1, -1] * 6
    assert len(literal_kfold_sum(a, signs)) == 131
    steps = []
    real = sets._translates
    with mock.patch.object(sets, "_translates",
                           lambda *args: steps.append(args[1]) or real(*args)):
        assert on_each_path(lambda: kfold_size(a, signs)) == [131] * 3
    # 7 on masks only, and 6 once the rule takes masks at the second step
    assert steps == [131] * (7 + 6)


# -- the dispatch ------------------------------------------------------------------------

def spy_masks(monkeypatch):
    """The width of every mask, log or residue, built from here on."""
    built = []
    real = sets._mask_of
    monkeypatch.setattr(sets, "_mask_of",
                        lambda ints, width: built.append(width) or real(ints, width))
    return built


@pytest.mark.parametrize("p, nx, ny, masks", [
    (1031, 80, 80, True),      # masks measured 31x faster
    (40009, 3000, 80, True),   # 44x
    (40009, 5, 5, False),      # pairs 5x faster
    (160001, 20, 20, False),   # 6x
    (1000003, 80, 80, False),  # 7x
    (1000003, 768, 256, True),  # masks 2.7-4.1x faster
    (1000003, 384, 64, False),  # pairs 1.2-1.4x faster
])
def test_the_rule_takes_the_path_measured_faster(p, nx, ny, masks):
    # single calls of sumset_size on CPython 3.11, random sets, best of 5
    assert sets._residue_masks_cheaper(p, nx, ny) is masks


def test_a_huge_prime_builds_no_mask(monkeypatch, tmp_path):
    p = 10 ** 9 + 7  # one residue mask: a 125 MB int
    paths = []
    for name, vals in (("A", range(5, 15)), ("B", [2, 7, 11, 90]), ("C", [3, 8, 400, p - 2])):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps({"field": "fp", "p": p, "elements": list(vals)}))
    built = spy_masks(monkeypatch)
    out = tmp_path / "out.json"
    assert main(["pipeline", str(paths[0]), "--mode", "fp", "--out", str(out)]) == 0
    # the RneqFp branch reaches every size call of the pipeline
    assert json.loads(out.read_text())["selected"]["branch"] == "RneqFp"
    assert main(["verify", *map(str, paths), "--relation", "R1", "--out", str(out)]) == 0
    assert built == []


def test_a_benchmark_sized_kfold_sum_takes_masks_by_its_third_step(monkeypatch):
    p = 40009
    a = fp(p, random.Random(80).sample(range(2, p - 1), 80))
    assert sets._residue_masks_cheaper(p, sumset_size(a, a, "diff"), len(a))
    built = spy_masks(monkeypatch)
    steps = []
    real = sets._translates
    monkeypatch.setattr(sets, "_translates", lambda *args: steps.append(args[1]) or real(*args))
    assert kfold_size(a, (1, -1, -1, -1)) == len(literal_kfold_sum(a, (1, -1, -1, -1)))
    assert built == [p]
    assert len(steps) >= 2  # the third and fourth steps, at least, on one mask
