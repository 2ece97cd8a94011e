"""The registry table, the one enclosure decider and the base-point count.

The sha256 pins below were recorded with the 14-branch dispatch and the
separate refinement loops that `check`'s table lookup and `verify._decide`
replaced, so they pin every report and trace byte at the default precision
cap.  The hypothesis tests compare `_decide`, `energy`, `energy_at` and the
fp pipeline's base-point choice with literal copies of the loops they
replaced.
"""
import hashlib
import json
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from expanderlab import FieldCtx, FSet, combine, finite_field_pipeline, real_pipeline
from expanderlab.energy import (
    PRECISION_CAP_DEFAULT,
    PRECISION_START,
    MultiplicityHistogram,
    energy,
    energy_at,
    histogram,
    multiplicative_energy,
    precision_cap,
)
from expanderlab.errors import FieldMismatch, PrecisionCapExceeded
from expanderlab.intervals import iroot_floor
from expanderlab.verify import FAILS, HOLDS, INCONCLUSIVE, REGISTRY, _decide, check
from helpers import Q, is_point, old_e15_capped, old_energy_loop, rat_interval_energy_at

P101 = FieldCtx.prime(101)
INSTANCES = {
    "q": (FSet(Q, [2, 3, 5, Fraction(7, 2), Fraction(-3, 2), Fraction(4, 3)]),
          FSet(Q, [2, Fraction(5, 3), -2, 6]),
          FSet(Q, [3, Fraction(1, 2), -4])),
    "fp": (FSet(P101, [3, 5, 9, 11, 17, 23]),
           FSet(P101, [2, 7, 13, 19]),
           FSet(P101, [1, 4, 6])),
}

REPORT_SHA256 = {
    "q.R1": "4ceeca863304e669986de820775f032b3887bc9d0eaa412f4f612c5a02c65fff",
    "q.R2": "d3f3f59e789d6655ecfd330f7e2fe788c248cd3285e2b4eba49138d140074e1e",
    "q.R3": "6011011c941c9137dc4e028638ac5411354b25c6d44c11efb627f15ed4c9f975",
    "q.R4": "164c31ae60ede2b2242115a18a0192eef5096849a2f8c392196a909ac1b1a328",
    "q.R5": "cc2bdfc184439782066c224db1a54220179b63ba6fb105b85fe1d7fd81529d15",
    "q.R6": "6c704c09be294b9880a43a2e1fcc273c92f3dc4382618f813bbd66e2c59b969d",
    "q.R7": "fdc2ceaec8081824a574056e406aa9b974eab1ec1df355cfbe8da7ae7bc359c6",
    "q.R8": "acc177df574d046d191452f7b8794b79c46320f9667367b9bc9a05d31cff5190",
    "q.R9": "193b7ac26bdd90241c6e8c8b6dc1869cfc4adba449ef185e345c76ee80a4f141",
    "q.R10": "cd1139f45fa4edac614f965c3e24f2c841ea0babcffeda81a053670e892013f9",
    "q.R11": "aad928a52d2bc193deab9ea5ba41f1e2b1d3056c9901a011def14afc70d380e9",
    "q.R12": "cfd1aca3d963fbfa2baea2a335c07a843c99d84ba705ab2518da7daf75d4d82d",
    "q.R13": "bf15149c1797ee925a0add047a6cf80cef83dd21bf7a6886b55eb6301b0e0384",
    "q.R14": "8bc2db871dff02a78b71bd6d2aafc155eda827bef5e57f13873123e521da97bd",
    "fp.R1": "bc9035a01dfe2b1111a722cf28c2a642f8a16a20298d4415b478d55f4d92c4a0",
    "fp.R2": "0f80d338cdf7181798effaad6579bb4fe4afbcf6a689cecccbb579a01c7f56d8",
    "fp.R3": "61f38b0ef97965ee3b038d21a33fba3056d52c98a168da75046826eb970a56f9",
    "fp.R4": "a5c281b195358d685d9f3c93536ae8200f8a33b3e3423502297360f6cbc32259",
    "fp.R5": "01c8c542614be84eea4e37a854db47272cc8243d0a465884440e3ceb547646a2",
    "fp.R6": "d1a698e6ca54dd79e3b4dc086d36e3118714bfa3b1f31ff191085e568373c856",
    "fp.R8": "d17b66067bf9f60f44afe4b17c8aab7b843a9775948cbc8ca3c6a44fd7c55382",
    "fp.R10": "d108443cf4689fae227c788b440a43178e05cd6e82cde9f02063510a085882f4",
    "fp.R11": "391c58973b4c21ca6a2b328d1a67a4c49db7b973ca9743cfb74113d519262d43",
    "fp.R12": "432992a17656b3d0a3e84ebdad0d37103f1af075cb151c21fb701c5d232ed900",
    "fp.R13": "bdc32ac0f6dee5522eef61c4832eb5019020218a9bdcafaa26cc349ff7a43f85",
    "fp.R14": "9f3fbbc05f217c89a3bfd51aae8f36c443f1e78493f286212a954e838d1492fc",
}

TRACE_SHA256 = {
    "real": "ac51d448ccbf535e242d996aee062cb73086ce119cc64ebf9d439bb4eb75bf8d",
    "fp109": "2ee41b887d3c659c409ffbfe8e01829f3bda42644e822f0865fa7518b752141b",
    "fp103": "2c0707d9badda3d28803d00dc417d50206356fda831a59244e3e0bfeaa575822",
}


def _inputs(field: str, name: str) -> dict:
    a, b, c = INSTANCES[field]
    given_ = {"A": a, "B": b, "C": c, "t": 2, "epsilon": Fraction(1, 4)}
    return {k: given_[k] for k in REGISTRY[name].inputs}


@pytest.mark.parametrize("key", sorted(REPORT_SHA256))
def test_report_bytes_pinned(key):
    field, name = key.split(".")
    doc = check(name, **_inputs(field, name)).to_json()
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    assert hashlib.sha256(blob).hexdigest() == REPORT_SHA256[key]


@pytest.mark.parametrize("name", ["R7", "R9"])
def test_rational_only_relations_refuse_fp(name):
    with pytest.raises(FieldMismatch):
        check(name, **_inputs("fp", name))


def test_pinned_r5_is_decided_by_refinement():
    # the pin exercises the enclosure path, not the perfect-power shortcut
    rep = check("R5", **_inputs("q", "R5"))
    assert not is_point(rep.lhs)


@pytest.mark.parametrize("key", sorted(TRACE_SHA256))
def test_trace_bytes_pinned(key):
    if key == "real":
        trace = real_pipeline(INSTANCES["q"][0])
    elif key == "fp109":
        trace = finite_field_pipeline(
            FSet(FieldCtx.prime(109), [1, 5, 10, 31, 36, 40, 43, 65, 71]))
    else:
        trace = finite_field_pipeline(
            FSet(FieldCtx.prime(103), [24, 27, 39, 58, 61, 62, 65, 88, 93]))
    assert hashlib.sha256(trace.to_bytes()).hexdigest() == TRACE_SHA256[key]


# -- literal copies of the replaced refinement loops -------------------------------

def _old_ladder(cap):
    bits = min(PRECISION_START, cap)
    while True:
        yield bits
        if bits >= cap:
            return
        bits = min(bits * 2, cap)


def _old_r5_loop(hist_a, b_size, rhs_cubed, cap):
    bits = min(PRECISION_START, cap)
    verdict = INCONCLUSIVE
    e15 = None
    while True:
        e15 = old_e15_capped(hist_a, cap, bits)
        lhs_cubed = e15.power(6) * (b_size ** 6)
        if lhs_cubed.hi <= rhs_cubed:
            verdict = HOLDS
            break
        if lhs_cubed.lo > rhs_cubed:
            verdict = FAILS
            break
        if bits >= cap:
            break
        bits = min(bits * 2, cap)
    return verdict, e15.power(2) * (b_size ** 2)


small_q = st.fractions(min_value=-12, max_value=12, max_denominator=5).filter(bool)
q_sets = st.sets(small_q, min_size=2, max_size=7).map(lambda v: FSet(Q, v))
caps = st.sampled_from([0, 8, 16, 128, None])


@settings(max_examples=150, deadline=None)
@given(q_sets, q_sets, caps, st.sampled_from(["r5", "half", "double", "mid"]))
def test_decide_matches_old_r5_loop(a, b, cap, target):
    cap = precision_cap(cap)
    hist_a = histogram(a, a, "ratio")
    e2 = multiplicative_energy(a, combine(a, b, "prod"))
    e3a = energy(hist_a, 3).exact
    e3b = energy(histogram(b, b, "ratio"), 3).exact
    rhs = e2 ** 3 * e3a ** 2 * e3b
    if target == "half":
        rhs /= 2
    elif target == "double":
        rhs *= 2
    elif target == "mid":
        e15 = old_e15_capped(hist_a, cap, PRECISION_START)
        cubed = e15.power(6) * len(b) ** 6
        rhs = (cubed.lo + cubed.hi) / 2
    expected = _old_r5_loop(hist_a, len(b), rhs, cap)
    got = _decide(lambda bits: energy_at(hist_a, Fraction(3, 2), bits).interval.power(2)
                  * len(b) ** 2, 3, rhs, cap)
    assert got == expected


@settings(max_examples=150, deadline=None)
@given(q_sets, caps, st.sampled_from([Fraction(3, 2), Fraction(5, 3), Fraction(7, 4)]))
def test_energy_ladder_matches_old_loop(a, cap, alpha):
    hist = histogram(a, a, "ratio")
    q = alpha.denominator
    assume(any(iroot_floor(m, q) ** q != m for m, _ in hist.entries))
    acc, bits, capped = old_energy_loop(hist, alpha, cap, None)
    try:
        got = energy(hist, alpha, cap=cap)
        assert not capped
    except PrecisionCapExceeded as exc:
        assert capped
        got = exc.achieved
    assert (got.interval, got.precision_bits) == (acc, bits)


# spectra far beyond what a set of a few dozen members gives
@st.composite
def spectra(draw):
    entries = draw(st.dictionaries(st.integers(1, 10 ** 30), st.integers(1, 10 ** 12),
                                   max_size=6))
    pairs = sum(m * c for m, c in entries.items())
    return MultiplicityHistogram("ratio", tuple(sorted(entries.items())), sum(entries.values()),
                                 pairs, max(entries, default=0))


ALPHAS = [Fraction(3, 2), Fraction(5, 3), Fraction(7, 4), Fraction(11, 10), Fraction(9, 2)]


@settings(max_examples=100, deadline=None)
@given(spectra(), st.sampled_from([0, 8, 65, 66, 67, 128, None]))
def test_energy_at_matches_old_e15_capped(hist, cap):
    # every precision `_decide` asks for, and R12's min(128, cap)
    capv = precision_cap(cap)
    for bits in [*_old_ladder(capv), min(PRECISION_START, capv)]:
        assert energy_at(hist, Fraction(3, 2), bits).interval == old_e15_capped(hist, cap, bits)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(spectra(), st.sampled_from(ALPHAS + [Fraction(2), Fraction(3)]))
@example(MultiplicityHistogram("ratio", ((1, 7), (2, 5), (3, 1)), 13, 20, 3), Fraction(3, 2))
@example(MultiplicityHistogram("ratio", ((4, 2), (9, 3)), 5, 35, 9), Fraction(3, 2))
def test_energy_at_int_sums_match_the_rat_interval_sum(hist, alpha):
    # the same endpoints, as Fractions of the same value, at every precision
    for bits in (1, 64, 128, 4096):
        got, want = energy_at(hist, alpha, bits), rat_interval_energy_at(hist, alpha, bits)
        assert (got.alpha, got.lo, got.hi, got.precision_bits) == (
            want.alpha, want.lo, want.hi, want.precision_bits)
        assert type(got.lo) is type(got.hi) is Fraction


@settings(max_examples=150, deadline=None)
@given(spectra(), st.sampled_from(ALPHAS), st.integers(0, PRECISION_CAP_DEFAULT),
       st.integers(0, 1000))
def test_old_energy_loop_never_leaves_its_first_rung(hist, alpha, cap, min_bits):
    # each term is at least 1 and at most 2^(1 - bits) wide: from 66 bits on
    # the first rung meets the width target, below 66 bits it is the cap
    q = alpha.denominator
    assume(any(iroot_floor(m, q) ** q != m for m, _ in hist.entries))
    first = min(max(PRECISION_START, min_bits), cap)
    _, bits, capped = old_energy_loop(hist, alpha, cap, min_bits)
    assert bits == first
    assert not capped or first < 66


# -- base-point selection ---------------------------------------------------------

BASE_PRIMES = (53, 59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113)


@st.composite
def fp_pipeline_sets(draw):
    p = draw(st.sampled_from(BASE_PRIMES))
    n_max = min(8, int((p - 1) ** 0.5))
    vals = draw(st.sets(st.integers(1, p - 2), min_size=3, max_size=n_max))
    return FSet(FieldCtx.prime(p), vals)


@settings(max_examples=150, deadline=None)
@given(fp_pipeline_sets())
def test_base_point_matches_pairwise_intersections(a):
    p = a.ctx.p
    shifted = {x: frozenset((x * (b + 1)) % p for b in a.vals) for x in a.vals}
    best_total, b0 = max(
        (sum(len(shifted[x] & shifted[b]) for x in a.vals), -b) for b in a.vals
    )
    trace = finite_field_pipeline(a)
    assert trace.selected["b0"] == str(-b0)
    step = next(s for s in trace.steps if s.report.name == "fp-base-point")
    assert step.report.rhs == best_total
