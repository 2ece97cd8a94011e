"""The per-call `Instance`: every relation and the real pipeline read A+1,
A(A+1), the ratio spectra and the energies off one Instance.

Each checker is compared with a literal copy of the checker it replaced,
which rebuilt every quantity from the free functions; all fourteen
relations also run in turn on one shared Instance, as `verify --all` runs
them, so a relation cannot see what an earlier one built.  Spy counts pin
how often one call builds each quantity.
"""
import importlib
from collections import Counter
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from expanderlab import FieldCtx, FSet, Instance, check, real_pipeline
from expanderlab import constructions as cons
from expanderlab import sets, verify
from expanderlab.cli import main
from expanderlab.energy import (
    PRECISION_START,
    energy,
    energy_at,
    histogram,
    multiplicative_energy,
    precision_cap,
    rich_products,
)
from expanderlab.errors import (
    ExpanderlabError,
    FieldMismatch,
    SetTooSmall,
    SideConditionViolated,
    WitnessFailure,
)
from expanderlab.field import KIND_RATIONAL
from expanderlab.incidence import st_lower_bound_check
from expanderlab.intervals import RatInterval, root_interval
from expanderlab.sets import _pair_ints, _scaled, combine, expander_set, translate
from expanderlab.verify import (
    FAILS,
    HOLDS,
    REGISTRY,
    InequalityReport,
    PipelineStep,
    PipelineTrace,
    _decide,
    _exclude,
    _hold_report,
    _ratio_slack,
    _require_nonempty,
    _require_rational,
    _slack_report,
    instance_digest,
)
from helpers import Q, old_e15_capped

energy_module = importlib.import_module("expanderlab.energy")


def outcome(fn, *args, **kwargs):
    """The JSON of what fn returns, or the type and message of what it raised."""
    try:
        result = fn(*args, **kwargs)
    except ExpanderlabError as exc:
        return type(exc), str(exc)
    return result.to_bytes() if isinstance(result, PipelineTrace) else result.to_json()


# -- literal copies of the checkers that rebuilt every quantity ------------------------

def literal_r1(A, B, C, digest, cap):
    _require_nonempty(C, "C")
    lhs = len(combine(A, B, "diff"))
    rhs = Fraction(len(combine(A, C, "diff")) * len(combine(B, C, "diff")), len(C))
    return _hold_report("R1", lhs, rhs, digest, "difference-set triangle inequality")


def literal_r2(A, digest, cap):
    _exclude(A, (0, -1), "A")
    _require_nonempty(A, "A")
    lhs = len(combine(A, A, "ratio"))
    rhs = Fraction(len(expander_set(A, A)) ** 2, len(A))
    return _hold_report("R2", lhs, rhs, digest, "ratio set bounded by the expander set squared")


def literal_r3(A, digest, cap):
    _exclude(A, (0, 1, -1), "A")
    _require_nonempty(A, "A")
    a1 = translate(A, 1)
    lhs = Fraction(len(A) ** 4, len(expander_set(A, A)))
    rhs = multiplicative_energy(A, a1)
    return _hold_report("R3", lhs, rhs, digest, "Cauchy-Schwarz lower bound on the mixed energy")


def literal_r4(A, digest, cap):
    _exclude(A, (0, 1, -1), "A")
    a1 = translate(A, 1)
    lhs = multiplicative_energy(A, a1)
    e2a = multiplicative_energy(A, A)
    e2b = multiplicative_energy(a1, a1)
    verdict = HOLDS if lhs * lhs <= e2a * e2b else FAILS
    rhs = root_interval(e2a * e2b, 2, PRECISION_START)
    return InequalityReport("R4", lhs, rhs, verdict, _ratio_slack(lhs, rhs), digest,
                            "mixed energy split by Cauchy-Schwarz; decided on squares")


def literal_r5(A, B, digest, cap):
    _exclude(A, (0,), "A")
    _exclude(B, (0,), "B")
    cap = precision_cap(cap)
    e2_mixed = multiplicative_energy(A, combine(A, B, "prod"))
    hist_a = histogram(A, A, "ratio")
    e3a = energy(hist_a, 3).exact
    e3b = energy(histogram(B, B, "ratio"), 3).exact
    verdict, lhs = _decide(lambda bits: old_e15_capped(hist_a, cap, bits).power(2) * len(B) ** 2,
                           3, e2_mixed ** 3 * e3a ** 2 * e3b, cap)
    rhs = (
        RatInterval.point(e2_mixed)
        * root_interval(e3a ** 2, 3, PRECISION_START)
        * root_interval(e3b, 3, PRECISION_START)
    )
    note = "third-moment energy inequality; decided on cubes"
    return InequalityReport("R5", lhs, rhs, verdict, _ratio_slack(lhs, rhs), digest, note)


def literal_r6(A, B, digest, cap):
    _exclude(A, (0,), "A")
    _exclude(B, (0,), "B")
    products, scale = _pair_ints(combine(A, B, "ratio"), B, "prod")
    a_ints = set(_scaled(A.vals, scale))
    total = sum(map(a_ints.__contains__, products))
    return _hold_report("R6", total, len(A) * len(B), digest,
                        "pair-counting identity over the ratio support", strict_equal=True)


def literal_r7(A, B, t, digest, cap):
    _require_rational(A)
    try:
        res = st_lower_bound_check(A, B, t)
    except WitnessFailure as exc:
        return InequalityReport("R7", None, None, FAILS, None, digest,
                                f"witness failure: {exc}")
    rhs = len(res.s_t) * len(A)
    note = (
        f"{res.witness_count} distinct witnesses, each on >= {res.t} family lines "
        f"(family size {res.family_size}, min lines {res.min_lines_through_witness})"
    )
    verdict = HOLDS if res.witness_count >= rhs else FAILS
    return InequalityReport("R7", res.witness_count, rhs, verdict,
                            _ratio_slack(res.witness_count, rhs), digest, note)


def literal_r8(A, B, epsilon, digest, cap):
    _require_nonempty(A, "A")
    _require_nonempty(B, "B")
    res = cons.popular_ratio_graph(A, B, epsilon)
    shape = Fraction(len(expander_set(A, B)) * len(expander_set(B, A))
                     * len(combine(A, B, "ratio")), len(A) * len(B))
    return _slack_report("R8", len(res.partial_diff), shape, digest,
                         f"partial difference set vs expander shape; |G| = {len(res.graph)}")


def literal_r9(A, B, t, digest, cap):
    _require_rational(A)
    _exclude(A, (0, 1, -1), "A")
    _exclude(B, (0,), "B")
    lhs = len(rich_products(A, B, t))
    rhs = Fraction(len(expander_set(A, A)) ** 2 * len(B) ** 2, len(A) * t ** 3)
    return _slack_report("R9", lhs, rhs, digest, "rich-product count vs incidence shape")


def literal_r10(A, digest, cap):
    _exclude(A, (0, 1, -1), "A")
    a1 = translate(A, 1)
    e3a = energy(histogram(A, A, "ratio"), 3).exact
    e3b = energy(histogram(a1, a1, "ratio"), 3).exact
    rhs = len(expander_set(A, A)) ** 2 * len(A)
    note = f"third moments E3(A) = {e3a}, E3(A+1) = {e3b}; log factors fold into slack"
    return _slack_report("R10", max(e3a, e3b), rhs, digest, note)


def literal_r11(A, digest, cap):
    _exclude(A, (0, 1, -1), "A")
    a1 = translate(A, 1)
    aa1 = expander_set(A, A)
    e2a = multiplicative_energy(A, aa1)
    e2b = multiplicative_energy(a1, aa1)
    rhs = root_interval(len(aa1) ** 5, 2, PRECISION_START)
    note = f"mixed energies {e2a} and {e2b} vs expander set to the 5/2"
    return _slack_report("R11", max(e2a, e2b), rhs, digest, note)


def literal_r12(A, digest, cap):
    _exclude(A, (0, 1, -1), "A")
    _require_nonempty(A, "A")
    a1 = translate(A, 1)
    lhs = Fraction(len(A) ** 11, len(expander_set(A, A)) ** 5)
    rhs = (old_e15_capped(histogram(A, A, "ratio"), cap, PRECISION_START)
           * old_e15_capped(histogram(a1, a1, "ratio"), cap, PRECISION_START))
    return _slack_report("R12", lhs, rhs, digest, "lower shape for the product of 3/2-energies")


def literal_r13(A, digest, cap):
    _exclude(A, (0, 1, -1), "A")
    return _slack_report("R13", len(A) ** 24, len(expander_set(A, A)) ** 19, digest,
                         "final exponent comparison, 24 against 19")


def literal_r14(A, digest, cap):
    _exclude(A, (0, 1, -1), "A")
    lhs = root_interval(len(A) ** 57, 56, PRECISION_START)
    return _slack_report("R14", lhs, len(expander_set(A, A)), digest,
                         "expander growth probe at exponent 57/56")


LITERAL = {f"R{k}": fn for k, fn in enumerate(
    (literal_r1, literal_r2, literal_r3, literal_r4, literal_r5, literal_r6, literal_r7,
     literal_r8, literal_r9, literal_r10, literal_r11, literal_r12, literal_r13,
     literal_r14), start=1)}


def literal_check(name, A, B, C, t, epsilon, cap=None):
    given_inputs = {"A": A, "B": B, "C": C, "t": t, "epsilon": epsilon}
    inputs = {}
    for needed in REGISTRY[name].inputs:
        if given_inputs[needed] is None:
            raise SideConditionViolated(f"{name} needs input {needed}")
        inputs[needed] = given_inputs[needed]
    return LITERAL[name](digest=instance_digest(relation=name, **inputs), cap=cap, **inputs)


def literal_real_pipeline(A, cap=None):
    if A.ctx.kind != KIND_RATIONAL:
        raise FieldMismatch("real pipeline needs a rational set")
    _exclude(A, (0, 1, -1), "A")
    if len(A) < 2:
        raise SetTooSmall("pipeline needs at least 2 elements")
    digest = instance_digest(pipeline="real", A=A)
    a1 = translate(A, 1)
    aa1 = expander_set(A, A)
    steps = [
        PipelineStep("Cauchy-Schwarz lower bound on the mixed energy",
                     literal_r3(A, digest, cap)),
        PipelineStep("mixed energy split between the two self energies",
                     literal_r4(A, digest, cap)),
        PipelineStep("third-moment inequality for (A, A+1)", literal_r5(A, a1, digest, cap)),
        PipelineStep("third-moment inequality for (A+1, A)", literal_r5(a1, A, digest, cap)),
    ]
    hist_a = histogram(A, A, "ratio")
    hist_b = histogram(a1, a1, "ratio")
    rhs_sq = (multiplicative_energy(A, aa1) * multiplicative_energy(a1, aa1)
              * energy(hist_a, 3).exact * energy(hist_b, 3).exact)
    capv = precision_cap(cap)
    verdict, lhs_iv = _decide(
        lambda bits: (old_e15_capped(hist_a, capv, bits) * old_e15_capped(hist_b, capv, bits)
                      * len(A) ** 2),
        2, rhs_sq, capv)
    rhs_iv = root_interval(rhs_sq, 2, PRECISION_START)
    steps.append(PipelineStep(
        "combined product of 3/2-energies against the mixed-moment square root",
        InequalityReport("real-combined", lhs_iv, rhs_iv, verdict,
                         _ratio_slack(lhs_iv, rhs_iv), digest,
                         "product of both third-moment applications; decided on squares")))
    steps.append(PipelineStep("lower shape for the product of 3/2-energies",
                              literal_r12(A, digest, cap)))
    steps.append(PipelineStep("third moments against the expander shape",
                              literal_r10(A, digest, cap)))
    steps.append(PipelineStep("mixed energies against the 5/2-power shape",
                              literal_r11(A, digest, cap)))
    steps.append(PipelineStep("final exponent comparison, 24 against 19",
                              literal_r13(A, digest, cap)))
    return PipelineTrace("real", A, None, tuple(steps), None)


# -- strategies ---------------------------------------------------------------------------

# members near 0, 1 and -1, where A+1, A/A and A(A+1) collapse or leave the field
# of admissible sets, and now and then 0, 1 or -1 themselves
NEAR_UNITS = [Fraction(s * n, d) for s in (1, -1) for n, d in
              ((1, 2), (1, 3), (2, 3), (3, 2), (4, 3), (1, 4), (3, 4), (2, 1), (5, 4))]
# a drawn fraction is now and then 0, 1 or -1
q_members = st.sampled_from(NEAR_UNITS) | st.builds(Fraction, st.integers(-12, 12),
                                                    st.integers(1, 5))


def q_sets(min_size, max_size):
    return st.sets(q_members, min_size=min_size, max_size=max_size).map(
        lambda v: FSet(Q, v))


@st.composite
def fp_groups(draw):
    p = draw(st.sampled_from([13, 29, 53, 101, 211]))
    ctx = FieldCtx.prime(p)
    near = st.sampled_from([2, 3, p - 2, p - 3, (p + 1) // 2, (p - 1) // 2])
    members = near | st.integers(0, p - 1)

    def fp_set(lo, hi):
        return FSet(ctx, draw(st.sets(members, min_size=lo, max_size=hi)))

    return fp_set(2, 12), fp_set(1, 6), fp_set(1, 5)


q_groups = st.tuples(q_sets(2, 12), q_sets(1, 6), q_sets(1, 5))


# -- differential tests ------------------------------------------------------------------

# None is the default cap; the others stop a refinement, or R12's
# enclosures, below 128 bits
caps = st.sampled_from([None, 0, 8, 65, 128])


@settings(max_examples=60, deadline=None)
@given(q_groups | fp_groups(), st.integers(1, 3),
       st.sampled_from([Fraction(1, 8), Fraction(1, 4), Fraction(1, 2)]), caps)
@example((FSet(Q, [Fraction(1, 2), Fraction(-1, 2)]), FSet(Q, [2]), FSet(Q, [3])), 1,
         Fraction(1, 4), None)
@example((FSet(Q, [Fraction(1, 2), 1, 2]), FSet(Q, [0, 2]), FSet(Q, [3])), 1, Fraction(1, 4),
         None)
@example((FSet(FieldCtx.prime(13), [0, 3, 12]), FSet(FieldCtx.prime(13), [1, 2]),
          FSet(FieldCtx.prime(13), [5])), 2, Fraction(1, 8), None)
@example((FSet(Q, [2, 3, 5, Fraction(7, 2)]), FSet(Q, [2, 3]), FSet(Q, [3])), 1,
         Fraction(1, 4), 8)
def test_every_relation_matches_a_literal_recomputation(group, t, eps, cap):
    a, b, c = group
    t = min(t, len(a), len(b)) or 1
    shared = Instance(a)
    for name in REGISTRY:
        expected = outcome(literal_check, name, a, b, c, t, eps, cap)
        assert outcome(check, name, a, b, c, t, eps, cap) == expected, name
        # the order of `verify --all`: each relation after the ones before it
        assert outcome(check, name, shared, b, c, t, eps, cap) == expected, name


@settings(max_examples=60, deadline=None)
@given(q_sets(2, 12), caps)
@example(FSet(Q, [Fraction(1, 2), Fraction(-1, 2)]), None)
@example(FSet(Q, [Fraction(-1, 2), Fraction(1, 3), Fraction(3, 2), 2]), None)
@example(FSet(Q, [Fraction(1, 2), 1, 3]), None)
@example(FSet(Q, [2, 3, 5, Fraction(7, 2)]), 8)
def test_real_pipeline_matches_a_literal_recomputation(a, cap):
    assert outcome(real_pipeline, a, cap) == outcome(literal_real_pipeline, a, cap)


def test_real_pipeline_refuses_what_the_literal_pipeline_refuses():
    for bad in (FSet(Q, [2]), FSet(Q, [0, 2, 3]), FSet(FieldCtx.prime(13), [2, 3])):
        assert outcome(real_pipeline, bad) == outcome(literal_real_pipeline, bad)
        assert isinstance(outcome(real_pipeline, bad), tuple)


# -- how often one call builds each quantity --------------------------------------------------

def count_calls(monkeypatch, modules, *names):
    """Calls of each name, summed over the modules (one or a tuple) that
    hold it."""
    counts = dict.fromkeys(names, 0)
    for module in modules if isinstance(modules, tuple) else (modules,):
        for name in names:
            if not hasattr(module, name):
                continue
            fn = getattr(module, name)

            def spy(*args, _fn=fn, _name=name, **kwargs):
                counts[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(module, name, spy)
    return counts


# verify builds its product, ratio and expander sets through `sets.Combination`
SPIED = ("expander_set", "histogram", "e2", "translate", "combine")
SPIED_IN = (verify, sets)
Q29 = FSet(Q, [Fraction(k, 3) for k in range(4, 33)])


def count_e15(monkeypatch):
    """The 3/2-energy evaluations made through `verify.energy_at`."""
    alphas = []
    real_energy_at = verify.energy_at

    def spy(hist, alpha, bits):
        alphas.append(alpha)
        return real_energy_at(hist, alpha, bits)

    monkeypatch.setattr(verify, "energy_at", spy)
    return alphas


def test_real_pipeline_builds_each_quantity_once(monkeypatch):
    counts = count_calls(monkeypatch, SPIED_IN, *SPIED)
    e15 = count_e15(monkeypatch)
    real_pipeline(Q29)
    # A(A+1) once, by the `expander_set` of the Instance's Combination; the
    # ratio spectrum of A+1 (that of A is read off the Instance's ratio
    # pass), their second moments being E2(A) and E2(A+1); E2(A, A+1),
    # E2(A, A(A+1)) and E2(A+1, A(A+1)); A+1 -- and no product set A·(A+1)
    assert counts == {"expander_set": 1, "histogram": 1, "e2": 3,
                      "translate": 1, "combine": 0}
    # E1.5(A) and E1.5(A+1) at 128 bits serve both R5 steps, the combined
    # step and R12
    assert e15 == [Fraction(3, 2)] * 2


def test_instance_keeps_one_enclosure_per_spectrum_and_precision(monkeypatch):
    e15 = count_e15(monkeypatch)
    inst = Instance(Q29)
    for bits in (8, 128, 256, 128, 8):
        for spectrum in ("hist_a", "hist_a1"):
            hist = getattr(inst, spectrum)
            assert inst.e15(spectrum, bits) == energy_at(hist, Fraction(3, 2), bits).interval
    assert len(e15) == 2 * 3


def test_verify_all_shares_one_instance(monkeypatch, tmp_path, capsys):
    path = tmp_path / "a.json"
    path.write_text('{"field": "q", "elements": ["2", "3", "5", "7/2"]}')
    counts = count_calls(monkeypatch, SPIED_IN, *SPIED)
    e15 = count_e15(monkeypatch)
    assert main(["verify", str(path), "--all"]) == 0
    # R2-R4 and R10-R14 on one set: one A(A+1), by the Instance's
    # Combination, two spectra, which also give E2(A) and E2(A+1), the one
    # of A from the ratio pass, and three more energies
    assert counts == {"expander_set": 1, "histogram": 1, "e2": 3,
                      "translate": 1, "combine": 0}
    assert e15 == [Fraction(3, 2)] * 2  # R12's E1.5(A) and E1.5(A+1)
    reports = [line for line in capsys.readouterr().err.splitlines() if "] R" in line]
    assert len(reports) == 8


def test_fp_pipeline_takes_its_expander_set_from_its_instance(monkeypatch):
    calls = []
    real_pair_ints = verify._pair_ints

    def spy(a, b, op):
        calls.append(op)
        return real_pair_ints(a, b, op)

    # the Instance's expand pass is its `sets.Combination`'s
    for module in SPIED_IN:
        monkeypatch.setattr(module, "_pair_ints", spy)
    counts = count_calls(monkeypatch, SPIED_IN, "expander_set")
    cons_counts = count_calls(monkeypatch, cons, "expander_set")
    a = FSet(FieldCtx.prime(109), [1, 5, 10, 31, 36, 40, 43, 65, 71])
    verify.finite_field_pipeline(a)
    # the Instance's one expand pass gives A(A+1) and the base-point rows,
    # and its one ratio pass the ratio spectrum and the self popular-ratio
    # graph; no popular-ratio graph, self or covering, builds an expander set
    assert counts["expander_set"] == 0
    assert [op for op in calls if op in ("expand", "ratio")] == ["expand", "ratio"]
    assert cons_counts["expander_set"] == 0


def test_fp_pipeline_makes_one_expand_pass_over_a_x_a(monkeypatch):
    a = FSet(FieldCtx.prime(109), [1, 5, 10, 31, 36, 40, 43, 65, 71])
    passes = Counter()
    real_pair_ints = sets._pair_ints

    def spy(x, y, op):
        if x == a and y == a:
            passes[op] += 1
        return real_pair_ints(x, y, op)

    for module in (sets, energy_module, verify, cons):
        monkeypatch.setattr(module, "_pair_ints", spy)
    verify.finite_field_pipeline(a)
    # the Instance's A(A+1) and base-point rows; its ratio pass, which gives
    # both the ratio spectrum (R2) and the self popular-ratio graph; and
    # A - A, the partial difference set of that graph, which is complete
    # here, and so also partial_ruzsa's A' - C' and fp-fourfold's |A - A|
    assert passes == {"expand": 1, "ratio": 1, "diff": 1}


def test_popular_ratio_graph_builds_no_expander_set(monkeypatch):
    counts = count_calls(monkeypatch, cons, "expander_set")
    ctx = FieldCtx.prime(101)
    a = FSet(ctx, [1, 2, 4, 8, 16, 32])
    b = FSet(ctx, [1, 2, 3, 4, 8])
    for left, right in ((a, a), (a, b), (b, a)):
        res = cons.popular_ratio_graph(left, right, Fraction(9, 10))
        # |A/B| counts every ratio, popular or not
        assert len(res.x_set) < res.ratio_support == len(combine(left, right, "ratio"))
    assert counts["expander_set"] == 0


def test_r8_forms_its_shape_from_both_expander_sets():
    ctx = FieldCtx.prime(101)
    a = FSet(ctx, [1, 2, 4, 8, 16, 32])
    pairs = [(a, a), (a, FSet(ctx, a.vals)), (a, FSet(ctx, [1, 2, 3, 4, 8])),
             (FSet(Q, [1, 2, 4, 8, 16, Fraction(1, 3)]), FSet(Q, [2, 3, 4, 8]))]
    for left, right in pairs:
        rep = check("R8", A=left, B=right, epsilon=Fraction(9, 10))
        assert rep.rhs == Fraction(
            len(expander_set(left, right)) * len(expander_set(right, left))
            * len(combine(left, right, "ratio")), len(left) * len(right))
