"""Differential tests of the loops that now read their pairs off the pair
kernel `sets._pair_ints`.

`twisted_energy`, `twist_spectrum`, R6's left side, `injection_witness`,
`st_lower_bound_check` and the prime-field pipeline's base-point rows each
used to walk a x b by hand, and `partial_combine` the edges of its graph.  Each is compared here with a literal copy of
that hand-written loop.
"""
import dataclasses
import inspect
import sys
from collections import Counter
from fractions import Fraction
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from expanderlab import (
    FSet,
    FieldCtx,
    Line,
    PairGraph,
    check,
    finite_field_pipeline,
    injection_witness,
    popular_ratio_graph,
    rich_products,
    st_lower_bound_check,
    twisted_energy,
)
from expanderlab.constructions import InjectionResult
from expanderlab.energy import twist_spectrum
from expanderlab.errors import (
    CollisionFound,
    ExpanderlabError,
    InvariantViolation,
    WitnessFailure,
    ZeroTwist,
)
from expanderlab.field import KIND_PRIME
from expanderlab import incidence
from expanderlab.incidence import StLowerBoundResult
from expanderlab.sets import _lcd, _scaled, combine, expander_set, partial_combine
from helpers import Q, line_from_expander_params, literal_line_family, literal_partial_diff

SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71)


def outcome(fn, *args):
    """The result of fn(*args), or the type and message of what it raised."""
    try:
        return fn(*args)
    except ExpanderlabError as exc:
        return type(exc), str(exc)


# -- literal copies of the replaced loops ----------------------------------------

def literal_twisted_energy(a: FSet, xi) -> int:
    ctx = a.ctx
    xv = ctx.canon(xi)
    if xv == 0:
        raise ZeroTwist("twist by zero degenerates to a line count")
    counts: Counter = Counter()
    for x in a.vals:
        for y in a.vals:
            counts[ctx.add(x, ctx.mul(xv, y))] += 1
    return sum(c * c for c in counts.values())


def literal_twist_spectrum(a: FSet):
    p = a.ctx.p
    first = {}
    mult: Counter = Counter()
    for x in a.vals:
        for z in a.vals:
            d = (x - z) % p
            mult[d] += 1
            if d not in first:
                first[d] = (x, z)
    n2 = len(a) * len(a)
    quads = {}
    energies = {}
    nonzero = [(d, pow(d, -1, p), first[d], mult[d]) for d in first if d]
    if nonzero:
        quads[0] = first[0] + nonzero[0][2]
    for delta, _, rep, m in nonzero:
        for _, inv_eta, rep_eta, m_eta in nonzero:
            xi = delta * inv_eta % p
            if xi in quads:
                energies[xi] += m * m_eta
            else:
                quads[xi] = rep + rep_eta
                energies[xi] = n2 + m * m_eta
    return quads, energies


def literal_r6_lhs(A: FSet, B: FSet) -> int:
    support = combine(A, B, "ratio")
    a_members = A.member_set()
    ctx = A.ctx
    bv = B.vals
    total = 0
    if ctx.kind == KIND_PRIME:
        p = ctx.p
        for x in support.vals:
            total += sum(1 for b in bv if x * b % p in a_members)
    else:
        for x in support.vals:
            total += sum(1 for b in bv if x * b in a_members)
    return total


def literal_injection_witness(a: FSet, b: FSet, g, epsilon=None) -> InjectionResult:
    ctx = a.ctx
    reps = {}
    for av, bv in g.value_edges():
        xi = ctx.sub(av, bv)
        if xi not in reps:
            reps[xi] = (av, bv)
    by_ratio: dict = {}
    for cv in a.vals:
        for dv in b.vals:
            by_ratio.setdefault(ctx.div(cv, dv), []).append((cv, dv))
    one = ctx.one
    image_seen: dict = {}
    s_size = 0
    for xi in sorted(reps):
        av, bv = reps[xi]
        for cv, dv in by_ratio[ctx.div(av, bv)]:
            s_size += 1
            image = (ctx.mul(av, ctx.add(one, dv)), ctx.mul(bv, ctx.add(one, cv)))
            prior = image_seen.get(image)
            if prior is not None:
                raise CollisionFound(
                    f"image {image} reached twice", first=prior, second=(xi, cv, dv)
                )
            image_seen[image] = (xi, cv, dv)
    bound = len(expander_set(a, b)) * len(expander_set(b, a))
    if s_size > bound:
        raise InvariantViolation("injective map into a smaller product set")
    lower = None
    if epsilon is not None:
        eps = Fraction(epsilon)
        lower = eps * len(a) * len(b) / len(combine(a, b, "ratio")) * len(reps)
        if s_size < lower:
            raise InvariantViolation(
                "fewer ordinates than the popularity threshold guarantees"
            )
    return InjectionResult(
        s_size=s_size,
        image_bound=bound,
        partial_diff=partial_combine(g),
        lower_bound_lhs=lower,
        representatives=tuple((xi,) + reps[xi] for xi in sorted(reps)),
    )


def literal_st_lower_bound_check(a: FSet, b: FSet, t: int) -> StLowerBoundResult:
    s_t = rich_products(a, b, t)
    family = literal_line_family(expander_set(a, a), b)
    family_keys = {(l.vertical, l.m, l.c) for l in family.lines}
    alphas = expander_set(a, a).vals
    scale = _lcd(alphas)
    alpha_ints = set(_scaled(alphas, scale))
    reps: dict = {}
    for av in a.vals:
        for bv in b.vals:
            reps.setdefault(av * bv, []).append((av, bv))
    min_lines = None
    witnesses = set()
    for s in s_t.vals:
        shifts = [((s + bv) / bv * scale).as_integer_ratio() for bv in b.vals]
        for x in a.vals:
            pt = (1 / x, s)
            if pt in witnesses:
                raise InvariantViolation("witness points must be pairwise distinct")
            witnesses.add(pt)
            designated = set()
            for ai, bi in reps[s]:
                line = line_from_expander_params(x * (ai + 1), bi)
                key = (line.vertical, line.m, line.c)
                if key not in family_keys:
                    raise WitnessFailure(f"designated line for {pt} not in the family")
                if not line.contains(pt):
                    raise WitnessFailure(f"designated line misses its witness {pt}")
                designated.add(key)
            if len(designated) < t:
                raise WitnessFailure(
                    f"witness {pt} lies on {len(designated)} designated lines < t = {t}"
                )
            xn, xd = x.as_integer_ratio()
            through = 0
            for n, d in shifts:
                k, rem = divmod(xn * n, xd * d)
                if rem == 0 and k in alpha_ints:
                    through += 1
            if through < len(designated):
                raise InvariantViolation("recount found fewer lines than designated")
            min_lines = through if min_lines is None else min(min_lines, through)
    if len(witnesses) != len(s_t) * len(a):
        raise InvariantViolation("witness count mismatch")
    return StLowerBoundResult(
        s_t=s_t,
        t=t,
        witness_count=len(witnesses),
        family_size=len(family.lines),
        min_lines_through_witness=min_lines if min_lines is not None else 0,
    )


def literal_base_point(A: FSet):
    """b0, its total and the dyadic class A1, as the fp pipeline selected them."""
    p = A.ctx.p
    shifted = {a: frozenset((a * (b + 1)) % p for b in A.vals) for a in A.vals}
    mult = Counter(x for s in shifted.values() for x in s)
    best_total, b0 = max((sum(mult[x] for x in shifted[b]), -b) for b in A.vals)
    b0 = -b0
    counts = {a: len(shifted[a] & shifted[b0]) for a in A.vals}
    classes = {}
    for a in A.vals:
        c = counts[a]
        if c >= 1:
            classes.setdefault(c.bit_length() - 1, []).append(a)
    j_sel = min(classes, key=lambda j: (-(1 << j) * len(classes[j]), j))
    return b0, best_total, classes[j_sel]


# -- strategies ---------------------------------------------------------------------

@st.composite
def fp_sets(draw, min_size=0, max_size=8, nonzero=False):
    p = draw(st.sampled_from(SMALL_PRIMES))
    lo = 1 if nonzero else 0
    vals = draw(st.sets(st.integers(lo, p - 1), min_size=min_size, max_size=max_size))
    return FSet(FieldCtx.prime(p), vals)


@st.composite
def fp_set_pairs(draw, min_size=0, max_size=8, nonzero=True):
    a = draw(fp_sets(min_size, max_size, nonzero))
    lo = 1 if nonzero else 0
    b_vals = draw(st.sets(st.integers(lo, a.ctx.p - 1), min_size=min_size, max_size=max_size))
    return a, FSet(a.ctx, b_vals)


nonzero_q = st.builds(Fraction, st.integers(1, 15) | st.integers(-15, -1), st.integers(1, 6))
q_sets = st.sets(nonzero_q, max_size=8).map(lambda v: FSet(Q, v))
q_set_pairs = st.tuples(q_sets, q_sets)


# -- twisted energy and the twist spectrum --------------------------------------------

@settings(max_examples=200, deadline=None)
@given(fp_sets(), st.integers(-150, 150) | nonzero_q)
@example(FSet(FieldCtx.prime(7), [0, 3, 6]), 7)              # a multiple of p is a zero twist
@example(FSet(FieldCtx.prime(7), [0, 3, 6]), Fraction(1, 7))  # no inverse mod p
@example(FSet(FieldCtx.prime(2), [0, 1]), 1)
def test_twisted_energy_fp_matches_literal_loop(a, xi):
    assert outcome(twisted_energy, a, xi) == outcome(literal_twisted_energy, a, xi)


@settings(max_examples=200, deadline=None)
@given(st.sets(st.builds(Fraction, st.integers(-15, 15), st.integers(1, 6)), max_size=8)
       .map(lambda v: FSet(Q, v)),
       nonzero_q | st.sampled_from([Fraction(-1), Fraction(1), Fraction(-1, 2)]))
@example(FSet(Q, [0, 1, 2, 3]), Fraction(-1))
@example(FSet(Q, [Fraction(1, 2), 1, Fraction(3, 2)]), Fraction(2, 3))
@example(FSet(Q, [1, 2]), Fraction(0))
def test_twisted_energy_q_matches_literal_loop(a, xi):
    assert outcome(twisted_energy, a, xi) == outcome(literal_twisted_energy, a, xi)


@settings(max_examples=200, deadline=None)
@given(fp_sets(max_size=9))
@example(FSet(FieldCtx.prime(109), [1, 5, 10, 31, 36, 40, 43]))
@example(FSet(FieldCtx.prime(13), [1, 2, 5, 6]))
def test_twist_spectrum_matches_literal_difference_pass(a):
    quads, energies = twist_spectrum(a)
    old_quads, old_energies = literal_twist_spectrum(a)
    assert quads == old_quads and energies == old_energies
    assert list(quads.items()) == list(old_quads.items())
    assert list(energies.items()) == list(old_energies.items())


# -- R6, injection witness, the S_t certificate ----------------------------------------

@settings(max_examples=300, deadline=None)
@given(fp_set_pairs() | q_set_pairs)
@example((FSet(Q, []), FSet(Q, [Fraction(1, 3)])))
@example((FSet(Q, [Fraction(1, 3), Fraction(5, 7)]), FSet(Q, [])))
def test_r6_lhs_matches_literal_loop(pair):
    a, b = pair
    rep = check("R6", A=a, B=b)
    assert rep.lhs == literal_r6_lhs(a, b)
    assert rep.verdict == "Holds"


@settings(max_examples=150, deadline=None)
@given(fp_set_pairs(min_size=1) | q_set_pairs.filter(lambda ab: len(ab[0]) and len(ab[1])),
       st.sampled_from([Fraction(1, 8), Fraction(1, 4), Fraction(1, 2)]),
       st.booleans())
def test_injection_witness_matches_literal_loop(pair, eps, with_eps):
    a, b = pair
    g = popular_ratio_graph(a, b, eps).graph
    epsilon = eps if with_eps else None
    assert (outcome(injection_witness, a, b, g, epsilon)
            == outcome(literal_injection_witness, a, b, g, epsilon))


# R7 on integer keys: sets with negative members, -1 in A (so alpha = 0 is a
# slope of the family), negative members of B (negative divisors in the
# recount), small denominators that make products collide and large ones

wide_q = st.builds(Fraction, st.integers(1, 10 ** 6) | st.integers(-10 ** 6, -1),
                   st.integers(1, 10 ** 6))
colliding_q = st.builds(Fraction, st.integers(1, 12) | st.integers(-12, -1),
                        st.sampled_from([1, 2, 3, 4, 6, 12]))
r7_sets = st.one_of(
    st.sets(colliding_q, min_size=1, max_size=8),
    st.sets(colliding_q | wide_q, min_size=1, max_size=7),
    st.sets(colliding_q, min_size=0, max_size=6).map(lambda v: v | {Fraction(-1)}),
).map(lambda v: FSet(Q, v))

R7_FIELDS = [f.name for f in dataclasses.fields(StLowerBoundResult)]


@settings(max_examples=120, derandomize=True, deadline=None)
@given(r7_sets, r7_sets)
@example(FSet(Q, [2, 3, 4, 6]), FSet(Q, [2, 3, 4, 6]))
@example(FSet(Q, [Fraction(-1, 2), Fraction(1, 3), 5]), FSet(Q, [Fraction(3, 4), -2]))
@example(FSet(Q, [-1, 2, 3, 4, 6]), FSet(Q, [-6, -4, -3, -2, 2, 3]))
@example(FSet(Q, [-1, Fraction(1, 2), Fraction(-1, 3), 5]),
         FSet(Q, [Fraction(-3, 4), Fraction(10 ** 6 - 1, 10 ** 6), 2]))
def test_st_lower_bound_check_matches_literal_loop(a, b):
    # every field of the result, at every valid t
    for t in range(1, min(len(a), len(b)) + 1):
        new, old = st_lower_bound_check(a, b, t), literal_st_lower_bound_check(a, b, t)
        for name in R7_FIELDS:
            assert getattr(new, name) == getattr(old, name), name
        assert new.s_t.vals == old.s_t.vals


def dropping(index):
    """`expander_set` with one member of the result left out."""
    full_set = expander_set

    def short(a: FSet, b: FSet) -> FSet:
        full = full_set(a, b)
        gone = full.vals[index % len(full)]
        return FSet(full.ctx, [v for v in full.vals if v != gone])
    return short


def outcome_without_alpha(fn, index, a, b, t):
    """`fn`'s outcome when A(A+1) misses one slope, in the package and in
    the literal copy alike."""
    short = dropping(index)
    with mock.patch.object(incidence, "expander_set", short), \
            mock.patch.object(sys.modules[__name__], "expander_set", short):
        return outcome(fn, a, b, t)


def test_a_missing_slope_fails_alike():
    a = FSet(Q, [2, 3])
    # A(A+1) = {6, 8, 9, 12}; without 12 = 3*(3+1) the first witness that
    # needs it is (1/3, 6), from 6 = 3*2: its line y = (12x - 1)*2 is gone
    new = outcome_without_alpha(st_lower_bound_check, -1, a, a, 1)
    old = outcome_without_alpha(literal_st_lower_bound_check, -1, a, a, 1)
    assert new == old == (
        WitnessFailure,
        "designated line for (Fraction(1, 3), Fraction(6, 1)) not in the family")


@settings(max_examples=80, derandomize=True, deadline=None)
@given(r7_sets, r7_sets, st.integers(0, 63), st.integers(1, 8))
def test_a_missing_slope_raises_the_same_error(a, b, index, t):
    t = min(t, len(a), len(b))
    assert (outcome_without_alpha(st_lower_bound_check, index, a, b, t)
            == outcome_without_alpha(literal_st_lower_bound_check, index, a, b, t))


def test_r7_builds_no_line():
    built = []
    init = Line.__init__

    def spy(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    a = FSet(Q, [-1, Fraction(1, 2), 2, 3, 4, 6])
    b = FSet(Q, [Fraction(-3, 2), 2, 3, 4, 6])
    with mock.patch.object(Line, "__init__", spy):
        Line.slope_intercept(0, 0)  # the spy sees a Line that is built
        assert len(built) == 1
        reps = [check("R7", A=a, B=b, t=t) for t in (1, 2, 3)]
    assert [r.verdict for r in reps] == ["Holds"] * 3
    assert len(built) == 1


# -- the fp pipeline's base point ------------------------------------------------------

@st.composite
def pipeline_inputs(draw):
    p = draw(st.sampled_from([53, 61, 89, 101, 113, 149, 211]))
    n = draw(st.integers(3, min(7, int(p ** 0.5))))
    vals = draw(st.sets(st.integers(1, p - 2), min_size=n, max_size=n))
    return FSet(FieldCtx.prime(p), vals)


@settings(max_examples=60, deadline=None)
@given(pipeline_inputs())
@example(FSet(FieldCtx.prime(109), [1, 5, 10, 31, 36, 40, 43, 65, 71]))
def test_base_point_rows_match_literal_loop(a):
    b0, best_total, a1 = literal_base_point(a)
    trace = finite_field_pipeline(a)
    assert trace.selected["b0"] == str(b0)
    assert trace.selected["A1"] == [str(v) for v in a1]
    (base,) = [s.report for s in trace.steps if s.report.name == "fp-base-point"]
    assert base.rhs == best_total


# -- the partial difference set A -_G B -------------------------------------------------

@st.composite
def pair_graphs(draw):
    """A graph on two sets over F_p (p = 2, 3, 5 or 1009) or over Q (negative
    and fractional members, 0 allowed), with any edges, possibly transposed."""
    p = draw(st.sampled_from([2, 3, 5, 1009, None]))
    if p is None:
        ctx, members = Q, st.builds(Fraction, st.integers(-20, 20), st.integers(1, 6))
    else:
        ctx, members = FieldCtx.prime(p), st.integers(0, p - 1)
    a = FSet(ctx, draw(st.sets(members, max_size=7)))
    b = FSet(ctx, draw(st.sets(members, max_size=7)))
    pairs = [(i, j) for i in range(len(a)) for j in range(len(b))]
    g = PairGraph(a, b, draw(st.sets(st.sampled_from(pairs))) if pairs else ())
    return g.transpose() if draw(st.booleans()) else g


def assert_partial_diff_is_literal(g):
    got = partial_combine(g)
    want = literal_partial_diff(g)
    assert got == want and got.vals == want.vals
    assert partial_combine(g) is got  # built once per graph


@settings(max_examples=300, derandomize=True, deadline=None)
@given(pair_graphs())
@example(PairGraph(FSet(Q, []), FSet(Q, []), ()))
@example(PairGraph(FSet(FieldCtx.prime(2), [0, 1]), FSet(FieldCtx.prime(2), [0, 1]), ()))
@example(PairGraph(FSet(Q, [Fraction(-7, 2), Fraction(1, 3)]),
                   FSet(Q, [Fraction(-5, 6), 0, 4]), [(0, 1), (1, 0), (1, 2)]))
def test_partial_combine_matches_literal_per_edge_loop(g):
    assert_partial_diff_is_literal(g)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(fp_set_pairs(nonzero=False) | q_set_pairs)
def test_partial_combine_on_a_complete_graph_is_the_difference_set(pair):
    a, b = pair
    g = PairGraph.complete(a, b)
    assert partial_combine(g) == combine(a, b, "diff")
    assert_partial_diff_is_literal(g)
    assert_partial_diff_is_literal(g.transpose())


@settings(max_examples=150, derandomize=True, deadline=None)
@given(fp_set_pairs(min_size=1) | q_set_pairs.filter(lambda ab: len(ab[0]) and len(ab[1])),
       st.sampled_from([Fraction(1, 64), Fraction(1, 8), Fraction(1, 4), Fraction(1, 2)]))
def test_partial_combine_on_popular_ratio_graphs(pair, eps):
    res = popular_ratio_graph(*pair, eps)
    assert res.partial_diff == literal_partial_diff(res.graph)
    assert_partial_diff_is_literal(res.graph)
    assert_partial_diff_is_literal(res.graph.transpose())


def test_partial_combine_calls_no_field_method(monkeypatch):
    f = FieldCtx.prime(1009)
    graphs = [
        PairGraph.complete(FSet(f, [0, 3, 500, 1008]), FSet(f, [1, 2, 999])),
        PairGraph(FSet(Q, [Fraction(-7, 2), Fraction(1, 3), 5]),
                  FSet(Q, [Fraction(-5, 6), 4]), [(0, 0), (2, 1)]),
        PairGraph(FSet(f, [4]), FSet(f, []), ()),
    ]
    want = [literal_partial_diff(g) for g in graphs]
    called = []
    for name, fn in vars(FieldCtx).items():
        if inspect.isfunction(fn) and not name.startswith("__"):
            monkeypatch.setattr(FieldCtx, name, lambda *args, _name=name, _fn=fn, **kw: (
                called.append(_name) or _fn(*args, **kw)))
    assert f.sub(3, 5) == 1007 and called == ["sub"]  # the spy sees a call
    called.clear()
    built = [partial_combine(g) for g in graphs]
    assert called == []
    assert built == want and [len(s) for s in built] == [11, 2, 0]
