"""Inequality registry, instance-level certification, and the two end-to-end
proof pipelines (prime-field and rational).

Verdict discipline: relations that are theorems with no hidden constant get
Holds or Fails decided exactly (or by certified enclosures that refine until
decidable); relations stated with an absolute-constant `<<` or a
log-factor `<~` only ever get SlackOnly, with the observed ratio of the two
sides.  Inconclusive is reserved for enclosure overlap at the precision cap.
A Fails on a constant-free relation is a counterexample and must abort any
surrounding suite.
"""
from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from typing import Callable, Dict, Optional, Tuple, Union

from . import constructions as cons
from .energy import (
    PRECISION_START,
    e2,
    energy,
    energy_at,
    histogram,
    precision_cap,
    rich_products,
    twist_spectrum,
    twisted_energy,
)
from .errors import (
    DensityViolated,
    FieldMismatch,
    SetTooSmall,
    SideConditionViolated,
    UnknownRelation,
    WitnessFailure,
)
from .field import KIND_PRIME, KIND_RATIONAL
from .incidence import st_lower_bound_check
from .intervals import RatInterval, interval_to_decimal, root_interval
from .sets import (
    DiscreteLog,
    FSet,
    _pair_ints,
    _scaled,
    combine,
    dilate,
    expander_set,
    kfold_sum,
    mask_steps,
    negate,
    translate,
)

HOLDS = "Holds"
FAILS = "Fails"
SLACK_ONLY = "SlackOnly"
INCONCLUSIVE = "Inconclusive"

ReportValue = Union[int, Fraction, RatInterval, None]


def _value_json(v: ReportValue):
    if v is None:
        return None
    if isinstance(v, RatInterval):
        return interval_to_decimal(v)
    return str(v)


@dataclass(frozen=True)
class InequalityReport:
    name: str
    lhs: ReportValue
    rhs: ReportValue
    verdict: str
    slack: ReportValue
    instance_digest: str
    notes: str = ""

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "verdict": self.verdict,
            "lhs": _value_json(self.lhs),
            "rhs": _value_json(self.rhs),
            "slack": _value_json(self.slack),
            "instance_digest": self.instance_digest,
            "notes": self.notes,
        }


def instance_digest(**inputs) -> str:
    doc = {}
    for key, value in sorted(inputs.items()):
        if value is None:
            continue
        if isinstance(value, FSet):
            doc[key] = value.to_json()
        elif isinstance(value, Fraction):
            doc[key] = str(value)
        else:
            doc[key] = value
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


# -- side conditions -----------------------------------------------------------

def _exclude(a: FSet, values, label: str) -> None:
    for v in values:
        if v in a:
            raise SideConditionViolated(
                f"{label} must exclude {a.ctx.render(a.ctx.canon(v))}"
            )


def _require_nonempty(a: FSet, label: str) -> None:
    if len(a) == 0:
        raise SideConditionViolated(f"{label} must be nonempty")


def _require_rational(a: FSet) -> None:
    if a.ctx.kind != KIND_RATIONAL:
        raise FieldMismatch("relation runs over the rationals only")


def _ratio_slack(lhs, rhs):
    """slack = lhs / rhs for mixed exact/interval operands; None when the
    denominator vanishes (degenerate empty-set instances)."""
    if isinstance(lhs, RatInterval) or isinstance(rhs, RatInterval):
        lhs_iv = lhs if isinstance(lhs, RatInterval) else RatInterval.point(lhs)
        rhs_iv = rhs if isinstance(rhs, RatInterval) else RatInterval.point(rhs)
        try:
            return lhs_iv / rhs_iv
        except ZeroDivisionError:
            return None
    if rhs == 0:
        return None
    return Fraction(lhs) / Fraction(rhs)


def _hold_report(name, lhs, rhs, digest, notes="", strict_equal=False) -> InequalityReport:
    if strict_equal:
        verdict = HOLDS if lhs == rhs else FAILS
    else:
        lv = lhs.hi if isinstance(lhs, RatInterval) else lhs
        rv = rhs.lo if isinstance(rhs, RatInterval) else rhs
        verdict = HOLDS if lv <= rv else FAILS
    return InequalityReport(name, lhs, rhs, verdict, _ratio_slack(lhs, rhs), digest, notes)


def _slack_report(name, lhs, rhs, digest, notes="") -> InequalityReport:
    return InequalityReport(name, lhs, rhs, SLACK_ONLY, _ratio_slack(lhs, rhs), digest, notes)


# -- one instance --------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Instance:
    """One set A and what the relations and the real pipeline derive from it,
    each field built on first use and kept as long as the Instance, which
    lives for one call.  Checkers ask for a field by name, so nothing is
    ever looked up by set equality.

    `a1` is A+1 and `aa1` is A(A+1); `hist_*` are ratio spectra, `e3_*`
    their third moments and `e2_*` multiplicative energies, `e2_mixed`
    being E2(A, A+1).  `e15` keeps the 3/2-energy enclosures of the
    spectra.  Over F_p, `logs` is the one discrete-log table the mask
    kernels of every E2 and of R6 share; it is built only if one runs."""

    A: FSet

    a1 = cached_property(lambda self: translate(self.A, 1))
    aa1 = cached_property(lambda self: expander_set(self.A, self.A))
    hist_a = cached_property(lambda self: histogram(self.A, self.A, "ratio"))
    hist_a1 = cached_property(lambda self: histogram(self.a1, self.a1, "ratio"))
    e3_a = cached_property(lambda self: energy(self.hist_a, 3).exact)
    e3_a1 = cached_property(lambda self: energy(self.hist_a1, 3).exact)
    logs = cached_property(lambda self: DiscreteLog(self.A.ctx.p))
    e2_a = cached_property(lambda self: e2(self.A, self.A, self.logs))
    e2_a1 = cached_property(lambda self: e2(self.a1, self.a1, self.logs))
    e2_mixed = cached_property(lambda self: e2(self.A, self.a1, self.logs))
    e2_a_aa1 = cached_property(lambda self: e2(self.A, self.aa1, self.logs))
    e2_a1_aa1 = cached_property(lambda self: e2(self.a1, self.aa1, self.logs))
    _e15 = cached_property(lambda self: {})

    def e15(self, spectrum: str, bits: int) -> RatInterval:
        """E1.5 of the ratio spectrum `spectrum` ("hist_a" or "hist_a1") at
        `bits` bits, built once per (spectrum, bits)."""
        key = (spectrum, bits)
        if key not in self._e15:
            self._e15[key] = energy_at(getattr(self, spectrum), Fraction(3, 2), bits).interval
        return self._e15[key]


# -- registry checkers ---------------------------------------------------------
# Every checker takes the Instance of its set A, its other inputs, the
# instance digest and the precision cap as keywords, so `check` calls them
# all the same way.  Each checks its side conditions before it reads the
# Instance, so its first error does not depend on the relations before it.

def _check_r1(*, inst: Instance, B: FSet, C: FSet, digest: str,
              cap: Optional[int]) -> InequalityReport:
    A = inst.A
    _require_nonempty(C, "C")
    lhs = len(combine(A, B, "diff"))
    rhs = Fraction(len(combine(A, C, "diff")) * len(combine(B, C, "diff")), len(C))
    return _hold_report("R1", lhs, rhs, digest, "difference-set triangle inequality")


def _check_r2(*, inst: Instance, digest: str, cap: Optional[int]) -> InequalityReport:
    _exclude(inst.A, (0, -1), "A")
    _require_nonempty(inst.A, "A")
    lhs = inst.hist_a.total_support  # |A/A|
    rhs = Fraction(len(inst.aa1) ** 2, len(inst.A))
    return _hold_report("R2", lhs, rhs, digest, "ratio set bounded by the expander set squared")


def _check_r3(*, inst: Instance, digest: str, cap: Optional[int]) -> InequalityReport:
    _exclude(inst.A, (0, 1, -1), "A")
    _require_nonempty(inst.A, "A")
    lhs = Fraction(len(inst.A) ** 4, len(inst.aa1))
    return _hold_report("R3", lhs, inst.e2_mixed, digest,
                        "Cauchy-Schwarz lower bound on the mixed energy")


def _check_r4(*, inst: Instance, digest: str, cap: Optional[int]) -> InequalityReport:
    _exclude(inst.A, (0, 1, -1), "A")
    lhs, e2a, e2b = inst.e2_mixed, inst.e2_a, inst.e2_a1
    verdict = HOLDS if lhs * lhs <= e2a * e2b else FAILS
    rhs = root_interval(e2a * e2b, 2, PRECISION_START)
    return InequalityReport("R4", lhs, rhs, verdict, _ratio_slack(lhs, rhs), digest,
                            "mixed energy split by Cauchy-Schwarz; decided on squares")


def _decide(enclosure_at, power: int, rhs, cap: int) -> Tuple[str, RatInterval]:
    """Refine the enclosure `enclosure_at(bits)` of a left side from
    min(128, cap) bits, doubling up to `cap`, until its `power`-th power lies
    at or below the exact `rhs` (Holds) or wholly above it (Fails);
    Inconclusive if the cap is reached first.  Raising the left side to a
    power keeps an irrational right side, such as a cube root, exact.  The
    package's only precision ladder.  Returns the verdict and the last
    enclosure."""
    bits = min(PRECISION_START, cap)
    while True:
        enclosure = enclosure_at(bits)
        decided = enclosure.power(power)
        if decided.hi <= rhs:
            return HOLDS, enclosure
        if decided.lo > rhs:
            return FAILS, enclosure
        if bits >= cap:
            return INCONCLUSIVE, enclosure
        bits = min(bits * 2, cap)


def _r5_report(e2_mixed: int, e15_a: Callable[[int], RatInterval], e3a: int, e3b: int,
               nb: int, digest: str, cap: int) -> InequalityReport:
    """R5 from E2(A, AB), E1.5(A) at a given precision, E3(A), E3(B) and |B|."""
    verdict, lhs = _decide(lambda bits: e15_a(bits).power(2) * nb ** 2,
                           3, e2_mixed ** 3 * e3a ** 2 * e3b, cap)
    rhs = (
        RatInterval.point(e2_mixed)
        * root_interval(e3a ** 2, 3, PRECISION_START)
        * root_interval(e3b, 3, PRECISION_START)
    )
    note = "third-moment energy inequality; decided on cubes"
    return InequalityReport("R5", lhs, rhs, verdict, _ratio_slack(lhs, rhs), digest, note)


def _check_r5(*, inst: Instance, B: FSet, digest: str, cap: Optional[int]) -> InequalityReport:
    A = inst.A
    _exclude(A, (0,), "A")
    _exclude(B, (0,), "B")
    cap = precision_cap(cap)
    e2_mixed = e2(A, combine(A, B, "prod"), inst.logs)
    e3b = energy(histogram(B, B, "ratio"), 3).exact
    return _r5_report(e2_mixed, partial(inst.e15, "hist_a"), inst.e3_a, e3b, len(B), digest, cap)


def _r6_pairs(A: FSet, ratios: FSet, B: FSet) -> int:
    """The sum over x in `ratios` of |A ∩ xB|, by the pair kernel."""
    # |A ∩ xB| summed over x counts the products x*b that land in A.  Each
    # a = (a/b)*b is such a product, so a*scale is an int whenever B is
    # nonempty; with B empty there are no products to count.
    products, scale = _pair_ints(ratios, B, "prod")
    a_ints = set(_scaled(A.vals, scale))
    return sum(map(a_ints.__contains__, products))


def _r6_masks(A: FSet, ratios: FSet, B: FSet, logs: DiscreteLog) -> int:
    """The same sum over F_p from log-masks, summed over b in B instead: it
    counts the pairs (x, b) with xb in A, so it is the sum over b of
    |b*ratios ∩ A|."""
    a = logs.mask(A)
    return sum((a & row).bit_count() for row in logs.rotations(logs.mask(ratios), B))


def _check_r6(*, inst: Instance, B: FSet, digest: str, cap: Optional[int]) -> InequalityReport:
    A = inst.A
    _exclude(A, (0,), "A")
    _exclude(B, (0,), "B")
    ratios = combine(A, B, "ratio")
    ctx = A.ctx
    if ctx.kind == KIND_PRIME and (
            mask_steps(ctx.p, len(A) + len(ratios) + len(B), 2 * len(B)) < len(ratios) * len(B)):
        total = _r6_masks(A, ratios, B, inst.logs)
    else:
        total = _r6_pairs(A, ratios, B)
    return _hold_report("R6", total, len(A) * len(B), digest,
                        "pair-counting identity over the ratio support", strict_equal=True)


def _check_r7(*, inst: Instance, B: FSet, t: int, digest: str,
              cap: Optional[int]) -> InequalityReport:
    A = inst.A
    _require_rational(A)
    _require_nonempty(A, "A")
    _require_nonempty(B, "B")
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


def _r8_report(res: cons.PopularRatioResult, ab1: int, ba1: int,
               digest: str) -> InequalityReport:
    """R8 from the popular-ratio graph on (A, B), |A(B+1)| and |B(A+1)|."""
    g = res.graph
    shape = Fraction(ab1 * ba1 * res.ratio_support, len(g.left) * len(g.right))
    return _slack_report("R8", len(res.partial_diff), shape, digest,
                         f"partial difference set vs expander shape; |G| = {len(res.graph)}")


def _check_r8(*, inst: Instance, B: FSet, epsilon: Fraction, digest: str,
              cap: Optional[int]) -> InequalityReport:
    _require_nonempty(inst.A, "A")
    _require_nonempty(B, "B")
    A = inst.A
    ab1 = len(expander_set(A, B))
    ba1 = ab1 if B is A else len(expander_set(B, A))
    return _r8_report(cons.popular_ratio_graph(A, B, epsilon), ab1, ba1, digest)


def _check_r9(*, inst: Instance, B: FSet, t: int, digest: str,
              cap: Optional[int]) -> InequalityReport:
    A = inst.A
    _require_rational(A)
    _require_nonempty(A, "A")
    _require_nonempty(B, "B")
    _exclude(A, (0, 1, -1), "A")
    _exclude(B, (0,), "B")
    lhs = len(rich_products(A, B, t))
    rhs = Fraction(len(inst.aa1) ** 2 * len(B) ** 2, len(A) * t ** 3)
    return _slack_report("R9", lhs, rhs, digest, "rich-product count vs incidence shape")


def _check_r10(*, inst: Instance, digest: str, cap: Optional[int]) -> InequalityReport:
    _exclude(inst.A, (0, 1, -1), "A")
    e3a, e3b = inst.e3_a, inst.e3_a1
    rhs = len(inst.aa1) ** 2 * len(inst.A)
    note = f"third moments E3(A) = {e3a}, E3(A+1) = {e3b}; log factors fold into slack"
    return _slack_report("R10", max(e3a, e3b), rhs, digest, note)


def _check_r11(*, inst: Instance, digest: str, cap: Optional[int]) -> InequalityReport:
    _exclude(inst.A, (0, 1, -1), "A")
    e2a, e2b = inst.e2_a_aa1, inst.e2_a1_aa1
    rhs = root_interval(len(inst.aa1) ** 5, 2, PRECISION_START)
    note = f"mixed energies {e2a} and {e2b} vs expander set to the 5/2"
    return _slack_report("R11", max(e2a, e2b), rhs, digest, note)


def _check_r12(*, inst: Instance, digest: str, cap: Optional[int]) -> InequalityReport:
    _exclude(inst.A, (0, 1, -1), "A")
    _require_nonempty(inst.A, "A")
    lhs = Fraction(len(inst.A) ** 11, len(inst.aa1) ** 5)
    bits = min(PRECISION_START, precision_cap(cap))
    rhs = inst.e15("hist_a", bits) * inst.e15("hist_a1", bits)
    return _slack_report("R12", lhs, rhs, digest, "lower shape for the product of 3/2-energies")


def _check_r13(*, inst: Instance, digest: str, cap: Optional[int]) -> InequalityReport:
    _exclude(inst.A, (0, 1, -1), "A")
    return _slack_report("R13", len(inst.A) ** 24, len(inst.aa1) ** 19, digest,
                         "final exponent comparison, 24 against 19")


def _check_r14(*, inst: Instance, digest: str, cap: Optional[int]) -> InequalityReport:
    _exclude(inst.A, (0, 1, -1), "A")
    lhs = root_interval(len(inst.A) ** 57, 56, PRECISION_START)
    return _slack_report("R14", lhs, len(inst.aa1), digest,
                         "expander growth probe at exponent 57/56")


@dataclass(frozen=True)
class RelationSpec:
    name: str
    inputs: Tuple[str, ...]
    klass: str       # "exact" | "certified" | "slack"
    description: str
    checker: Callable[..., InequalityReport]


REGISTRY: Dict[str, RelationSpec] = {
    "R1": RelationSpec("R1", ("A", "B", "C"), "exact",
                       "|A-B| <= |A-C||B-C|/|C| (triangle)", _check_r1),
    "R2": RelationSpec("R2", ("A",), "exact",
                       "|A/A| <= |A(A+1)|^2/|A| (multiplicative triangle)", _check_r2),
    "R3": RelationSpec("R3", ("A",), "exact",
                       "|A|^4/|A(A+1)| <= E2(A, A+1) (Cauchy-Schwarz)", _check_r3),
    "R4": RelationSpec("R4", ("A",), "exact",
                       "E2(A, A+1) <= sqrt(E2(A) E2(A+1)) (decided on squares)", _check_r4),
    "R5": RelationSpec("R5", ("A", "B"), "certified",
                       "E1.5(A)^2 |B|^2 <= E2(A, AB) E3(A)^(2/3) E3(B)^(1/3)", _check_r5),
    "R6": RelationSpec("R6", ("A", "B"), "exact",
                       "sum over A/B of |A ∩ xB| equals |A||B|", _check_r6),
    "R7": RelationSpec("R7", ("A", "B", "t"), "exact",
                       "|P_t| >= |S_t(A,B)||A| for the slope family", _check_r7),
    "R8": RelationSpec("R8", ("A", "B", "epsilon"), "slack",
                       "|A -_G B| vs |A(B+1)||B(A+1)||A/B|/(|A||B|)", _check_r8),
    "R9": RelationSpec("R9", ("A", "B", "t"), "slack",
                       "|S_t(A,B)| vs |A(A+1)|^2|B|^2/(|A| t^3)", _check_r9),
    "R10": RelationSpec("R10", ("A",), "slack",
                        "E3(A), E3(A+1) vs |A(A+1)|^2 |A|", _check_r10),
    "R11": RelationSpec("R11", ("A",), "slack",
                        "E2(A, A(A+1)), E2(A+1, A(A+1)) vs |A(A+1)|^(5/2)", _check_r11),
    "R12": RelationSpec("R12", ("A",), "slack",
                        "|A|^11/|A(A+1)|^5 vs E1.5(A) E1.5(A+1)", _check_r12),
    "R13": RelationSpec("R13", ("A",), "slack",
                        "|A|^24 vs |A(A+1)|^19", _check_r13),
    "R14": RelationSpec("R14", ("A",), "slack",
                        "|A|^(57/56) vs |A(A+1)|", _check_r14),
}

SLACK_KEYS = tuple(k for k, spec in REGISTRY.items() if spec.klass == "slack")


def check(
    name: str,
    A: Union[FSet, Instance, None] = None,
    B: Optional[FSet] = None,
    C: Optional[FSet] = None,
    t: Optional[int] = None,
    epsilon=None,
    cap: Optional[int] = None,
) -> InequalityReport:
    """Certify one registry relation on one instance.

    Only the inputs the relation takes are used; they, with the relation
    name, make up the instance digest.  `A` may be given as an `Instance`
    of the set, so that several relations on one set share what it builds."""
    spec = REGISTRY.get(name)
    if spec is None:
        raise UnknownRelation(f"no relation named {name!r}")
    inst = Instance(A) if isinstance(A, FSet) else A
    given = {"A": inst.A if inst is not None else None, "B": B, "C": C, "t": t,
             "epsilon": Fraction(epsilon) if epsilon is not None else None}
    inputs = {}
    for needed in spec.inputs:
        if given[needed] is None:
            raise SideConditionViolated(f"{name} needs input {needed}")
        inputs[needed] = given[needed]
    digest = instance_digest(relation=name, **inputs)
    del inputs["A"]
    return spec.checker(inst=inst, digest=digest, cap=cap, **inputs)


# -- pipeline traces -----------------------------------------------------------

@dataclass(frozen=True)
class PipelineStep:
    description: str
    report: InequalityReport

    def to_json(self) -> dict:
        return {"description": self.description, "report": self.report.to_json()}


@dataclass(frozen=True)
class PipelineTrace:
    mode: str                              # "fp" | "real"
    input_set: FSet
    epsilon: Optional[Fraction]
    steps: Tuple[PipelineStep, ...]
    selected: Optional[dict]

    def to_json(self) -> dict:
        return {
            "mode": self.mode,
            "input": self.input_set.to_json(),
            "epsilon": str(self.epsilon) if self.epsilon is not None else None,
            "selected": self.selected,
            "steps": [s.to_json() for s in self.steps],
        }

    def to_bytes(self) -> bytes:
        return (json.dumps(self.to_json(), sort_keys=True, separators=(",", ":")) + "\n").encode("utf-8")

    def verdicts(self) -> Tuple[str, ...]:
        return tuple(s.report.verdict for s in self.steps)

    def has_fails(self) -> bool:
        return FAILS in self.verdicts()

    def has_inconclusive(self) -> bool:
        return INCONCLUSIVE in self.verdicts()


def _fp_cover_symbol(A, A1, b0_shift_set, sym, sign, eps, ctx):
    """Covering step for one symbol: cover most of A1 so that sym * A_sym sits
    inside few translates of b0*A (sign +) or -b0*A (sign -).

    Returns (B_sym, cover), where B_sym = {a in A : sym*(a + 1) in b0(A + 1)}
    is the set the class is covered by.  Membership of every covered element
    in the claimed translate union is re-checked exactly by the caller.
    """
    b_vals = [a for a in A.vals if (sym * (a + 1)) % ctx.p in b0_shift_set]
    b_n = A.with_values(b_vals)
    inner_eps = eps * eps / 4
    pop = cons.popular_ratio_graph(A1, b_n, inner_eps)
    cover = cons.greedy_cover(A1, b_n, pop.graph, inner_eps, sign)
    return b_n, cover


# the largest base the fp pipeline gives the exhaustive 2^|A| subset search
PLUNNECKE_BUDGET = 12


def finite_field_pipeline(A: FSet, epsilon=Fraction(1, 64)) -> PipelineTrace:
    """Trace the prime-field growth argument on a concrete set.

    Selects the popular intersection base b0, the dyadic class (A1, N),
    computes the quotient set R(A1) of difference ratios, branches on
    whether R(A1) covers the whole field, and emits one exact or slack
    report per step of the argument.
    """
    ctx = A.ctx
    if ctx.kind != KIND_PRIME:
        raise FieldMismatch("finite-field pipeline needs a prime-field set")
    eps = Fraction(epsilon)
    if not 0 < eps < Fraction(1, 16):
        raise SideConditionViolated(f"epsilon = {eps} outside (0, 1/16)")
    n = len(A)
    if n < 3:
        raise SetTooSmall("pipeline needs at least 3 elements")
    if n * n >= ctx.p:
        raise DensityViolated(f"|A|^2 = {n * n} >= p = {ctx.p}")
    _exclude(A, (0, -1), "A")

    p = ctx.p
    digest = instance_digest(pipeline="fp", A=A, epsilon=eps)
    steps = []
    # the base-point rows a(A+1), from one pass over A x A
    rows = list(_pair_ints(A, A, "expand")[0])
    inst = Instance(A)
    aa1 = inst.aa1
    eighth_shape = Fraction(len(aa1) ** 8, n ** 7)

    # constructive difference-set evidence (self graphs)
    pop = cons.popular_ratio_graph(A, A, eps)
    steps.append(PipelineStep(
        "partial difference set of the popular-ratio graph on (A, A)",
        _r8_report(pop, len(aa1), len(aa1), digest)))
    tri = cons.partial_ruzsa(pop.graph, pop.graph, eps)
    steps.append(PipelineStep(
        "dense partial triangle inequality on the self graph",
        _slack_report("fp-partial-triangle",
                      len(tri.diff_ac) * len(A),
                      len(tri.partial_ab) * len(tri.partial_bc),
                      digest,
                      f"witness pairs |Y| = {tri.y_size}; overlap checks exact")))
    # a ratio r and 1/r are equally popular on A x A, so the self graph is
    # its own transpose and A' = C'
    if tri.a_side != tri.c_side:
        raise cons.InvariantViolation("the self graph's dense sides differ")
    a_core, diff_core = tri.a_side, tri.diff_ac
    steps.append(PipelineStep(
        "difference set of the extracted core against the eighth-power shape",
        _slack_report("fp-difference-shape",
                      len(diff_core),
                      eighth_shape,
                      digest,
                      f"|core| = {len(a_core)}; subset passage carries hidden log factors")))
    steps.append(PipelineStep("ratio-set bound on A",
                              _check_r2(inst=inst, digest=digest, cap=None)))

    # b0 selection by maximal total intersection with a(A+1): the total for b
    # is sum over a of |a(A+1) & b(A+1)| = sum over x in b(A+1) of m(x), with
    # m(x) = #{a : x in a(A+1)}
    shifted = {a: frozenset(rows[i * n:(i + 1) * n]) for i, a in enumerate(A.vals)}
    mult = Counter(x for s in shifted.values() for x in s)
    best_total, b0 = max((sum(mult[x] for x in shifted[b]), -b) for b in A.vals)
    b0 = -b0
    steps.append(PipelineStep(
        "pair-intersection mass of the selected base point",
        _hold_report("fp-base-point", Fraction(n ** 3, len(aa1)), best_total, digest,
                     f"b0 = {b0}; Cauchy-Schwarz average over base points")))

    counts = {a: len(shifted[a] & shifted[b0]) for a in A.vals}
    classes: Dict[int, list] = {}
    for a in A.vals:
        c = counts[a]
        if c >= 1:
            classes.setdefault(c.bit_length() - 1, []).append(a)
    n_classes = n.bit_length() - 1 + 1  # floor(log2 |A|) + 1 possible classes
    j_sel = min(classes, key=lambda j: (-(1 << j) * len(classes[j]), j))
    N = 1 << j_sel
    A1 = A.with_values(classes[j_sel])
    for a in A1.vals:
        if not N <= counts[a] < 2 * N:
            raise cons.InvariantViolation(f"dyadic membership broken at {a}")
    steps.append(PipelineStep(
        "dyadic class selection: class mass dominates the total",
        _hold_report("fp-dyadic-class", best_total, 2 * n_classes * N * len(A1), digest,
                     f"N = {N}, |A1| = {len(A1)}, classes <= {n_classes}; "
                     f"membership in [N, 2N) verified for every element")))

    # quotient set R(A1) with a stored witness quadruple per ratio, and the
    # twisted energy of every nonzero ratio, from one pass over A1 - A1
    r_quads, twist_energies = twist_spectrum(A1)
    r_set = set(r_quads)
    r_full = len(r_set) == p
    steps.append(PipelineStep(
        "difference-ratio set of the dyadic class",
        _hold_report("fp-ratio-set", len(r_set), p, digest,
                     f"|R(A1)| = {len(r_set)}; branch {'ReqFp' if r_full else 'RneqFp'}")))

    selected = {
        "b0": str(b0),
        "A1": [str(v) for v in A1.vals],
        "N": N,
        "R_A1_full": r_full,
        "xi": None,
        "quad": None,
        "branch": None,
    }

    if len(A1) < 2:
        selected["branch"] = "degenerate"
        steps.append(PipelineStep(
            "trace ends: the dyadic class is a singleton, no ratio quadruples",
            _slack_report("fp-degenerate", len(A1), 2, digest,
                          "no twist available; growth probe still reported")))
        steps.append(PipelineStep(
            "final growth probe",
            _slack_report("fp-final-exponent", n ** 57, len(aa1) ** 56, digest,
                          "57th power of |A| against 56th power of the expander set")))
        return PipelineTrace("fp", A, eps, tuple(steps), selected)

    if not r_full:
        branch = "RneqFp"
        xi = quad = None
        for cand in sorted(r_set):
            if (cand - 1) % p not in r_set:
                xi = cand
                quad = r_quads[cand]
                break
        if xi is None:
            raise cons.InvariantViolation("no shiftable twist in a proper ratio set")
    else:
        branch = "ReqFp"
        xi = min((twist_energies[c], c) for c in range(1, p))[1]
        quad = r_quads[xi]
    al, be, ga, de = quad
    selected.update({
        "branch": branch,
        "xi": str(xi),
        "quad": [str(al), str(be), str(ga), str(de)],
    })

    if branch == "ReqFp":
        e_star = twisted_energy(A1, xi)
        if e_star != twist_energies[xi]:
            raise cons.InvariantViolation(
                f"twisted energy at xi = {xi} disagrees with the twist spectrum")
        n1 = len(A1)
        steps.append(PipelineStep(
            "twist selection by minimal twisted energy",
            _hold_report("fp-twist-energy", e_star * (p - 1),
                         (p - 1) * n1 ** 2 + n1 ** 2 * (n1 - 1) ** 2, digest,
                         f"xi = {xi}; average bound over nonzero twists; "
                         f"slack vs |A1|^2 is {Fraction(e_star, n1 ** 2)}")))
    else:
        lhs = len(combine(A1, dilate(A1, (xi - 1) % p), "sum"))
        steps.append(PipelineStep(
            "no-repetition identity for the shifted twist on the dyadic class",
            _hold_report("fp-no-repetition", lhs, len(A1) ** 2, digest,
                         f"xi - 1 = {(xi - 1) % p} avoids R(A1)", strict_equal=True)))

    # covering steps: alpha, beta, gamma by translates of b0*A, delta by -b0*A
    shape = Fraction(len(aa1) ** 2 * inst.hist_a.total_support, N ** 2 * len(A1))
    b0_shift = shifted[b0]
    b0a = dilate(A, b0).member_set()
    a_parts = []
    counts_product = 1
    for label, sym, sign in (("alpha", al, "+"), ("beta", be, "+"),
                             ("gamma", ga, "+"), ("delta", de, "-")):
        b_n, cover = _fp_cover_symbol(A, A1, b0_shift, sym, sign, eps, ctx)
        target = "translates of b0*A" if sign == "+" else "translates of -(b0*A)"
        for v in cover.covered.vals:
            sv = sym * v % p
            if sign == "+":
                ok = any((sv - (sym * t + b0 - sym)) % p in b0a for t in cover.translates)
            else:
                ok = any(((sym * t + sym - b0) - sv) % p in b0a for t in cover.translates)
            if not ok:
                raise cons.InvariantViolation(f"covering of {label} misses {v}")
        a_parts.append(cover.covered)
        counts_product *= cover.iterations
        steps.append(PipelineStep(
            f"cover {label}-dilate of the class by {target}",
            _slack_report(f"fp-cover-{label}", cover.iterations, shape, digest,
                          f"|B| = {len(b_n)}, covered {len(cover.covered)} of {len(A1)}; "
                          "membership verified exactly")))

    A2 = a_parts[0]
    for part in a_parts[1:]:
        A2 = A2.intersection(part)
    steps.append(PipelineStep(
        "intersection of the four covered parts stays large",
        _hold_report("fp-intersection", (1 - 4 * eps) * len(A1), len(A2), digest,
                     f"|A2| = {len(A2)}")))

    # iterated-sumset witness on (gamma - delta) A2
    gd = (ga - de) % p
    ab_diff = (al - be) % p
    base = dilate(A2, gd)
    x1 = dilate(A2, ab_diff)
    x2 = negate(base)
    if len(base) <= PLUNNECKE_BUDGET:
        pl = cons.plunnecke_witness(base, [x1, x2], budget=PLUNNECKE_BUDGET)
        a3 = dilate(pl.subset, pow(gd, -1, p))
        pl_slack = pl.slack
        pl_note = f"minimising subset ratio {pl.subset_ratio}"
        iterated = pl.iterated_size
    else:
        acc = base
        for x in (x1, x2):
            acc = combine(acc, x, "sum")
        iterated = len(acc)
        a3 = A2
        pl_slack = Fraction(iterated * len(base),
                            len(combine(base, x1, "sum")) * len(combine(base, x2, "sum")))
        pl_note = "base beyond subset-search budget; identity subset reported"
    steps.append(PipelineStep(
        "iterated-sumset witness for the three-fold dilate sum",
        _slack_report("fp-plunnecke", pl_slack, 1, digest, pl_note)))

    # the four-fold dilate sum: the ReqFp embedding target, and the left side
    # of the translate-product bound
    four_fold = combine(combine(dilate(A2, al), dilate(A2, be), "diff"),
                        combine(dilate(A2, ga), dilate(A2, de), "diff"), "diff")

    if branch == "RneqFp":
        lhs_nr = len(combine(a3, dilate(a3, (xi - 1) % p), "sum"))
        steps.append(PipelineStep(
            "no-repetition identity on the extracted subset",
            _hold_report("fp-no-repetition-core", lhs_nr, len(a3) ** 2, digest,
                         strict_equal=True)))
        mixed = combine(dilate(a3, gd), dilate(a3, (ab_diff - gd) % p), "sum")
        steps.append(PipelineStep(
            "dilation invariance of the shifted-twist sumset",
            _hold_report("fp-dilation", lhs_nr, len(mixed), digest, strict_equal=True)))
        three = combine(combine(dilate(a3, gd), dilate(a3, ab_diff), "sum"),
                        dilate(a3, gd), "diff")
        steps.append(PipelineStep(
            "containment into the three-fold dilate sum",
            _hold_report("fp-containment", len(mixed), len(three), digest)))
        core_lhs = len(a3) ** 2
        core_rhs = len(three)
        steps.append(PipelineStep(
            "core lower bound: the subset squared against the three-fold sum",
            _hold_report("fp-core-bound", core_lhs, core_rhs, digest)))
    else:
        e2_sub = twisted_energy(A2, xi)
        steps.append(PipelineStep(
            "twisted energy is monotone under passing to the intersection",
            _hold_report("fp-energy-monotone", e2_sub, e_star, digest)))
        twisted_diff = combine(A2, dilate(A2, xi), "diff")
        steps.append(PipelineStep(
            "Cauchy-Schwarz lower bound for the twisted difference set",
            _hold_report("fp-twisted-cs", len(A2) ** 4,
                         e2_sub * len(twisted_diff), digest)))
        steps.append(PipelineStep(
            "twisted difference set embeds into the four-fold dilate sum",
            _hold_report("fp-twisted-embed", len(twisted_diff), len(four_fold), digest)))

    # translate-product bound: the four-fold dilate sum against shift counts
    aaaa = kfold_sum(A, 4, (1, -1, -1, -1))
    diff_size = len(combine(A, A, "diff"))
    steps.append(PipelineStep(
        "four-fold dilate sum against the translate-count product",
        _hold_report("fp-translate-product", len(four_fold),
                     counts_product * len(aaaa), digest,
                     f"translate counts multiply to {counts_product}")))
    steps.append(PipelineStep(
        "four-fold difference set against the cubed-difference shape",
        _slack_report("fp-fourfold", len(aaaa), Fraction(diff_size ** 3, n ** 2), digest)))
    steps.append(PipelineStep(
        "difference set against the eighth-power shape",
        _slack_report("fp-diff-assumed", diff_size, eighth_shape, digest,
                      "assumed on A itself; subset passage hides log factors")))
    steps.append(PipelineStep(
        "final growth probe",
        _slack_report("fp-final-exponent", n ** 57, len(aa1) ** 56, digest,
                      "57th power of |A| against 56th power of the expander set")))

    return PipelineTrace("fp", A, eps, tuple(steps), selected)


def real_pipeline(A: FSet, cap: Optional[int] = None) -> PipelineTrace:
    """Trace the rational-line chain: Cauchy-Schwarz, the energy split, both
    applications of the third-moment inequality, the moment corollaries, and
    the closing 24-against-19 exponent comparison."""
    if A.ctx.kind != KIND_RATIONAL:
        raise FieldMismatch("real pipeline needs a rational set")
    _exclude(A, (0, 1, -1), "A")
    if len(A) < 2:
        raise SetTooSmall("pipeline needs at least 2 elements")

    digest = instance_digest(pipeline="real", A=A)
    inst = Instance(A)
    cap = precision_cap(cap)
    steps = [
        PipelineStep("Cauchy-Schwarz lower bound on the mixed energy",
                     _check_r3(inst=inst, digest=digest, cap=cap)),
        PipelineStep("mixed energy split between the two self energies",
                     _check_r4(inst=inst, digest=digest, cap=cap)),
        # R5 on (A, A+1) and on (A+1, A): A·(A+1) = (A+1)·A = A(A+1)
        PipelineStep("third-moment inequality for (A, A+1)",
                     _r5_report(inst.e2_a_aa1, partial(inst.e15, "hist_a"), inst.e3_a,
                                inst.e3_a1, len(A), digest, cap)),
        PipelineStep("third-moment inequality for (A+1, A)",
                     _r5_report(inst.e2_a1_aa1, partial(inst.e15, "hist_a1"), inst.e3_a1,
                                inst.e3_a, len(A), digest, cap)),
    ]

    # combined product form, decided on squares
    rhs_sq = inst.e2_a_aa1 * inst.e2_a1_aa1 * inst.e3_a * inst.e3_a1
    verdict, lhs_iv = _decide(
        lambda bits: inst.e15("hist_a", bits) * inst.e15("hist_a1", bits) * len(A) ** 2,
        2, rhs_sq, cap)
    rhs_iv = root_interval(rhs_sq, 2, PRECISION_START)
    steps.append(PipelineStep(
        "combined product of 3/2-energies against the mixed-moment square root",
        InequalityReport("real-combined", lhs_iv, rhs_iv, verdict,
                         _ratio_slack(lhs_iv, rhs_iv), digest,
                         "product of both third-moment applications; decided on squares")))

    for description, checker in (
            ("lower shape for the product of 3/2-energies", _check_r12),
            ("third moments against the expander shape", _check_r10),
            ("mixed energies against the 5/2-power shape", _check_r11),
            ("final exponent comparison, 24 against 19", _check_r13)):
        steps.append(PipelineStep(description, checker(inst=inst, digest=digest, cap=cap)))

    return PipelineTrace("real", A, None, tuple(steps), None)
