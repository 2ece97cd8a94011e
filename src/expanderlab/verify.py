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
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional, Tuple, Union

from . import constructions as cons
from .energy import (
    PRECISION_START,
    energy,
    histogram,
    multiplicative_energy,
    precision_cap,
    rich_products,
    twist_spectrum,
    twisted_energy,
)
from .errors import (
    DensityViolated,
    FieldMismatch,
    PrecisionCapExceeded,
    SetTooSmall,
    SideConditionViolated,
    UnknownRelation,
    WitnessFailure,
)
from .field import KIND_PRIME, KIND_RATIONAL
from .incidence import st_lower_bound_check
from .intervals import RatInterval, interval_to_decimal, root_interval
from .sets import (
    FSet,
    PairGraph,
    combine,
    dilate,
    expander_set,
    kfold_sum,
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
    if isinstance(v, Fraction):
        return str(v)
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
        elif isinstance(value, PairGraph):
            doc[key] = {
                "left": value.left.to_json(),
                "right": value.right.to_json(),
                "edges": sorted(map(list, value.edges)),
            }
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


# -- registry checkers ---------------------------------------------------------

def _check_r1(A: FSet, B: FSet, C: FSet, digest: str) -> InequalityReport:
    _require_nonempty(C, "C")
    lhs = len(combine(A, B, "diff"))
    rhs = Fraction(len(combine(A, C, "diff")) * len(combine(B, C, "diff")), len(C))
    verdict = HOLDS if lhs <= rhs else FAILS
    return InequalityReport("R1", lhs, rhs, verdict, _ratio_slack(lhs, rhs), digest,
                            "difference-set triangle inequality")


def _check_r2(A: FSet, digest: str) -> InequalityReport:
    _exclude(A, (0, -1), "A")
    _require_nonempty(A, "A")
    lhs = len(combine(A, A, "ratio"))
    rhs = Fraction(len(expander_set(A, A)) ** 2, len(A))
    verdict = HOLDS if lhs <= rhs else FAILS
    return InequalityReport("R2", lhs, rhs, verdict, _ratio_slack(lhs, rhs), digest,
                            "ratio set bounded by the expander set squared")


def _e2_mixed(A: FSet, B: FSet) -> int:
    return multiplicative_energy(A, B)


def _check_r3(A: FSet, digest: str) -> InequalityReport:
    _exclude(A, (0, 1, -1), "A")
    _require_nonempty(A, "A")
    a1 = translate(A, 1)
    lhs = Fraction(len(A) ** 4, len(expander_set(A, A)))
    rhs = _e2_mixed(A, a1)
    verdict = HOLDS if lhs <= rhs else FAILS
    return InequalityReport("R3", lhs, rhs, verdict, _ratio_slack(lhs, rhs), digest,
                            "Cauchy-Schwarz lower bound on the mixed energy")


def _check_r4(A: FSet, digest: str) -> InequalityReport:
    _exclude(A, (0, 1, -1), "A")
    a1 = translate(A, 1)
    lhs = _e2_mixed(A, a1)
    e2a = _e2_mixed(A, A)
    e2b = _e2_mixed(a1, a1)
    verdict = HOLDS if lhs * lhs <= e2a * e2b else FAILS
    rhs = root_interval(e2a * e2b, 2, PRECISION_START)
    return InequalityReport("R4", lhs, rhs, verdict, _ratio_slack(lhs, rhs), digest,
                            "mixed energy split by Cauchy-Schwarz; decided on squares")


def _e15_capped(hist, cap: int, bits: int):
    """3/2-energy at a demanded precision; at the cap, the widest achieved
    enclosure is still usable for a (possibly inconclusive) comparison."""
    try:
        return energy(hist, Fraction(3, 2), cap=cap, min_bits=bits)
    except PrecisionCapExceeded as exc:
        return exc.achieved


def _check_r5(A: FSet, B: FSet, digest: str, cap: Optional[int] = None) -> InequalityReport:
    _exclude(A, (0,), "A")
    _exclude(B, (0,), "B")
    cap = precision_cap(cap)
    ab = combine(A, B, "prod")
    e2_mixed = _e2_mixed(A, ab)
    e3a = energy(histogram(A, A, "ratio"), 3).exact
    e3b = energy(histogram(B, B, "ratio"), 3).exact
    rhs_cubed = e2_mixed ** 3 * e3a ** 2 * e3b
    hist_a = histogram(A, A, "ratio")

    bits = min(PRECISION_START, cap)
    verdict = INCONCLUSIVE
    e15 = None
    while True:
        e15 = _e15_capped(hist_a, cap, bits)
        lhs_cubed = e15.interval.power(6) * (len(B) ** 6)
        if lhs_cubed.hi <= rhs_cubed:
            verdict = HOLDS
            break
        if lhs_cubed.lo > rhs_cubed:
            verdict = FAILS
            break
        if bits >= cap:
            break
        bits = min(bits * 2, cap)

    lhs = e15.interval.power(2) * (len(B) ** 2)
    rhs = (
        RatInterval.point(e2_mixed)
        * root_interval(e3a ** 2, 3, PRECISION_START)
        * root_interval(e3b, 3, PRECISION_START)
    )
    note = "third-moment energy inequality; decided on cubes"
    return InequalityReport("R5", lhs, rhs, verdict, _ratio_slack(lhs, rhs), digest, note)


def _check_r6(A: FSet, B: FSet, digest: str) -> InequalityReport:
    _exclude(A, (0,), "A")
    _exclude(B, (0,), "B")
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
    rhs = len(A) * len(B)
    verdict = HOLDS if total == rhs else FAILS
    return InequalityReport("R6", total, rhs, verdict, _ratio_slack(total, rhs), digest,
                            "pair-counting identity over the ratio support")


def _check_r7(A: FSet, B: FSet, t: int, digest: str) -> InequalityReport:
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


def _check_r8(A: FSet, B: FSet, epsilon, digest: str,
              res: Optional[cons.PopularRatioResult] = None) -> InequalityReport:
    _require_nonempty(A, "A")
    _require_nonempty(B, "B")
    if res is None:
        res = cons.popular_ratio_graph(A, B, epsilon)
    lhs = len(res.partial_diff)
    return InequalityReport("R8", lhs, res.bound_rhs_shape, SLACK_ONLY, res.slack,
                            digest,
                            f"partial difference set vs expander shape; |G| = {len(res.graph)}")


def _check_r9(A: FSet, B: FSet, t: int, digest: str) -> InequalityReport:
    _require_rational(A)
    _exclude(A, (0, 1, -1), "A")
    _exclude(B, (0,), "B")
    s_t = rich_products(A, B, t)
    lhs = len(s_t)
    rhs = Fraction(len(expander_set(A, A)) ** 2 * len(B) ** 2, len(A) * t ** 3)
    return InequalityReport("R9", lhs, rhs, SLACK_ONLY, _ratio_slack(lhs, rhs), digest,
                            "rich-product count vs incidence shape")


def _check_r10(A: FSet, digest: str) -> InequalityReport:
    _exclude(A, (0, 1, -1), "A")
    a1 = translate(A, 1)
    e3a = energy(histogram(A, A, "ratio"), 3).exact
    e3b = energy(histogram(a1, a1, "ratio"), 3).exact
    rhs = len(expander_set(A, A)) ** 2 * len(A)
    lhs = max(e3a, e3b)
    note = f"third moments E3(A) = {e3a}, E3(A+1) = {e3b}; log factors fold into slack"
    return InequalityReport("R10", lhs, rhs, SLACK_ONLY, _ratio_slack(lhs, rhs), digest, note)


def _check_r11(A: FSet, digest: str) -> InequalityReport:
    _exclude(A, (0, 1, -1), "A")
    a1 = translate(A, 1)
    aa1 = expander_set(A, A)
    e2a = _e2_mixed(A, aa1)
    e2b = _e2_mixed(a1, aa1)
    lhs = max(e2a, e2b)
    rhs = root_interval(len(aa1) ** 5, 2, PRECISION_START)
    note = f"mixed energies {e2a} and {e2b} vs expander set to the 5/2"
    return InequalityReport("R11", lhs, rhs, SLACK_ONLY, _ratio_slack(lhs, rhs), digest, note)


def _check_r12(A: FSet, digest: str, cap: Optional[int] = None) -> InequalityReport:
    _exclude(A, (0, 1, -1), "A")
    _require_nonempty(A, "A")
    a1 = translate(A, 1)
    lhs = Fraction(len(A) ** 11, len(expander_set(A, A)) ** 5)
    e15a = energy(histogram(A, A, "ratio"), Fraction(3, 2), cap=cap)
    e15b = energy(histogram(a1, a1, "ratio"), Fraction(3, 2), cap=cap)
    rhs = e15a.interval * e15b.interval
    return InequalityReport("R12", lhs, rhs, SLACK_ONLY, _ratio_slack(lhs, rhs), digest,
                            "lower shape for the product of 3/2-energies")


def _check_r13(A: FSet, digest: str) -> InequalityReport:
    _exclude(A, (0, 1, -1), "A")
    lhs = len(A) ** 24
    rhs = len(expander_set(A, A)) ** 19
    return InequalityReport("R13", lhs, rhs, SLACK_ONLY, _ratio_slack(lhs, rhs), digest,
                            "final exponent comparison, 24 against 19")


def _check_r14(A: FSet, digest: str) -> InequalityReport:
    _exclude(A, (0, 1, -1), "A")
    lhs = root_interval(len(A) ** 57, 56, PRECISION_START)
    rhs = len(expander_set(A, A))
    return InequalityReport("R14", lhs, rhs, SLACK_ONLY, _ratio_slack(lhs, rhs), digest,
                            "expander growth probe at exponent 57/56")


@dataclass(frozen=True)
class RelationSpec:
    name: str
    inputs: Tuple[str, ...]
    klass: str       # "exact" | "certified" | "slack"
    description: str


REGISTRY: Dict[str, RelationSpec] = {
    "R1": RelationSpec("R1", ("A", "B", "C"), "exact",
                       "|A-B| <= |A-C||B-C|/|C| (triangle)"),
    "R2": RelationSpec("R2", ("A",), "exact",
                       "|A/A| <= |A(A+1)|^2/|A| (multiplicative triangle)"),
    "R3": RelationSpec("R3", ("A",), "exact",
                       "|A|^4/|A(A+1)| <= E2(A, A+1) (Cauchy-Schwarz)"),
    "R4": RelationSpec("R4", ("A",), "exact",
                       "E2(A, A+1) <= sqrt(E2(A) E2(A+1)) (decided on squares)"),
    "R5": RelationSpec("R5", ("A", "B"), "certified",
                       "E1.5(A)^2 |B|^2 <= E2(A, AB) E3(A)^(2/3) E3(B)^(1/3)"),
    "R6": RelationSpec("R6", ("A", "B"), "exact",
                       "sum over A/B of |A ∩ xB| equals |A||B|"),
    "R7": RelationSpec("R7", ("A", "B", "t"), "exact",
                       "|P_t| >= |S_t(A,B)||A| for the slope family"),
    "R8": RelationSpec("R8", ("A", "B", "epsilon"), "slack",
                       "|A -_G B| vs |A(B+1)||B(A+1)||A/B|/(|A||B|)"),
    "R9": RelationSpec("R9", ("A", "B", "t"), "slack",
                       "|S_t(A,B)| vs |A(A+1)|^2|B|^2/(|A| t^3)"),
    "R10": RelationSpec("R10", ("A",), "slack",
                        "E3(A), E3(A+1) vs |A(A+1)|^2 |A|"),
    "R11": RelationSpec("R11", ("A",), "slack",
                        "E2(A, A(A+1)), E2(A+1, A(A+1)) vs |A(A+1)|^(5/2)"),
    "R12": RelationSpec("R12", ("A",), "slack",
                        "|A|^11/|A(A+1)|^5 vs E1.5(A) E1.5(A+1)"),
    "R13": RelationSpec("R13", ("A",), "slack",
                        "|A|^24 vs |A(A+1)|^19"),
    "R14": RelationSpec("R14", ("A",), "slack",
                        "|A|^(57/56) vs |A(A+1)|"),
}

SLACK_KEYS = tuple(k for k, spec in REGISTRY.items() if spec.klass == "slack")


def check(
    name: str,
    A: Optional[FSet] = None,
    B: Optional[FSet] = None,
    C: Optional[FSet] = None,
    t: Optional[int] = None,
    epsilon=None,
    cap: Optional[int] = None,
) -> InequalityReport:
    """Certify one registry relation on one instance."""
    if name not in REGISTRY:
        raise UnknownRelation(f"no relation named {name!r}")
    spec = REGISTRY[name]
    given = {"A": A, "B": B, "C": C, "t": t, "epsilon": epsilon}
    for needed in spec.inputs:
        if given[needed] is None:
            raise SideConditionViolated(f"{name} needs input {needed}")
    digest = instance_digest(
        relation=name, A=A, B=B, C=C, t=t,
        epsilon=Fraction(epsilon) if epsilon is not None else None,
    )
    if name == "R1":
        return _check_r1(A, B, C, digest)
    if name == "R2":
        return _check_r2(A, digest)
    if name == "R3":
        return _check_r3(A, digest)
    if name == "R4":
        return _check_r4(A, digest)
    if name == "R5":
        return _check_r5(A, B, digest, cap)
    if name == "R6":
        return _check_r6(A, B, digest)
    if name == "R7":
        return _check_r7(A, B, t, digest)
    if name == "R8":
        return _check_r8(A, B, Fraction(epsilon), digest)
    if name == "R9":
        return _check_r9(A, B, t, digest)
    if name == "R10":
        return _check_r10(A, digest)
    if name == "R11":
        return _check_r11(A, digest)
    if name == "R12":
        return _check_r12(A, digest, cap)
    if name == "R13":
        return _check_r13(A, digest)
    if name == "R14":
        return _check_r14(A, digest)
    raise UnknownRelation(name)


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


def finite_field_pipeline(
    A: FSet,
    epsilon=Fraction(1, 64),
    cap: Optional[int] = None,
    plunnecke_budget: int = 12,
) -> PipelineTrace:
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
    aa1 = expander_set(A, A)

    # constructive difference-set evidence (self graphs)
    pop = cons.popular_ratio_graph(A, A, eps)
    steps.append(PipelineStep(
        "partial difference set of the popular-ratio graph on (A, A)",
        _check_r8(A, A, eps, digest, pop)))
    tri = cons.partial_ruzsa(pop.graph, pop.graph, eps)
    steps.append(PipelineStep(
        "dense partial triangle inequality on the self graph",
        _slack_report("fp-partial-triangle",
                      len(tri.diff_ac) * len(A),
                      len(tri.partial_ab) * len(tri.partial_bc),
                      digest,
                      f"witness pairs |Y| = {tri.y_size}; overlap checks exact")))
    a_core = tri.a_side.intersection(tri.c_side)
    diff_core = combine(a_core, a_core, "diff")
    steps.append(PipelineStep(
        "difference set of the extracted core against the eighth-power shape",
        _slack_report("fp-difference-shape",
                      len(diff_core),
                      Fraction(len(aa1) ** 8, n ** 7),
                      digest,
                      f"|core| = {len(a_core)}; subset passage carries hidden log factors")))
    steps.append(PipelineStep("ratio-set bound on A", _check_r2(A, digest)))

    # b0 selection by maximal total intersection with a(A+1)
    shifted = {a: frozenset((a * (b + 1)) % p for b in A.vals) for a in A.vals}
    best_total, b0 = max(
        (sum(len(shifted[a] & shifted[b]) for a in A.vals), -b) for b in A.vals
    )
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
    shape = Fraction(len(aa1) ** 2 * len(combine(A, A, "ratio")), N ** 2 * len(A1))
    b0_shift = shifted[b0]
    b0a = dilate(A, b0).member_set()
    a_parts = []
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
    if len(base) <= plunnecke_budget:
        pl = cons.plunnecke_witness(base, [x1, x2], budget=plunnecke_budget)
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
        four_mix = combine(combine(dilate(A2, al), dilate(A2, be), "diff"),
                           combine(dilate(A2, ga), dilate(A2, de), "diff"), "diff")
        steps.append(PipelineStep(
            "twisted difference set embeds into the four-fold dilate sum",
            _hold_report("fp-twisted-embed", len(twisted_diff), len(four_mix), digest)))

    # translate-product bound: the four-fold dilate sum against shift counts
    four_fold = combine(combine(dilate(A2, al), dilate(A2, be), "diff"),
                        combine(dilate(A2, ga), dilate(A2, de), "diff"), "diff")
    counts_product = 1
    for step in steps:
        if step.report.name.startswith("fp-cover-"):
            counts_product *= int(step.report.lhs)
    aaaa = kfold_sum(A, 4, (1, -1, -1, -1))
    steps.append(PipelineStep(
        "four-fold dilate sum against the translate-count product",
        _hold_report("fp-translate-product", len(four_fold),
                     counts_product * len(aaaa), digest,
                     f"translate counts multiply to {counts_product}")))
    steps.append(PipelineStep(
        "four-fold difference set against the cubed-difference shape",
        _slack_report("fp-fourfold", len(aaaa),
                      Fraction(len(combine(A, A, "diff")) ** 3, n ** 2), digest)))
    steps.append(PipelineStep(
        "difference set against the eighth-power shape",
        _slack_report("fp-diff-assumed", len(combine(A, A, "diff")),
                      Fraction(len(aa1) ** 8, n ** 7), digest,
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
    a1 = translate(A, 1)
    aa1 = expander_set(A, A)
    steps = [
        PipelineStep("Cauchy-Schwarz lower bound on the mixed energy",
                     _check_r3(A, digest)),
        PipelineStep("mixed energy split between the two self energies",
                     _check_r4(A, digest)),
        PipelineStep("third-moment inequality for (A, A+1)",
                     _check_r5(A, a1, digest, cap)),
        PipelineStep("third-moment inequality for (A+1, A)",
                     _check_r5(a1, A, digest, cap)),
    ]

    # combined product form, decided on squares
    e2a = _e2_mixed(A, aa1)
    e2b = _e2_mixed(a1, aa1)
    e3a = energy(histogram(A, A, "ratio"), 3).exact
    e3b = energy(histogram(a1, a1, "ratio"), 3).exact
    rhs_sq = e2a * e2b * e3a * e3b
    capv = precision_cap(cap)
    bits = min(PRECISION_START, capv)
    verdict = INCONCLUSIVE
    while True:
        e15a = _e15_capped(histogram(A, A, "ratio"), capv, bits)
        e15b = _e15_capped(histogram(a1, a1, "ratio"), capv, bits)
        lhs_sq = (e15a.interval * e15b.interval * len(A) ** 2).power(2)
        if lhs_sq.hi <= rhs_sq:
            verdict = HOLDS
            break
        if lhs_sq.lo > rhs_sq:
            verdict = FAILS
            break
        if bits >= capv:
            break
        bits = min(bits * 2, capv)
    lhs_iv = e15a.interval * e15b.interval * len(A) ** 2
    rhs_iv = root_interval(rhs_sq, 2, PRECISION_START)
    steps.append(PipelineStep(
        "combined product of 3/2-energies against the mixed-moment square root",
        InequalityReport("real-combined", lhs_iv, rhs_iv, verdict,
                         _ratio_slack(lhs_iv, rhs_iv), digest,
                         "product of both third-moment applications; decided on squares")))

    steps.append(PipelineStep("lower shape for the product of 3/2-energies",
                              _check_r12(A, digest, cap)))
    steps.append(PipelineStep("third moments against the expander shape",
                              _check_r10(A, digest)))
    steps.append(PipelineStep("mixed energies against the 5/2-power shape",
                              _check_r11(A, digest)))
    steps.append(PipelineStep("final exponent comparison, 24 against 19",
                              _check_r13(A, digest)))

    return PipelineTrace("real", A, None, tuple(steps), None)
