"""The F_p kernel on discrete logarithms against the pair kernel it stands
in for.

`energy._slot_convolution` is the cyclic convolution over Z/(p-1) of two
log indicators in byte-wide slots, and `sets.log_mask` builds the log mask
of X·Y, X/Y or X(Y+1) as an OR of rotations; `sets.Combination` holds such
a set and builds its size and slot int from the mask or from its pair
set, by one cost rule.  Its two readers, `energy._slot_energy`
(E2, the sum of the squared slots) and `verify._r6_slots` (R6, the slots at
the logs of A), are called directly, not through their dispatch, and
compared with `multiplicative_energy`, the brute-force quadruple count and
the `_pair_ints` R6 count.  The primes include p = 2, whose primitive root
is 1, and primes with 64 | p - 1, whose slot ints end on a word boundary;
the slot cases include full 1-byte slots (every r(v) = 255 at p = 257) and
the first 2-byte slots (|X| = 256 at p = 263).  The log masks and their
slot ints are compared with `combine` and `expander_set`, which stay the
oracle.  The dispatch tests count the pairs `_pair_ints` forms, the slot
ints the kernel builds (from logs or from a log mask) and the log tables
built, so a cost rule that sends a verify-sized instance back to the pair
kernel, a huge p to the slots, or a pipeline to a table it does not need,
fails here.  Two verify-sized instances over F_40009 pin the bytes of their
`verify --all` reports.
"""
import gc
import hashlib
import importlib
import json
import math
import random
import weakref
from fractions import Fraction
from functools import cached_property
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from expanderlab import FieldCtx, FSet, Instance, check, combine
from expanderlab import constructions as cons
from expanderlab import sets, verify
from expanderlab.cli import main
from expanderlab.energy import (
    _mask_slots,
    _slot_bytes,
    _slot_convolution,
    _slot_energy,
    _slot_int,
    e2,
    multiplicative_energy,
    multiplicative_energy_bruteforce,
)
from expanderlab.errors import ContextMismatch, DivisionByZero, ZeroElementPresent
from expanderlab.sets import Combination, DiscreteLog, expander_set
from expanderlab.verify import _r6_pairs, _r6_slots, finite_field_pipeline
from helpers import Q, log_mask

# the package's `energy` attribute is the function of that name
energy_module = importlib.import_module("expanderlab.energy")

TINY = (2, 3, 5, 7)
WORD_EDGE = (193, 257, 641, 769)  # p - 1 = 3, 4, 10 and 12 words of 64 bits
PRIMES = TINY + (11, 13, 101) + WORD_EDGE


@st.composite
def unit_sets(draw, sizes=(12, 40)):
    """A prime and two subsets of F_p^* (either may be empty)."""
    p = draw(st.sampled_from(PRIMES))
    ctx = FieldCtx.prime(p)
    units = st.integers(1, p - 1)
    x = draw(st.sets(units, max_size=min(p - 1, sizes[0])))
    y = draw(st.sets(units, max_size=min(p - 1, sizes[1])))
    return FSet(ctx, x), FSet(ctx, y)


def units(p, vals):
    return FSet(FieldCtx.prime(p), vals)


@pytest.mark.parametrize("p", PRIMES)
def test_the_log_table_inverts_powers_of_a_primitive_root(p):
    logs = DiscreteLog(p)
    table = logs.log
    assert sorted(table[x] for x in range(1, p)) == list(range(p - 1))
    g = next(x for x in range(1, p) if table[x] == 1 % (p - 1)) if p > 2 else 1
    assert all(pow(g, table[x], p) == x for x in range(1, p))


def test_f2_has_primitive_root_one():
    logs = DiscreteLog(2)
    assert logs.log[1] == 0
    assert log_mask(units(2, [1])) == 1
    assert _slot_energy(units(2, [1]), units(2, [1]), logs) == 1


def rotate(mask, k, n):
    """The n-bit mask rotated left by k."""
    return ((mask << k) | (mask >> (n - k))) & ((1 << n) - 1)


@pytest.mark.parametrize("p", PRIMES)
def test_masks_rotate_as_sets_dilate(p):
    # the log masks the search tests build their oracles from, and the slots
    # of a convolution with one element v: both are S in log coordinates
    # shifted by log(v), the indicator of vS
    logs, n = DiscreteLog(p), p - 1
    rng = random.Random(p)
    s = units(p, rng.sample(range(1, p), min(n, 9)))
    everything = units(p, range(1, p))
    full = (1 << n) - 1
    assert log_mask(everything) == full
    assert log_mask(units(p, [])) == 0
    log = logs.log
    for v in everything.vals:
        vs = units(p, [v * x for x in s.vals])
        assert rotate(log_mask(s), log[v], n) == log_mask(vs)
        ones = {log[x] for x in vs}
        slots = _slot_convolution(units(p, [v]), s, logs)
        assert slots.tolist() == [int(k in ones) for k in range(n)]


@given(unit_sets())
@example((units(2, []), units(2, [1])))
@example((units(2, [1]), units(2, [])))
@example((units(3, [1, 2]), units(3, [2])))
@example((units(193, [1]), units(193, range(1, 193))))
@example((units(257, range(1, 257)), units(257, [1, 256])))
@example((units(641, range(1, 641, 3)), units(641, range(2, 641, 5))))
@example((units(769, range(1, 769)), units(769, range(1, 769))))
# every r(v) = 255 fills a 1-byte slot
@example((units(257, range(1, 256)), units(257, range(1, 257))))
# |X| = 256 needs the first 2-byte slots
@example((units(263, range(1, 257)), units(263, range(1, 263))))
# the first set is the larger one
@example((units(263, range(3, 259)), units(263, range(1, 263, 2))))
def test_slot_energy_matches_the_pair_kernel(pair):
    x, y = pair
    logs = DiscreteLog(x.ctx.p)
    expected = multiplicative_energy(x, y)
    assert _slot_energy(x, y, logs) == expected
    assert _slot_energy(y, x, logs) == expected


@given(unit_sets(sizes=(20, 20)))
@example((units(2, [1]), units(2, [1])))
@example((units(3, [1, 2]), units(3, [1, 2])))
@example((units(7, []), units(7, [3])))
@example((units(257, range(1, 21)), units(257, [3, 5, 256])))
def test_slot_energy_matches_the_quadruple_count(pair):
    x, y = pair
    logs = DiscreteLog(x.ctx.p)
    expected = multiplicative_energy_bruteforce(x, y)
    assert _slot_energy(x, y, logs) == expected
    assert _slot_energy(y, x, logs) == expected


def test_sparse_slots_match_the_pair_kernel():
    # at most 10 * 1280 of the 160000 one-byte slots are nonzero
    p = 160001
    rng = random.Random(p)
    x, y = (units(p, rng.sample(range(1, p), k)) for k in (10, 1280))
    logs = DiscreteLog(p)
    expected = multiplicative_energy(x, y)
    assert _slot_energy(x, y, logs) == _slot_energy(y, x, logs) == expected


def test_a_slot_is_the_fewest_bytes_that_hold_the_smaller_set():
    widths = {0: 1, 1: 1, 255: 1, 256: 2, 65535: 2, 65536: 4, 2 ** 32 - 1: 4, 2 ** 32: 8}
    assert {n: _slot_bytes(n) for n in widths} == widths


@given(unit_sets(sizes=(20, 20)), st.data())
@example((units(2, [1]), units(2, [1])), None)
@example((units(2, []), units(2, [1])), None)
@example((units(7, []), units(7, [3])), None)
@example((units(7, [2, 3]), units(7, [])), None)
@example((units(257, range(1, 257)), units(257, [3, 5, 256])), None)
# A/B = B = F_263^*: 262 products per slot need 2-byte slots
@example((units(263, range(1, 257)), units(263, range(1, 263))), None)
def test_r6_slots_match_the_pair_count(pair, data):
    a, b = pair
    ratios = combine(a, b, "ratio")
    # any set of units in place of A/B: the kernels count the same pairs
    if data is not None:
        ratios = units(a.ctx.p, data.draw(st.sets(st.integers(1, a.ctx.p - 1), max_size=30)))
    logs = DiscreteLog(a.ctx.p)
    assert _r6_slots(a, ratios, b, logs) == _r6_pairs(a, ratios, b)
    assert _r6_slots(b, ratios, a, logs) == _r6_pairs(b, ratios, a)
    full = combine(a, b, "ratio")
    assert _r6_slots(a, full, b, logs) == _r6_pairs(a, full, b) == len(a) * len(b)


@given(unit_sets(sizes=(12, 12)), st.booleans())
def test_zero_raises_what_the_pair_kernel_raises(pair, first):
    x, y = pair
    with_zero = lambda s: units(s.ctx.p, s.vals + (0,))
    if first:
        x = with_zero(x)
    else:
        y = with_zero(y)
    logs = DiscreteLog(x.ctx.p)
    with pytest.raises(ZeroElementPresent) as pair_error:
        multiplicative_energy(x, y)
    for args in ((x, y), (y, x)):
        with pytest.raises(ZeroElementPresent) as slot_error:
            _slot_energy(*args, logs)
        assert str(slot_error.value) == str(pair_error.value)
    for args in ((x, y, y), (y, x, y), (y, y, x)):
        with pytest.raises(ZeroElementPresent):
            _r6_slots(*args, logs)


def test_kernels_refuse_sets_of_another_field():
    logs = DiscreteLog(13)
    a, b = units(13, [2, 3]), units(11, [2, 3])
    for args in ((a, b), (b, b)):
        with pytest.raises(ContextMismatch):
            _slot_energy(*args, logs)
    for args in ((a, a, b), (a, b, a), (b, a, a)):
        with pytest.raises(ContextMismatch):
            _r6_slots(*args, logs)
    with pytest.raises(ContextMismatch):
        logs._logs_of(FSet(Q, [2]))


@given(unit_sets(sizes=(40, 120)))
def test_e2_takes_either_path_to_the_same_energy(pair):
    x, y = pair
    logs = DiscreteLog(x.ctx.p)
    assert e2(x, y, logs) == e2(y, x, logs) == multiplicative_energy(x, y)


# -- log masks of products, ratios and expander sets -----------------------------------------

PAIR_SETS = {"prod": lambda x, y: combine(x, y, "prod"),
             "ratio": lambda x, y: combine(x, y, "ratio"),
             "expand": expander_set}


def maskable(y, op):
    """y without -1 for "expand", whose log mask refuses it (y = -1 gives 0)."""
    return units(y.ctx.p, [v for v in y.vals if v != y.ctx.p - 1]) if op == "expand" else y


@settings(derandomize=True, max_examples=150)
@given(unit_sets(sizes=(20, 30)), st.sampled_from(sorted(PAIR_SETS)))
@example((units(2, [1]), units(2, [1])), "prod")
@example((units(2, [1]), units(2, [1])), "ratio")
@example((units(2, [1]), units(2, [0])), "expand")  # -1 = 1 over F_2, so y = 0 only
@example((units(3, [1, 2]), units(3, [2])), "ratio")
@example((units(3, [2]), units(3, [0, 1])), "expand")
@example((units(193, range(1, 193, 7)), units(193, [5, 77])), "ratio")  # 64 | p - 1
@example((units(257, [3]), units(257, range(1, 256))), "expand")
@example((units(101, [5]), units(101, [7])), "prod")  # singletons
@example((units(101, [5]), units(101, [7])), "expand")
@example((units(101, range(1, 60)), units(101, range(2, 70))), "prod")  # all of F_101^*
@example((units(769, range(1, 769, 2)), units(769, range(3, 769, 5))), "ratio")
def test_log_masks_match_the_pair_kernel(pair, op):
    x, y = pair[0], maskable(pair[1], op)
    p = x.ctx.p
    logs, n = DiscreteLog(p), p - 1
    expected = PAIR_SETS[op](x, y)
    mask = sets.log_mask(x, y, op, logs)
    assert mask == log_mask(expected) and mask.bit_count() == len(expected)
    for s in (1, 2, 8):
        assert _mask_slots(mask, s, n) == _slot_int(logs._logs_of(expected), s, n)


@pytest.mark.parametrize("op", sorted(PAIR_SETS))
def test_the_log_mask_refuses_a_member_that_would_be_zero(op):
    logs = DiscreteLog(13)
    x, y = units(13, [2, 5]), units(13, [3, 4])
    zero_y = units(13, [3, 12 if op == "expand" else 0])
    for args in ((units(13, [0, 2]), y), (x, zero_y)):
        with pytest.raises(ZeroElementPresent):
            sets.log_mask(*args, op, logs)
        comb = Combination(*args, op, logs)
        # however cheap the mask, the combination takes the pair kernel, with
        # its size or its error
        with mock.patch.object(sets, "log_mask_steps", lambda *_: -1):
            if op == "ratio" and args[1] is zero_y:
                with pytest.raises(DivisionByZero):
                    len(comb)
            else:
                assert len(comb) == len(PAIR_SETS[op](*args)) and "mask" not in vars(comb)
    with pytest.raises(ContextMismatch):
        sets.log_mask(x, units(11, [2]), op, logs)


@settings(derandomize=True, max_examples=100)
@given(unit_sets(sizes=(20, 30)), st.sampled_from(sorted(PAIR_SETS)), st.booleans())
@example((units(2, [1]), units(2, [1])), "prod", True)
@example((units(101, range(1, 60)), units(101, range(2, 70))), "expand", True)
@example((units(257, range(1, 257)), units(257, range(1, 257))), "prod", False)
def test_a_combination_reads_the_same_set_on_either_path(pair, op, masks):
    # the rule forced each way: every form of the combination, and what the
    # slot kernel reads from it, against the pair kernel's set
    x, y = pair[0], maskable(pair[1], op)
    p = x.ctx.p
    expected = PAIR_SETS[op](x, y)
    with mock.patch.object(sets, "log_mask_steps", lambda *args: -1 if masks else math.inf):
        comb = Combination(x, y, op, DiscreteLog(p))
        assert len(comb) == len(expected)
        assert ("mask" in vars(comb)) is masks and ("fset" in vars(comb)) is not masks
        assert [v for v in range(p) if v in comb] == list(expected.vals)
        assert e2(x, comb, comb.logs) == multiplicative_energy(x, expected)
        if op == "ratio":
            assert _r6_slots(x, comb, y, comb.logs) == _r6_pairs(x, expected, y)
        assert comb.fset == expected


# -- the dispatch --------------------------------------------------------------------------

def count_pairs(monkeypatch):
    """Every `_pair_ints` pass, as (op, |a| * |b|), in each module that calls it."""
    passes = []
    real = sets._pair_ints

    def spy(a, b, op):
        passes.append((op, len(a) * len(b)))
        return real(a, b, op)

    for module in (sets, energy_module, verify):
        monkeypatch.setattr(module, "_pair_ints", spy)
    return passes


def count_slot_ints(monkeypatch):
    """Every slot int the slot kernel builds, from logs or from a log mask,
    as (bytes per slot, slots)."""
    built = []
    for name in ("_slot_int", "_mask_slots"):
        real = getattr(energy_module, name)

        def spy(ks, s, slots, _real=real):
            built.append((s, slots))
            return _real(ks, s, slots)

        monkeypatch.setattr(energy_module, name, spy)
    return built


def count_tables(monkeypatch):
    """The p of every discrete-log table built from here on."""
    built = []
    real = DiscreteLog.log.func

    def spy(self):
        built.append(self.p)
        return real(self)

    table = cached_property(spy)
    table.__set_name__(DiscreteLog, "log")
    monkeypatch.setattr(DiscreteLog, "log", table)
    return built


def test_a_verify_sized_instance_makes_no_full_pair_pass(monkeypatch):
    rng = random.Random(40009)
    ctx = FieldCtx.prime(40009)
    a = FSet(ctx, rng.sample(range(2, 40008), 100))
    b = FSet(ctx, rng.sample(range(2, 40008), 100))
    inst = Instance(a)
    aa1 = inst.aa1  # one pass over A x A
    passes = count_pairs(monkeypatch)
    built = count_slot_ints(monkeypatch)
    inst.e2_a_aa1
    inst.e2_a1_aa1
    # both energies read one slot int of A(A+1), spread from its log mask
    assert passes == [] and built == [(1, 40008)]
    del built[:]
    check("R6", A=inst, B=b)
    # A/B as a log mask, and no pass over A/B x B: one slot int of A/B,
    # shifted by the logs of B, in 1-byte slots as |B| = 100 < 256
    assert passes == []
    assert built == [(1, 40008)]
    check("R5", A=inst, B=b)
    # A·B as a log mask; the ratio spectra of A and B, each one pass over
    # 100 x 100 pairs
    assert passes == [("ratio", 100 * 100)] * 2
    assert len(aa1) * len(a) > 50 * 100 * 100


def test_q_and_small_sets_stay_on_the_pair_kernel(monkeypatch):
    p101 = FieldCtx.prime(101)
    instances = [
        (FSet(p101, [3, 5, 9, 11, 17, 23]), FSet(p101, [2, 7, 13, 19])),
        (FSet(Q, [2, 3, 5, Fraction(7, 2), Fraction(-3, 2), Fraction(4, 3)]),
         FSet(Q, [2, Fraction(5, 3), -2, 6])),
    ]
    for a, b in instances:
        inst = Instance(a)
        aa1, ratios = inst.aa1, combine(a, b, "ratio")
        passes = count_pairs(monkeypatch)
        inst.e2_a_aa1
        assert passes == [("prod", len(a) * len(aa1))]
        del passes[:]
        check("R6", A=inst, B=b)
        assert passes == [("ratio", len(a) * len(b)), ("prod", len(ratios) * len(b))]
        monkeypatch.undo()


@pytest.mark.parametrize("p, n", [(29, 12), (193, 16), (1009, 30)])
def test_reports_are_the_same_on_either_kernel(monkeypatch, p, n):
    rng = random.Random(p)
    ctx = FieldCtx.prime(p)
    a = FSet(ctx, rng.sample(range(2, p - 1), n))
    b = FSet(ctx, rng.sample(range(1, p), n // 2))
    names = ("R2", "R3", "R4", "R5", "R6", "R8", "R10", "R11", "R12", "R13", "R14")

    def reports():
        inst = Instance(a)
        return [check(name, A=inst, B=b, epsilon=Fraction(1, 8)).to_json() for name in names]

    slotted = reports()
    # one cost rule dispatches E2, R6 and the log masks: an infinite step
    # sends all of them to the pair kernel
    monkeypatch.setattr(sets, "mask_steps", lambda *args: float("inf"))
    assert reports() == slotted


def test_a_verify_sized_mixed_energy_takes_the_slot_kernel(monkeypatch):
    rng = random.Random(160)
    a = FSet(FieldCtx.prime(40009), rng.sample(range(2, 40008), 160))
    inst = Instance(a)
    inst.aa1
    passes, built = count_pairs(monkeypatch), count_slot_ints(monkeypatch)
    inst.e2_a_aa1
    assert passes == [] and built == [(1, 40008)]
    # E2(A) is the second moment of the ratio spectrum of A, one pass over A x A
    inst.e2_a
    assert passes == [("ratio", 160 * 160)] and built == [(1, 40008)]


def test_a_huge_prime_builds_no_slot_int(monkeypatch):
    # one slot int over F_(10^9 + 7) would be 8 * 10^9 bits, and its log table
    # 10^9 entries
    p = 10 ** 9 + 7
    rng = random.Random(p)
    a = FSet(FieldCtx.prime(p), rng.sample(range(2, p - 1), 100))
    inst = Instance(a)
    inst.aa1
    passes, built = count_pairs(monkeypatch), count_slot_ints(monkeypatch)
    inst.e2_a_aa1
    assert passes == [("prod", 100 * len(inst.aa1))] and built == []
    assert "log" not in vars(inst.logs)


def test_a_built_log_table_is_not_charged_again(monkeypatch):
    # 120 * 480 pairs cost less than the slot kernel with its 40009-step
    # table, and more than the slot kernel once the table exists
    p = 40009
    rng = random.Random(p)
    x, y = (units(p, rng.sample(range(1, p), k)) for k in (120, 480))
    logs, expected = DiscreteLog(p), multiplicative_energy(x, y)
    passes, built = count_pairs(monkeypatch), count_slot_ints(monkeypatch)
    assert e2(x, y, logs) == expected
    assert passes == [("prod", 120 * 480)] and built == []
    assert "log" not in vars(logs)
    logs.log
    del passes[:]
    assert e2(x, y, logs) == e2(y, x, logs) == expected
    assert passes == [] and built == [(1, p - 1)] * 2


def pin_sets():
    ctx = FieldCtx.prime(40009)
    return FSet(ctx, PIN_A), FSet(ctx, PIN_B)


def count_all_pairs(monkeypatch):
    """`count_pairs`, and the pair passes of `constructions` too."""
    real = sets._pair_ints
    passes = count_pairs(monkeypatch)
    monkeypatch.setattr(cons, "_pair_ints",
                        lambda a, b, op: passes.append((op, len(a) * len(b))) or real(a, b, op))
    return passes


def test_the_first_log_kernel_of_an_instance_pays_for_the_table(monkeypatch):
    # 130 x 130 pairs cost less than the 40009-entry table, so the first
    # reads of |A(A+1)| (R10 in `verify --all`) and |A·B| (R5) take the pair
    # kernel; E2's slot kernel then builds the table, and the slot ints of
    # A(A+1) and A·B come from log masks
    a, b = pin_sets()
    for name, op, kwargs in (("R10", "expand", {}), ("R5", "prod", {"B": b})):
        inst = Instance(a)
        passes, built = count_pairs(monkeypatch), count_slot_ints(monkeypatch)
        tables = count_tables(monkeypatch)
        check(name, A=inst, **kwargs)
        assert (op, 130 * 130) in passes
        if name == "R10":
            assert tables == [] and built == []
            check("R11", A=inst)
        assert tables == [40009] and built == [(1, 40008)]
        assert sum(o == op for o, _ in passes) == 1
        monkeypatch.undo()


def test_with_the_table_built_verify_makes_no_pass_over_a_x_b(monkeypatch):
    # as it is built by the first slot kernel, or by the first log mask
    # once a pair pass costs more than the table
    a, b = pin_sets()
    inst = Instance(a)
    inst.logs.log
    passes, built = count_all_pairs(monkeypatch), count_slot_ints(monkeypatch)
    for name in ("R10", "R11", "R12", "R13", "R14", "R2", "R3", "R4"):
        check(name, A=inst)
    # the ratio spectra of A and A+1 (E3, E2 and |A/A|), and E2(A, A+1) on
    # the pair kernel; A(A+1) only as a log mask, with one slot int for both
    # E2(A, A(A+1)) and E2(A+1, A(A+1))
    assert sorted(passes) == [("prod", 130 * 130)] + [("ratio", 130 * 130)] * 2
    assert built == [(1, 40008)]
    del passes[:], built[:]
    inst = Instance(a)
    inst.logs.log
    for name in ("R5", "R6", "R8"):
        check(name, A=inst, B=b, epsilon=Fraction(1, 128))
    # A·B, A/B, A(B+1) and B(A+1) as log masks; the ratio spectra of A and
    # B for R5, and R8's popular-ratio graph and its partial difference set,
    # which read each pair of A x B
    assert sorted(passes) == [("diff", 130 * 130)] + [("ratio", 130 * 130)] * 3
    assert built == [(1, 40008)] * 2  # A·B for R5, A/B for R6


def test_an_instance_goes_with_its_last_reference():
    # nothing an Instance builds refers back to it, so what it keeps (the
    # pair ints, masks, slot ints and log table) goes when a call ends, not
    # at the next cyclic collection
    a, b = pin_sets()
    q = FSet(Q, [2, 3, 5, Fraction(7, 2), Fraction(-3, 2), Fraction(4, 3)])
    gc.disable()
    try:
        for A, B in ((a, b), (q, FSet(Q, [2, Fraction(5, 3), -2, 6]))):
            inst = Instance(A)
            for name in ("R10", "R11", "R2", "R5", "R6", "R8"):
                check(name, A=inst, B=B, epsilon=Fraction(1, 128))
            inst.rows
            ref = weakref.ref(inst)
            del inst
            assert ref() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("files, tables", [
    (("A.json",), [40009]), (("A.json", "B.json"), [40009]),
    (("A.json", "B.json", "C.json"), []),  # R1, on residue masks
    (("Q.json",), []), (("Q.json", "Q.json"), []),
])
def test_verify_all_builds_one_log_table_per_f_p_group(tmp_path, monkeypatch, files, tables):
    monkeypatch.chdir(tmp_path)
    docs = {"A.json": PIN_A, "B.json": PIN_B, "C.json": PIN_A[::3]}
    for name, vals in docs.items():
        (tmp_path / name).write_text(json.dumps({"field": "fp", "p": 40009, "elements": vals}))
    (tmp_path / "Q.json").write_text(json.dumps(
        {"field": "q", "elements": ["2", "3", "5", "7/2", "-3/2", "4/3", "9", "11/5"]}))
    built = count_tables(monkeypatch)
    main(["verify", *files, "--all", "--t", "2", "--out", "report.json"])
    assert built == tables


def test_fp_pipelines_build_the_tables_they_built_before_log_masks(monkeypatch):
    # a sparse set ends degenerate with no table; a dense ReqFp one builds
    # one, for its twist spectrum, and not the Instance's
    built = count_tables(monkeypatch)
    p = 40009
    trace = finite_field_pipeline(FSet(FieldCtx.prime(p), random.Random(80).sample(range(2, p - 1), 80)))
    assert trace.selected["branch"] == "degenerate" and built == []
    p = 3001
    trace = finite_field_pipeline(FSet(FieldCtx.prime(p), random.Random(1).sample(range(2, p - 1), 51)))
    assert trace.selected["branch"] == "ReqFp" and built == [3001]


def test_q_never_reaches_the_cost_model(monkeypatch):
    def refuse(*args):
        raise AssertionError("the cost model was asked over Q")

    for name in ("_slot_steps", "mask_steps"):
        monkeypatch.setattr(energy_module, name, refuse)
    for name in ("mask_steps", "log_mask_steps"):
        monkeypatch.setattr(sets, name, refuse)
    monkeypatch.setattr(verify, "_slot_steps", refuse)  # R6's dispatch
    inst = Instance(FSet(Q, [2, 3, 5, Fraction(7, 2), Fraction(-3, 2), Fraction(4, 3)]))
    b = FSet(Q, [2, Fraction(5, 3), -2, 6])
    energies = (inst.e2_a, inst.e2_a1, inst.e2_mixed, inst.e2_a_aa1, inst.e2_a1_aa1)
    assert energies == (multiplicative_energy(inst.A, inst.A),
                        multiplicative_energy(inst.a1, inst.a1),
                        multiplicative_energy(inst.A, inst.a1),
                        multiplicative_energy(inst.A, inst.aa1),
                        multiplicative_energy(inst.a1, inst.aa1))
    check("R5", A=inst, B=b)
    check("R6", A=inst, B=b)


# -- report bytes where the slot kernel fires ----------------------------------------------
# Two random 130-element sets of F_40009^*, the sizes of verify-all's F_p
# groups; the digests were recorded with the AND-popcount kernel the slot
# kernel replaced.

PIN_A = [
    182, 1451, 2061, 2430, 2529, 2856, 3037, 3262, 3429, 3540, 4106, 4617, 4684, 4791,
    5073, 5572, 5629, 6785, 6973, 7130, 7714, 7940, 8275, 8481, 8968, 9865, 10132, 10281,
    10526, 10998, 11491, 11850, 12030, 12179, 12197, 12233, 12375, 13332, 13519, 13677,
    13938, 14900, 15240, 15688, 15705, 15782, 15878, 15920, 16066, 16167, 16343, 16656,
    16811, 16826, 17750, 18597, 18608, 18647, 19046, 19145, 19281, 19315, 19434, 19443,
    19448, 19939, 19996, 20024, 20523, 20712, 20786, 20903, 21004, 21208, 22146, 22178,
    22225, 22332, 22651, 23455, 23788, 23792, 23877, 24253, 24360, 24475, 24867, 25665,
    25816, 26222, 26247, 26663, 27010, 27124, 27468, 28089, 28099, 28237, 28390, 28439,
    28643, 28711, 28910, 28956, 29107, 29992, 30062, 30241, 30575, 31726, 32222, 32580,
    32783, 32803, 32950, 33100, 33180, 34008, 34389, 34665, 35109, 36139, 36655, 36752,
    36882, 37895, 38093, 39232, 39456, 39829,
]

PIN_B = [
    92, 293, 332, 569, 652, 1015, 1770, 2425, 2820, 3624, 3815, 3841, 4208, 4320, 4326,
    4603, 4758, 5214, 5218, 5464, 5613, 5874, 6435, 6566, 6588, 6661, 6768, 6872, 7801,
    7880, 8153, 8858, 9433, 9869, 10771, 11281, 11664, 11746, 12618, 12719, 13357, 13650,
    13723, 13735, 14435, 14859, 15197, 15365, 15478, 15746, 15809, 16461, 16578, 16848,
    17066, 17909, 18555, 18642, 18811, 18982, 19017, 19170, 19423, 19428, 19488, 19854,
    20163, 21002, 21606, 21707, 21876, 21940, 22084, 22273, 22937, 23101, 23505, 23593,
    23737, 23781, 23901, 24491, 25031, 26057, 26616, 27044, 27417, 27647, 27729, 28046,
    28321, 28521, 28614, 28654, 29134, 29287, 29682, 30274, 30346, 30379, 30799, 31400,
    31603, 31789, 32930, 33632, 33935, 34425, 34777, 34862, 35279, 35637, 35738, 35990,
    36152, 36270, 37620, 37901, 38069, 38209, 38289, 39069, 39143, 39234, 39373, 39426,
    39699, 39781, 39940, 40007,
]

REPORT_PINS = {  # (set files, exit code, sha256 of the report)
    "one set": (("A.json",), 0,
                "bf43c0c28fc0f63eeeeb904d41b7bcf97dd7153ae35f8a0514f536d3c6a8fa92"),
    # R7 and R9 run over Q only, so the 2-set group over F_p exits 64
    "two sets": (("A.json", "B.json"), 64,
                 "ace2a03df03bd0e1a3373eab3f535198c9e8b66d5b2cc37911fffdcb19f316d5"),
}


@pytest.mark.parametrize("case", list(REPORT_PINS))
def test_verify_all_report_bytes_where_the_slot_kernel_fires(tmp_path, monkeypatch, case):
    files, code, digest = REPORT_PINS[case]
    monkeypatch.chdir(tmp_path)
    for name, vals in (("A.json", PIN_A), ("B.json", PIN_B)):
        (tmp_path / name).write_text(json.dumps({"field": "fp", "p": 40009, "elements": vals}))
    built = count_slot_ints(monkeypatch)
    assert main(["verify", *files, "--all", "--out", "report.json"]) == code
    assert built
    assert hashlib.sha256((tmp_path / "report.json").read_bytes()).hexdigest() == digest
