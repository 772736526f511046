"""Recurrence windows, minimal polynomials, and verified local inversion."""

import random

import pytest

from bbi.engine import (INSUFFICIENT_DATA, RANK_DEFICIENT, SATURATED,
                        SOLUTION, UNIQUE, BlackBoxMap, EvalBudgetExceeded,
                        RecurrenceSequence, bm_crosscheck, generate,
                        invert_from_minpoly, local_inversion,
                        minimal_polynomial)
from bbi.gf2 import BitVec, Gf2Poly
from bbi.oracle import full_period_minpoly

from helpers import concat, rotl


def identity(width: int) -> BlackBoxMap:
    return BlackBoxMap(lambda x: x, width)


def rsa15() -> BlackBoxMap:
    # x -> x^3 mod 15 on 4 bits; 8 -> 2 -> 8 is a 2-cycle
    return BlackBoxMap(lambda x: BitVec(pow(x.value, 3, 15), 4), 4)


def lfsr5() -> BlackBoxMap:
    # Fibonacci register for s_{t+5} = s_{t+2} + s_t; primitive, period 31
    def step(v: BitVec) -> BitVec:
        new = (v.value ^ (v.value >> 2)) & 1
        return BitVec((v.value >> 1) | (new << 4), 5)
    return BlackBoxMap(step, 5)


def seq_of(values, width) -> RecurrenceSequence:
    terms = tuple(BitVec(v, width) for v in values)
    return RecurrenceSequence(terms, terms[0])


def annihilates(p: Gf2Poly, seq: RecurrenceSequence) -> bool:
    m = p.degree
    for t in range(len(seq.terms) - m):
        acc = 0
        for i in range(m + 1):
            if p.coeff(i):
                acc ^= seq.terms[t + i].value
        if acc:
            return False
    return True


def test_blackboxmap_counts_and_checks_widths():
    F = identity(4)
    assert F.evals == 0
    F(BitVec(3, 4))
    F(BitVec(5, 4))
    assert F.evals == 2
    with pytest.raises(ValueError):
        F(BitVec(1, 5))
    bad_out = BlackBoxMap(lambda x: BitVec(0, 3), 4)
    with pytest.raises(ValueError):
        bad_out(BitVec(0, 4))


def test_blackboxmap_eval_budget():
    F = identity(4)
    F.max_evals = 3
    y = BitVec(1, 4)
    for _ in range(3):
        F(y)
    with pytest.raises(EvalBudgetExceeded):
        F(y)
    assert F.evals == 3  # the rejected call is not counted


def test_sequence_validation():
    t = (BitVec(1, 3), BitVec(2, 3))
    with pytest.raises(ValueError):
        RecurrenceSequence((), BitVec(0, 3))
    with pytest.raises(ValueError):
        RecurrenceSequence((BitVec(1, 3), BitVec(1, 4)), BitVec(1, 3))
    with pytest.raises(ValueError):
        RecurrenceSequence(t, BitVec(2, 3))  # terms[0] != seed


def test_packed_layout():
    s = seq_of([0b101, 0b010, 0b111], 3)
    assert s.packed() == 0b101 | (0b010 << 3) | (0b111 << 6)
    assert s.width == 3


def test_generate_counts_and_contents():
    F = rsa15()
    s = generate(F, BitVec(8, 4), 4)
    assert [t.value for t in s.terms] == [8, 2, 8, 2]
    assert F.evals == 3  # exactly M - 1
    assert s.verify(rsa15())
    with pytest.raises(ValueError):
        generate(F, BitVec(8, 4), 1)
    wide = BlackBoxMap(lambda x: concat(x, x), 3, 6)
    with pytest.raises(ValueError):
        generate(wide, BitVec(1, 3), 4)


def test_verify_catches_tampering():
    s = seq_of([8, 2, 8, 3], 4)
    assert not s.verify(rsa15())


def test_minpoly_constant_orbit():
    s = generate(identity(4), BitVec(9, 4), 5)
    res = minimal_polynomial(s)
    assert res.status == UNIQUE
    assert res.minpoly == Gf2Poly(0b11)  # X + 1
    assert invert_from_minpoly(s, res.minpoly) == BitVec(9, 4)


def test_minpoly_zero_orbit_convention():
    s = generate(identity(3), BitVec(0, 3), 6)
    res = minimal_polynomial(s)
    assert res.status == UNIQUE and res.minpoly == Gf2Poly(0b11)
    report = local_inversion(identity(3), BitVec(0, 3), 4)
    assert report.solved and report.x == BitVec(0, 3)


def test_minpoly_two_cycle():
    s = generate(rsa15(), BitVec(8, 4), 6)
    res = minimal_polynomial(s)
    assert res.status == UNIQUE
    assert res.minpoly == Gf2Poly(0b101)  # X^2 + 1
    # minimality: no degree-1 polynomial annihilates the window
    assert annihilates(res.minpoly, s)
    assert not annihilates(Gf2Poly(0b11), s)
    assert not annihilates(Gf2Poly(0b10), s)


def test_minpoly_saturates_on_short_window():
    F = lfsr5()
    s = generate(F, BitVec(1, 5), 3)
    res = minimal_polynomial(s)
    assert res.status == SATURATED
    assert res.minpoly is None
    report = local_inversion(lfsr5(), BitVec(1, 5), 3)
    assert report.outcome == INSUFFICIENT_DATA and report.x is None


def test_minpoly_recovers_full_linear_complexity():
    F = lfsr5()
    s = generate(F, BitVec(1, 5), 10)
    res = minimal_polynomial(s)
    assert res.status == UNIQUE
    assert res.minpoly.degree == 5 and res.minpoly.constant_term == 1
    assert annihilates(res.minpoly, s)
    # exhaustive minimality: nothing of lower degree annihilates
    for bits in range(2, 1 << 5):
        assert not annihilates(Gf2Poly(bits), s)
    report = local_inversion(lfsr5(), BitVec(1, 5), 12)
    assert report.solved
    assert report.x == BitVec(2, 5)  # the unique state clocking to 00001
    assert report.period_estimate == 31
    assert lfsr5()(report.x) == BitVec(1, 5)


def test_minpoly_rank_deficient_window():
    # not realizable by iteration, but a legal window: rank stalls at 1
    res = minimal_polynomial(seq_of([1, 1, 1, 2], 2))
    assert res.status == RANK_DEFICIENT
    assert res.minpoly is None


def test_minpoly_rank_profile_is_monotone():
    s = generate(lfsr5(), BitVec(7, 5), 12)
    res = minimal_polynomial(s)
    ranks = [r for _, r in res.rank_profile]
    assert all(b >= a for a, b in zip(ranks, ranks[1:]))
    assert all(r <= k for k, r in res.rank_profile)


def test_invert_from_minpoly_formula():
    # rotate-left-1 on 3 bits: orbit 110 -> 101 -> 011 -> 110
    rot = BlackBoxMap(lambda x: rotl(x, 1), 3)
    s = generate(rot, BitVec(0b110, 3), 7)
    res = minimal_polynomial(s)
    assert res.minpoly == Gf2Poly(0b111)  # X^2 + X + 1
    x = invert_from_minpoly(s, res.minpoly)
    assert x == BitVec(0b011, 3)
    assert rot(x) == BitVec(0b110, 3)


def test_invert_from_minpoly_rejects_bad_inputs():
    s = seq_of([8, 2, 8, 2], 4)
    with pytest.raises(ValueError):
        invert_from_minpoly(s, Gf2Poly(0b10))   # constant term 0
    with pytest.raises(ValueError):
        invert_from_minpoly(s, Gf2Poly(0b110))
    with pytest.raises(ValueError):
        invert_from_minpoly(s, Gf2Poly(1))      # degree 0
    short = seq_of([8, 2], 4)
    with pytest.raises(ValueError):
        invert_from_minpoly(short, Gf2Poly(0b10011))


def test_local_inversion_fixed_point():
    report = local_inversion(identity(4), BitVec(5, 4), 4)
    assert report.solved and report.x == BitVec(5, 4)
    assert report.linear_complexity == 1
    assert report.period_estimate == 1
    assert report.terms_consumed == 4
    assert report.map_evals == 4  # 3 window evals + 1 verification


def test_local_inversion_two_cycle():
    report = local_inversion(rsa15(), BitVec(8, 4), 6)
    assert report.solved and report.x == BitVec(2, 4)
    assert report.linear_complexity == 2
    assert report.period_estimate == 2
    assert report.map_evals == 6
    assert pow(report.x.value, 3, 15) == 8


def test_local_inversion_truncated_window():
    report = local_inversion(rsa15(), BitVec(8, 4), 2)
    assert report.outcome == INSUFFICIENT_DATA
    assert report.x is None and not report.solved


def test_local_inversion_default_window_length():
    report = local_inversion(identity(4), BitVec(5, 4))
    assert report.terms_consumed == 16  # 4 * input width
    assert report.solved


def test_local_inversion_detects_eventually_periodic_seed():
    # x -> x | 1 on 2 bits: 10 -> 11 -> 11, so 10 has no preimage chain
    F = BlackBoxMap(lambda x: BitVec(x.value | 1, 2), 2)
    report = local_inversion(F, BitVec(0b10, 2), 6)
    assert report.outcome == INSUFFICIENT_DATA
    assert report.x is None
    # the window is annihilated, but only by a polynomial with zero
    # constant term, which certifies nothing about a preimage
    assert report.minpoly == Gf2Poly(0b110)


def test_local_inversion_random_maps_is_sound():
    rng = random.Random(11)
    for _ in range(40):
        table = [rng.randrange(64) for _ in range(64)]
        F = BlackBoxMap(lambda x, t=table: BitVec(t[x.value], 6), 6)
        y = BitVec(rng.randrange(64), 6)
        report = local_inversion(F, y)
        assert report.map_evals <= report.terms_consumed + 1
        if report.solved:
            assert table[report.x.value] == y.value
        else:
            assert report.x is None


def test_bm_crosscheck_matches_engine():
    cases = [
        generate(identity(4), BitVec(9, 4), 6),
        generate(rsa15(), BitVec(8, 4), 6),
        generate(lfsr5(), BitVec(1, 5), 12),
        generate(identity(3), BitVec(0, 3), 6),
    ]
    for s in cases:
        res = minimal_polynomial(s)
        assert res.status == UNIQUE
        assert bm_crosscheck(s) == res.minpoly


def test_bm_crosscheck_on_random_permutation_full_period():
    rng = random.Random(5)
    table = list(range(64))
    rng.shuffle(table)
    def fresh():
        return BlackBoxMap(lambda x: BitVec(table[x.value], 6), 6)
    y = BitVec(17, 6)
    mp_oracle, period = full_period_minpoly(fresh(), y)
    s = generate(fresh(), y, 2 * period + 2)
    res = minimal_polynomial(s)
    assert res.status == UNIQUE
    assert res.minpoly == mp_oracle
    assert bm_crosscheck(s) == mp_oracle
