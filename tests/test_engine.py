"""Recurrence windows, minimal polynomials, and verified local inversion."""

import copy
import pickle
import random
from bisect import bisect_left, insort

import pytest
from hypothesis import given, settings, strategies as st

from bbi import engine
from bbi.embedding import invert_embedding
from bbi.engine import (INSUFFICIENT_DATA, RANK_DEFICIENT, SATURATED,
                        SOLUTION, UNIQUE, BlackBoxMap, EvalBudgetExceeded,
                        MinPolyResult, RecurrenceSequence, bm_crosscheck,
                        generate, invert_from_minpoly, local_inversion,
                        minimal_polynomial)
from bbi.gf2 import BitVec, Gf2Poly, order

from helpers import (concat, full_period_minpoly, per_call_generate, rotl,
                     times_x_mod, verify_sequence)


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
    return RecurrenceSequence(tuple(values), width)


def annihilates(p: Gf2Poly, seq: RecurrenceSequence) -> bool:
    m = p.degree
    for t in range(len(seq.terms) - m):
        acc = 0
        for i in range(m + 1):
            if p.coeff(i):
                acc ^= seq.terms[t + i]
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
    with pytest.raises(ValueError):
        RecurrenceSequence((), 3)
    with pytest.raises(ValueError):
        RecurrenceSequence((1, 8), 3)  # 8 needs four bits
    with pytest.raises(ValueError):
        RecurrenceSequence((1, -1), 3)
    with pytest.raises(ValueError):
        RecurrenceSequence((0, 0), 0)


def test_packed_layout():
    s = seq_of([0b101, 0b010, 0b111], 3)
    assert s.packed() == 0b101 | (0b010 << 3) | (0b111 << 6)
    assert s.width == 3


def test_generate_counts_and_contents():
    F = rsa15()
    s = generate(F, BitVec(8, 4), 4)
    assert s.terms == (8, 2, 8, 2) and s.width == 4
    assert F.evals == 3  # exactly M - 1
    assert verify_sequence(s, rsa15())
    with pytest.raises(ValueError):
        generate(F, BitVec(8, 4), 1)
    wide = BlackBoxMap(lambda x: concat(x, x), 3, 6)
    with pytest.raises(ValueError):
        generate(wide, BitVec(1, 3), 4)


def _window_outcome(walk, F, y, M):
    """(window terms, or the error's type and text; F.evals after)."""
    try:
        result = walk(F, y, M).terms
    except (EvalBudgetExceeded, ValueError) as err:
        result = (type(err), str(err))
    return result, F.evals


@given(width=st.integers(1, 6), seed=st.integers(0, 2**32),
       M=st.integers(2, 40), spent=st.integers(0, 80))
def test_generate_budget_matches_per_call_window(width, seed, M, spent):
    """Every budget from 0 to one past the window: the same terms or the
    same EvalBudgetExceeded, and the same F.evals, as one call per term."""
    rng = random.Random(seed)
    size = 1 << width
    table = [rng.randrange(size) for _ in range(size)]
    y = BitVec(rng.randrange(size), width)
    need = spent + M - 1  # the smallest budget the whole window fits in
    for budget in [None, *range(need + 2)]:
        outcomes = []
        for walk in (generate, per_call_generate):
            F = table_map(table, width)
            for v in range(spent):
                F(BitVec(v % size, width))
            F.max_evals = budget
            outcomes.append(_window_outcome(walk, F, y, M))
        assert outcomes[0] == outcomes[1]
        result, evals = outcomes[0]
        if budget is not None and budget < need:
            assert result == (EvalBudgetExceeded,
                              f"evaluation budget {budget} exhausted")
            assert evals == max(spent, budget)
        else:
            assert len(result) == M and evals == need


class Boom(Exception):
    pass


@pytest.mark.parametrize("fault", ["raises", "wrong-width"])
@given(width=st.integers(1, 6), data=st.data())
def test_generate_counts_the_call_that_failed(fault, width, data):
    """A map that raises, or returns the wrong width, on its k-th call
    within the window leaves F.evals at before + k, as calling F once
    per term does."""
    M = data.draw(st.integers(2, 30))
    k = data.draw(st.integers(1, M - 1))
    spent = data.draw(st.integers(0, 5))
    budget = data.draw(st.one_of(st.none(), st.integers(spent + k, 1 << 10)))
    messages = []
    for walk in (generate, per_call_generate):
        calls = []

        def fn(x):
            calls.append(x)
            if len(calls) - spent != k:
                return BitVec((x.value + 1) % (1 << width), width)
            if fault == "raises":
                raise Boom(k)
            return BitVec(0, width + 1)

        F = BlackBoxMap(fn, width)
        for _ in range(spent):
            F(BitVec(0, width))
        F.max_evals = budget
        with pytest.raises(Boom if fault == "raises" else ValueError) as info:
            walk(F, BitVec(0, width), M)
        assert F.evals == spent + k == len(calls)
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    if fault == "wrong-width":
        assert messages[0] == f"map produced width {width + 1}, declared {width}"


def test_generate_checks_the_seed_width_like_a_call():
    for budget in (None, 0):
        outcomes = []
        for walk in (generate, per_call_generate):
            F = identity(4)
            F.max_evals = budget
            outcomes.append(_window_outcome(walk, F, BitVec(1, 5), 4))
        assert outcomes[0] == outcomes[1] == (
            (ValueError, "input width 5, map expects 4"), 0)


def test_verify_catches_tampering():
    s = seq_of([8, 2, 8, 3], 4)
    assert not verify_sequence(s, rsa15())


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


@pytest.fixture
def order_calls(monkeypatch):
    """Route the engine's gf2.order through a call counter."""
    calls = []

    def counting(p, bound=1 << 20):
        calls.append((p, bound))
        return order(p, bound)

    monkeypatch.setattr(engine, "order", counting)
    return calls


Q16 = Gf2Poly(0x1002D)  # X^16 + X^5 + X^3 + X^2 + 1, primitive


@pytest.mark.parametrize("F, y, M, period", [
    (identity(4), BitVec(5, 4), 4, 1),
    (rsa15(), BitVec(8, 4), 6, 2),
    (lfsr5(), BitVec(1, 5), None, 31),
    (times_x_mod(Q16 * Q16 * Q16 * Q16), BitVec(1, 64), None, 262140),
], ids=["fixed-point", "two-cycle", "lfsr5", "degree-64"])
def test_period_estimate_is_computed_once_on_first_read(order_calls, F, y, M,
                                                        period):
    report = local_inversion(F, y, M)
    assert report.solved and order_calls == []
    assert report.period_estimate == period
    bound = min(1 << 20, 1 << report.minpoly.degree)
    assert order_calls == [(report.minpoly, bound)]
    assert period == order(report.minpoly, bound)
    assert report.period_estimate == period
    assert len(order_calls) == 1


def test_invert_embedding_does_not_compute_the_period(order_calls):
    F = BlackBoxMap(lambda x: concat(x, x), 3, 6)
    report, window = invert_embedding(F, concat(BitVec(5, 3), BitVec(5, 3)))
    assert report.solved and window == 1 and order_calls == []
    assert report.period_estimate == 1 and len(order_calls) == 1


def test_unsolved_report_has_no_period_and_no_order_call(order_calls):
    report = local_inversion(rsa15(), BitVec(8, 4), 2)
    assert not report.solved and report.period_estimate is None
    # annihilated only by X^2 + X, which order() would reject
    F = BlackBoxMap(lambda x: BitVec(x.value | 1, 2), 2)
    report = local_inversion(F, BitVec(0b10, 2), 6)
    assert report.minpoly == Gf2Poly(0b110) and report.period_estimate is None
    report, _ = invert_embedding(BlackBoxMap(lambda x: BitVec(0, 6), 3, 6),
                                 BitVec(1, 6))
    assert not report.solved and report.period_estimate is None
    assert order_calls == []


def test_report_equality_copy_and_pickle_ignore_the_cached_period():
    read, unread = (local_inversion(lfsr5(), BitVec(1, 5)) for _ in range(2))
    assert read.period_estimate == 31
    assert read == unread and hash(read) == hash(unread)
    for report in (read, unread):
        for clone in (copy.copy(report), copy.deepcopy(report),
                      pickle.loads(pickle.dumps(report))):
            assert clone == read and hash(clone) == hash(read)
            assert clone.period_estimate == 31


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


def measured(res: MinPolyResult) -> tuple:
    """(minpoly, status, rank_profile) of a result, the triple that
    `_minimal_polynomial_lowbit` returns."""
    return res.minpoly, res.status, res.rank_profile


def _minimal_polynomial_lowbit(seq: RecurrenceSequence) -> tuple:
    """Reference for `minimal_polynomial` and its rank evidence: a Hankel
    scan that decides windows itself, with row r of a column at bit r
    and each pivot found as the lowest set bit.  Returns (minpoly,
    status, rank_profile)."""
    M = len(seq.terms)
    n = seq.width
    packed = seq.packed()
    if packed == 0:
        return Gf2Poly(0b11), UNIQUE, ((1, 0),)

    m_max = M // 2
    height = n * m_max
    colmask = (1 << height) - 1
    basis: dict[int, tuple[int, int]] = {}  # pivot row -> (vector, column combo)
    pivots: list[int] = []
    profile: list[tuple[int, int]] = []

    def insert(vec: int, mask: int) -> None:
        while vec:
            p = (vec & -vec).bit_length() - 1
            hit = basis.get(p)
            if hit is None:
                basis[p] = (vec, mask)
                insort(pivots, p)
                return
            vec ^= hit[0]
            mask ^= hit[1]

    insert(packed & colmask, 1)

    for k in range(1, m_max + 1):
        cut = n * k
        rank_k = bisect_left(pivots, cut)
        profile.append((k, rank_k))

        vec = (packed >> (k * n)) & colmask
        mask = 1 << k
        consistent = True
        while vec:
            p = (vec & -vec).bit_length() - 1
            if p >= cut:
                break
            hit = basis.get(p)
            if hit is None:
                consistent = False
                break
            vec ^= hit[0]
            mask ^= hit[1]

        if consistent and rank_k == k:
            acc = 0
            b = mask
            while b:
                i = (b & -b).bit_length() - 1
                acc ^= packed >> (i * n)
                b &= b - 1
            if (acc & ((1 << ((M - k) * n)) - 1)) == 0:
                return Gf2Poly(mask), UNIQUE, tuple(profile)

        if k < m_max:
            insert(vec, mask)

    status = SATURATED if len(pivots) == m_max else RANK_DEFICIENT
    return None, status, tuple(profile)


def table_map(table, width) -> BlackBoxMap:
    return BlackBoxMap(lambda x: BitVec(table[x.value], width), width)


@st.composite
def table_maps(draw):
    """(width, table, start): a random table of width 1..8, or one whose
    start runs through a drawn tail into a hidden cycle of length 1..20,
    the other entries random."""
    width = draw(st.integers(1, 8))
    size = 1 << width
    rng = random.Random(draw(st.integers(0, 2**32)))
    table = [rng.randrange(size) for _ in range(size)]
    if draw(st.booleans()):
        cycle = draw(st.integers(1, min(size, 20)))
        tail = draw(st.integers(0, min(size - cycle, 3)))
        path = rng.sample(range(size), tail + cycle)
        for a, b in zip(path, path[1:]):
            table[a] = b
        table[path[-1]] = path[tail]
        return width, table, path[0]
    return width, table, rng.randrange(size)


def hidden_vector(n: int, high: int) -> int:
    """The vector of width n > 8 orthogonal to the first eight projections
    whose bits 8 and up are those of `high`: u_i has its lowest set bit
    at i, so bits 7 .. 0 are fixed in turn."""
    v = (high << 8) & ((1 << n) - 1)
    for i, u in reversed(list(enumerate(engine._projections(n)[:8]))):
        v |= ((u & v).bit_count() & 1) << i
    return v


@st.composite
def windows(draw, wide=False):
    """A window of M = 2..40 terms: arbitrary values, or the orbit of a
    table map from `table_maps`.

    A wide window has width 9..64.  Its orbit is spread over that width
    by a random linear map, and a periodic scalar sequence along a
    vector hidden from the first eight projections is XORed in, so only
    the later projections see that sequence's factors."""
    M = draw(st.integers(2, 40))
    widths = st.integers(9, 64) if wide else st.integers(1, 8)
    if draw(st.booleans()):
        n = draw(widths)
        values = draw(st.lists(st.integers(0, (1 << n) - 1),
                               min_size=M, max_size=M))
        return seq_of(values, n)
    width, table, start = draw(table_maps())
    orbit = generate(table_map(table, width), BitVec(start, width), M)
    if not wide:
        return orbit
    n = draw(widths)
    rng = random.Random(draw(st.integers(0, 2**32)))
    columns = [rng.getrandbits(n) for _ in range(width)]
    w = hidden_vector(n, rng.getrandbits(n))
    pattern = draw(st.lists(st.booleans(), min_size=1, max_size=7))
    values = []
    for t, term in enumerate(orbit.terms):
        v = w if pattern[t % len(pattern)] else 0
        for i, c in enumerate(columns):
            if term >> i & 1:
                v ^= c
        values.append(v)
    return seq_of(values, n)


@settings(max_examples=500)
@given(windows())
def test_minpoly_matches_lowbit_scan(seq):
    assert measured(minimal_polynomial(seq)) == _minimal_polynomial_lowbit(seq)


@settings(max_examples=300)
@given(windows(wide=True))
def test_minpoly_matches_lowbit_scan_at_widths_9_to_64(seq):
    assert measured(minimal_polynomial(seq)) == _minimal_polynomial_lowbit(seq)


@settings(max_examples=500)
@given(windows())
def test_bm_crosscheck_on_any_window(seq):
    # solved or not, the per-bit lcm annihilates the window, and it is
    # minimal_polynomial's polynomial whenever that one solves
    mp = bm_crosscheck(seq)
    assert annihilates(mp, seq)
    res = minimal_polynomial(seq)
    if res.status == UNIQUE:
        assert mp == res.minpoly


def test_minpoly_long_cycle_matches_lowbit_scan_and_bm():
    # n = 16, a hidden cycle of N = 256 distinct values, M = 2N + 2
    rng = random.Random(256)
    cycle = rng.sample(range(1 << 16), 256)
    succ = dict(zip(cycle, cycle[1:] + cycle[:1]))
    F = BlackBoxMap(lambda x: BitVec(succ.get(x.value, x.value), 16), 16)
    s = generate(F, BitVec(cycle[0], 16), 514)
    res = minimal_polynomial(s)
    assert res.status == UNIQUE
    assert measured(res) == _minimal_polynomial_lowbit(s)
    assert res.minpoly == bm_crosscheck(s)
    assert invert_from_minpoly(s, res.minpoly) == BitVec(cycle[-1], 16)


@given(table_maps(), st.data())
def test_local_inversion_is_sound(case, data):
    width, table, y = case
    M = data.draw(st.integers(2, 4 * width + 8))
    budget = data.draw(st.none() | st.integers(1, M + 1))
    F = table_map(table, width)
    F.max_evals = budget
    try:
        report = local_inversion(F, BitVec(y, width), M)
    except EvalBudgetExceeded:
        assert budget is not None and F.evals == budget
        return
    assert report.map_evals <= M
    if report.solved:
        assert table[report.x.value] == y
    else:
        assert report.x is None


@pytest.fixture
def scans(monkeypatch):
    """Route the engine's Hankel scan through a call counter."""
    calls = []
    scan = engine._hankel_scan

    def counting(seq):
        calls.append(seq)
        return scan(seq)

    monkeypatch.setattr(engine, "_hankel_scan", counting)
    return calls


def hidden_cycle_window(n: int, N: int, seed: int) -> RecurrenceSequence:
    """M = 2N + 2 terms of a map with one hidden cycle of N distinct
    values and every other point fixed."""
    rng = random.Random(seed)
    cycle = rng.sample(range(1 << n), N) if n <= 16 else list(
        dict.fromkeys(rng.getrandbits(n) for _ in range(2 * N)))[:N]
    succ = dict(zip(cycle, cycle[1:] + cycle[:1]))
    F = BlackBoxMap(lambda x: BitVec(succ.get(x.value, x.value), n), n)
    return generate(F, BitVec(cycle[0], n), 2 * N + 2)


@pytest.mark.parametrize("n, N", [(1, 2), (2, 3), (2, 4), (3, 5), (3, 8),
                                  (16, 16), (16, 100), (16, 256),
                                  (64, 64), (64, 129), (64, 256)])
def test_projected_route_matches_lowbit_scan_on_hidden_cycles(scans, n, N):
    s = hidden_cycle_window(n, N, seed=N)
    res = minimal_polynomial(s)
    assert scans == []  # won by projection, no scan
    assert res.status == UNIQUE
    assert measured(res) == _minimal_polynomial_lowbit(s)
    cycle_sum = 0
    for t in s.terms[:N]:
        cycle_sum ^= t
    if N & (N - 1) == 0 and cycle_sum:
        # X^N - 1 = (X + 1)^N, and the sum over one period is not zero,
        # so no proper divisor annihilates
        assert res.minpoly == Gf2Poly((1 << N) | 1)
    assert invert_from_minpoly(s, res.minpoly) == BitVec(s.terms[N - 1], n)


def test_ninth_projection_wins_a_window_hidden_from_the_first_eight(scans):
    # Width 9 has one nonzero w orthogonal to the first eight projections.
    # The window (1,1,0,1,1,0,...) * e + w has minimal polynomial
    # (X^2 + X + 1)(X + 1), but those eight see X^2 + X + 1 at most, which
    # does not annihilate the constant w.  The ninth sees X + 1, and the
    # lcm wins without the scan.
    us = engine._projections(9)
    assert len(us) == 9
    w = next(v for v in range(1, 512)
             if all((u & v).bit_count() % 2 == 0 for u in us[:8]))
    assert w == hidden_vector(9, 1)
    e = 1 if w != 1 else 2
    s = seq_of([(e if t % 3 != 2 else 0) ^ w for t in range(12)], 9)
    res = minimal_polynomial(s)
    assert scans == []
    assert res.status == UNIQUE and res.minpoly == Gf2Poly(0b1001)  # X^3 + 1
    assert measured(res) == _minimal_polynomial_lowbit(s)
    # the first eight projections all zero: the window is w alone
    scans.clear()
    s = seq_of([w] * 6, 9)
    res = minimal_polynomial(s)
    assert scans == []
    assert res.status == UNIQUE and res.minpoly == Gf2Poly(0b11)  # X + 1
    assert measured(res) == _minimal_polynomial_lowbit(s)


@pytest.mark.parametrize("s", [
    seq_of([1, 1, 1, 2], 2),                 # rank-deficient
    generate(lfsr5(), BitVec(1, 5), 3),      # saturated
    generate(identity(3), BitVec(0, 3), 6),  # all zero
], ids=["rank-deficient", "saturated", "zero"])
def test_unsolved_and_zero_windows_go_to_the_scan(scans, s):
    # the solve never scans; reading the evidence costs exactly one scan
    res = minimal_polynomial(s)
    assert scans == []
    assert measured(res) == _minimal_polynomial_lowbit(s)
    assert scans == [s]


def test_status_read_scans_only_windows_without_a_minpoly(scans):
    windows = [seq_of([1, 1, 1, 2], 2),                 # rank-deficient
               generate(lfsr5(), BitVec(1, 5), 3),      # saturated
               generate(identity(3), BitVec(0, 3), 6)]  # all zero
    results = [minimal_polynomial(s) for s in windows]
    assert scans == []
    assert [res.status for res in results] == [RANK_DEFICIENT, SATURATED, UNIQUE]
    assert scans == windows[:2]
    for s, res in zip(windows, results):
        assert measured(res) == _minimal_polynomial_lowbit(s)
    assert scans == windows  # the zero window scans for its rank_profile


def test_saturated_window_is_decided_without_a_scan(scans):
    # a random permutation of GF(2)^16 whose cycle through 1 has 44,692
    # points: no annihilator of degree <= M/2 fits M = 4096 of them.  The
    # status would read saturated only after a scan of 2048 columns,
    # about 0.3 s, so it is not read.
    rng = random.Random(7)
    table = list(range(1 << 16))
    rng.shuffle(table)
    s = generate(table_map(table, 16), BitVec(1, 16), 4096)
    assert minimal_polynomial(s).minpoly is None
    assert scans == []


def test_rank_profile_is_scanned_once_on_first_read(scans):
    s = hidden_cycle_window(16, 64, seed=3)
    read, unread = minimal_polynomial(s), minimal_polynomial(s)
    assert scans == []
    expected = _minimal_polynomial_lowbit(s)
    assert read.rank_profile == expected[2]
    assert scans == [s]
    assert measured(read) == expected
    assert len(scans) == 1
    # status and rank_profile share one scan, read in either order
    unsolved = generate(lfsr5(), BitVec(1, 5), 3)
    for first, second in (("status", "rank_profile"),
                          ("rank_profile", "status")):
        for w in (s, unsolved):
            res = minimal_polynomial(w)
            scans.clear()
            getattr(res, first), getattr(res, second)
            assert scans == [w]
            assert measured(res) == _minimal_polynomial_lowbit(w)
            assert scans == [w]
    # equality is identity, and the window stays out of the repr
    assert read == read and read != unread
    assert repr(read) == f"MinPolyResult(minpoly={read.minpoly!r})"
    # copies keep both values, read or still to be measured
    scans.clear()
    for clone in (copy.copy(read), copy.deepcopy(read),
                  pickle.loads(pickle.dumps(read))):
        assert measured(clone) == expected
    assert scans == []
    for clone in (copy.copy(unread), copy.deepcopy(unread),
                  pickle.loads(pickle.dumps(unread))):
        assert measured(clone) == expected
    assert len(scans) == 3
