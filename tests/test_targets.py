"""Target families: cipher correctness, parameter validation, registry."""

import json
import random

import pytest
from hypothesis import given, strategies as st

from bbi.embedding import invert_embedding
from bbi.gf2 import BitVec, Gf2Poly, order
from bbi.oracle import brute_force_invert
from bbi.targets import arith, build_target, ec, list_targets, load_target
from bbi.targets.arith import (is_prime, is_primitive_poly, is_primitive_root,
                               prime_factors, reduce_exponent)
from bbi.targets.basic import identity_map
from bbi.targets.dlp import DlpParams, dlp_map
from bbi.targets.ec import (INFINITY, CurveParams, ECPoint, ec_add,
                            ec_scalar_mul, ecdlp_map, encode_point)
from bbi.targets.rsa import RsaParams, cca_map, enc_map
from bbi.targets.spn import ROUNDS_LIMIT, ToySpn
from bbi.targets.stream import COUNT_LIMIT, WARMUP_LIMIT, FilteredLfsr

from helpers import (IntMod, clock, count_points, ec_neg, not_map,
                     output_bit, reference_keystream, reference_spn_encrypt,
                     spn_decrypt)


# ---------------------------------------------------------------- arithmetic

def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23}
    assert all(is_prime(p) for p in primes)
    assert not any(is_prime(n) for n in (0, 1, 4, 9, 15, 21, 25, 1829))


def test_prime_factors():
    assert prime_factors(1) == []
    assert prime_factors(12) == [2, 3]
    assert prime_factors(870) == [2, 3, 5, 29]
    assert prime_factors(97) == [97]


def test_is_primitive_root():
    assert is_primitive_root(2, 11)
    assert not is_primitive_root(3, 11)  # 3^5 = 1 mod 11
    assert not is_primitive_root(1, 11)
    assert not is_primitive_root(10, 11)
    assert not is_primitive_root(11, 11)
    # primitive roots of 11 are exactly {2, 6, 7, 8}
    assert [a for a in range(1, 11) if is_primitive_root(a, 11)] == [2, 6, 7, 8]


def test_is_primitive_poly():
    assert is_primitive_poly(Gf2Poly(0b10011))       # X^4 + X + 1
    assert is_primitive_poly(Gf2Poly(0b100101))      # X^5 + X^2 + 1
    assert is_primitive_poly(Gf2Poly(0x1000087))     # degree 24
    # irreducible but not primitive: X^4+X^3+X^2+X+1 has order 5
    assert not is_primitive_poly(Gf2Poly(0b11111))
    assert not is_primitive_poly(Gf2Poly(0b101))     # (X+1)^2
    assert not is_primitive_poly(Gf2Poly(0b10))      # zero constant term


def test_is_primitive_poly_agrees_with_order_up_to_degree_10():
    # order() finds the order of X by baby-step giant-step, a route that
    # shares nothing with the powmod checks over the factors of 2^d - 1
    for d in range(2, 11):
        n = (1 << d) - 1
        for low in range(1, 1 << d, 2):
            p = Gf2Poly((1 << d) | low)
            assert is_primitive_poly(p) == (order(p, n) == n), p


def test_stream_reload_runs_no_powmod(monkeypatch):
    """Primitivity is remembered per polynomial, so reloading the stream
    config skips the powmod checks of its feedback polynomial."""
    calls, powmod = [], arith.powmod

    def counted(*args):
        calls.append(args)
        return powmod(*args)

    monkeypatch.setattr(arith, "powmod", counted)
    is_primitive_poly.cache_clear()
    load_target("stream")
    assert calls  # the first load checks the polynomial
    calls.clear()
    load_target("stream")
    assert calls == []


# ----------------------------------------------------------------- basic maps

def test_identity_and_not_maps():
    F = identity_map(4)
    assert F.label == "identity4" and F.in_width == F.out_width == 4
    assert F(BitVec(9, 4)) == BitVec(9, 4)
    G = not_map(3)
    assert G.label == "not3"
    assert G(BitVec(0b101, 3)) == BitVec(0b010, 3)
    assert G(G(BitVec(6, 3))) == BitVec(6, 3)
    with pytest.raises(ValueError):
        identity_map(0)
    with pytest.raises(ValueError):
        not_map(0)


# ----------------------------------------------------------------------- SPN

def test_spn_golden_vector():
    assert ToySpn().encrypt(0x1234, 0x5678) == 0x3A75


def test_spn_round_trip():
    rng = random.Random(1)
    for rounds in (1, 2, 4):
        cipher = ToySpn(rounds=rounds)
        for _ in range(50):
            k, p = rng.randrange(1 << 16), rng.randrange(1 << 16)
            assert spn_decrypt(cipher, k, cipher.encrypt(k, p)) == p


def test_spn_round_keys_match_rotate_per_round_reference():
    shipped = load_target("spn-kpa")
    cipher, p0 = shipped.params, int(shipped.config["plaintext"], 0)
    assert cipher.rounds == 4
    keys = range(1 << 16)
    assert ([cipher.encrypt(k, p0) for k in keys]
            == [reference_spn_encrypt(cipher, k, p0) for k in keys])
    rng = random.Random(5)
    keys = [rng.randrange(1 << 16) for _ in range(256)]
    # encrypt takes any int key, so keys past 16 bits must agree too
    wide = [-1, 1 << 16, 0x12345678, -0xBEEF]
    for rounds in (0, 1, 15, 16, 17, ROUNDS_LIMIT):  # r & 15 wraps at 16
        cipher = ToySpn(rounds)
        for k in keys + wide:
            p = rng.randrange(1 << 16)
            assert cipher.encrypt(k, p) == reference_spn_encrypt(cipher, k, p), (rounds, k)


def test_spn_zero_rounds_is_xor():
    cipher = ToySpn(rounds=0)
    rng = random.Random(2)
    for _ in range(20):
        k, p = rng.randrange(1 << 16), rng.randrange(1 << 16)
        assert cipher.encrypt(k, p) == p ^ k


def test_spn_kpa_map():
    cipher = ToySpn()
    F = cipher.kpa_map(0x5678)
    assert F.in_width == F.out_width == 16
    assert "spn-kpa" in F.label
    k = BitVec(0x0073, 16)
    assert F(k).value == cipher.encrypt(0x0073, 0x5678)


def test_spn_validation():
    with pytest.raises(ValueError):
        ToySpn(rounds=-1)


# -------------------------------------------------------------------- stream

def ref_stream_bits(key: int, count: int) -> int:
    # s_{t+5} = s_{t+2} + s_t, seeded with the key bits then zeros
    s = [(key >> i) & 1 for i in range(3)] + [0, 0]
    while len(s) < count:
        s.append(s[-3] ^ s[-5])
    return sum(s[i] << i for i in range(count))


def plain_lfsr() -> FilteredLfsr:
    # single-tap identity filter exposes the raw register sequence
    return FilteredLfsr(feedback=Gf2Poly(0b100101), key_width=3, iv=0,
                        filter_taps=[0], filter_table=0b10, warmup=0)


def test_stream_matches_reference_recurrence():
    lfsr = plain_lfsr()
    for key in range(8):
        assert lfsr.keystream(key, 16) == ref_stream_bits(key, 16)


def test_stream_kpa_embedding_inverts():
    lfsr = plain_lfsr()
    for key in range(8):
        y = BitVec(lfsr.keystream(key, 16), 16)
        report, window = invert_embedding(lfsr.kpa_map(16), y)
        assert report.solved and window == 1
        assert report.x.value == key


def test_stream_shipped_filter_table_is_the_expected_boolean():
    # table 0x956a6a6a encodes f(x) = x0 + x1*x2 + x3*x4
    for idx in range(32):
        f = (idx & 1) ^ ((idx >> 1) & (idx >> 2) & 1) ^ ((idx >> 3) & (idx >> 4) & 1)
        assert (0x956A6A6A >> idx) & 1 == f


def test_stream_filter_and_clock():
    lfsr = FilteredLfsr(feedback=Gf2Poly(0x1000087), key_width=16, iv=0xA5,
                        filter_taps=[2, 5, 9, 14, 20], filter_table=0x956A6A6A,
                        warmup=8)
    rng = random.Random(3)
    for _ in range(50):
        state = rng.randrange(1 << 24)
        bits = [(state >> t) & 1 for t in (2, 5, 9, 14, 20)]
        expect = bits[0] ^ (bits[1] & bits[2]) ^ (bits[3] & bits[4])
        assert output_bit(lfsr, state) == expect
        # clock shifts down and feeds the recurrence bit in at the top
        nxt = clock(lfsr, state)
        assert nxt & ((1 << 23) - 1) == state >> 1


def test_stream_state_cycle_is_full():
    # primitive feedback: the nonzero states form one cycle of 2^d - 1
    lfsr = plain_lfsr()
    state, seen = 1, 0
    while True:
        state = clock(lfsr, state)
        seen += 1
        if state == 1:
            break
    assert seen == 31


def test_stream_rejects_filter_taps_that_are_not_int_sequences():
    good = dict(feedback=Gf2Poly(0b100101), key_width=3, iv=0,
                filter_taps=[0], filter_table=0b10, warmup=0)
    FilteredLfsr(**{**good, "filter_taps": (0,)})  # a tuple is fine
    for taps in (5, "0", None, [0.0], {0}):
        with pytest.raises(ValueError, match="list or tuple of ints"):
            FilteredLfsr(**{**good, "filter_taps": taps})


def test_stream_validation():
    good = dict(feedback=Gf2Poly(0b100101), key_width=3, iv=0,
                filter_taps=[0], filter_table=0b10, warmup=0)
    FilteredLfsr(**good)
    with pytest.raises(ValueError):
        FilteredLfsr(**{**good, "feedback": Gf2Poly(0b11)})       # degree 1
    with pytest.raises(ValueError):
        FilteredLfsr(**{**good, "feedback": Gf2Poly(0b11111)})    # not primitive
    with pytest.raises(ValueError):
        FilteredLfsr(**{**good, "key_width": 5})
    with pytest.raises(ValueError):
        FilteredLfsr(**{**good, "key_width": 0})
    with pytest.raises(ValueError):
        FilteredLfsr(**{**good, "iv": 4})                          # iv_width is 2
    with pytest.raises(ValueError):
        FilteredLfsr(**{**good, "filter_taps": [0, 0]})
    with pytest.raises(ValueError):
        FilteredLfsr(**{**good, "filter_taps": [5]})
    with pytest.raises(ValueError):
        FilteredLfsr(**{**good, "filter_taps": []})
    with pytest.raises(ValueError):
        FilteredLfsr(**{**good, "filter_table": 4})                # 1 tap -> < 4
    with pytest.raises(ValueError):
        FilteredLfsr(**{**good, "warmup": -1})
    with pytest.raises(ValueError):
        plain_lfsr().keystream(8, 16)  # key does not fit
    with pytest.raises(ValueError):
        plain_lfsr().kpa_map(2)        # fewer bits than the key has


def test_stream_degree_limit_and_wide_filter():
    # degree 32 is the largest accepted; 32 taps take a table without the
    # 2^32-bit bound ever being built
    lfsr = FilteredLfsr(feedback=Gf2Poly(0x100400007), key_width=16, iv=0,
                        filter_taps=list(range(32)), filter_table=0x956A6A6A,
                        warmup=0)
    assert lfsr.degree == 32
    with pytest.raises(ValueError, match="at most 32"):
        FilteredLfsr(feedback=Gf2Poly((1 << 33) | (1 << 13) | 1), key_width=3,
                     iv=0, filter_taps=[0], filter_table=0b10, warmup=0)
    good = dict(feedback=Gf2Poly(0b100101), key_width=3, iv=0,
                filter_taps=[0], filter_table=0b11, warmup=0)
    FilteredLfsr(**good)  # 1 tap: tables 0 .. 3
    with pytest.raises(ValueError, match="filter table"):
        FilteredLfsr(**{**good, "filter_table": -1})


@pytest.mark.parametrize("extra_taps", [[], [23]], ids=["shipped", "high-tap"])
def test_keystream_matches_clocked_reference_on_every_shipped_key(extra_taps):
    # the shipped table spans all five taps; a sixth tap above them must
    # force the output to 0 whenever it reads 1
    config = load_target("stream").config
    taps = config["filter_taps"] + extra_taps
    lfsr = build_target({**config, "filter_taps": taps}).params
    for key in range(1 << 16):
        assert lfsr.keystream(key, 20) == reference_keystream(lfsr, key, 20), key


@st.composite
def primitive_feedbacks(draw) -> Gf2Poly:
    """A named feedback, or the first primitive one of a random degree
    2..32 at or after random low coefficients."""
    named = draw(st.sampled_from([None, 0x1000087, 0x100400007]))
    if named is not None:
        return Gf2Poly(named)
    d = draw(st.integers(2, 32))
    low = draw(st.integers(0, (1 << (d - 1)) - 1))
    for step in range(1 << (d - 1)):
        p = Gf2Poly((1 << d) | ((low + step) % (1 << (d - 1))) << 1 | 1)
        if is_primitive_poly(p):
            return p
    raise AssertionError(f"no primitive polynomial of degree {d}")


@st.composite
def stream_configs(draw):
    feedback = draw(primitive_feedbacks())
    d = feedback.degree
    key_width = draw(st.integers(1, d - 1))
    taps = draw(st.lists(st.integers(0, d - 1), min_size=1, max_size=d,
                         unique=True))
    # tables over at most 2^10 entries: zero, dense over the first v taps,
    # or a few set entries, which leave the taps above them as high taps
    size = 1 << min(len(taps), 10)
    table = draw(st.one_of(
        st.just(0),
        st.integers(0, len(taps)).flatmap(
            lambda v: st.integers(0, (1 << min(1 << v, size)) - 1)),
        st.lists(st.integers(0, size - 1), max_size=4).map(
            lambda idx: sum(1 << i for i in set(idx)))))
    lfsr = FilteredLfsr(feedback=feedback, key_width=key_width,
                        iv=draw(st.integers(0, (1 << (d - key_width)) - 1)),
                        filter_taps=taps, filter_table=table,
                        warmup=draw(st.integers(0, 64)))
    return lfsr, draw(st.integers(key_width, 64))


@given(stream_configs(), st.data())
def test_keystream_matches_clocked_reference_on_random_configs(config, data):
    lfsr, count = config
    F = lfsr.kpa_map(count)
    top = (1 << lfsr.key_width) - 1
    keys = [0, top] + data.draw(st.lists(st.integers(0, top), max_size=4))
    for key in keys:
        expect = reference_keystream(lfsr, key, count)
        assert lfsr.keystream(key, count) == expect
        assert F(BitVec(key, lfsr.key_width)) == BitVec(expect, count)


@pytest.mark.parametrize("taps", [list(range(31, -1, -1)), [2, 5, 9, 14, 20]])
def test_keystream_build_is_bounded_at_every_limit(taps):
    """Degree 32 at the warmup and count limits.  With 32 taps the filter's
    normal form spans the table's 5 variables, not 2^32 entries, and the
    27 taps above them force the output to 0 unless all read 0; the
    5-tap filter's keystream takes both values over the same walk."""
    lfsr = FilteredLfsr(feedback=Gf2Poly(0x100400007), key_width=24,
                        iv=0x9D, filter_taps=taps,
                        filter_table=0x956A6A6A, warmup=WARMUP_LIMIT)
    F = lfsr.kpa_map(COUNT_LIMIT)
    rng = random.Random(11)
    for _ in range(20):
        key = rng.randrange(1 << 24)
        expect = reference_keystream(lfsr, key, COUNT_LIMIT)
        assert F(BitVec(key, 24)) == BitVec(expect, COUNT_LIMIT)


# ----------------------------------------------------------------------- RSA

def test_rsa_params():
    params = RsaParams(3, 5, 3)
    assert params.n == 15 and params.phi == 8
    assert params.width == 4
    d = params.private_exponent()
    assert (3 * d) % params.phi == 1


def test_rsa_validation():
    with pytest.raises(ValueError):
        RsaParams(4, 5, 3)
    with pytest.raises(ValueError):
        RsaParams(5, 5, 3)
    with pytest.raises(ValueError):
        RsaParams(3, 5, 2)   # gcd(2, 8) = 2
    with pytest.raises(ValueError):
        RsaParams(3, 5, 1)
    with pytest.raises(ValueError):
        RsaParams(4999, 5003, 3)  # modulus above the desk-scale limit


def test_rsa_enc_map():
    params = RsaParams(3, 5, 3)
    F = enc_map(params)
    assert F.in_width == F.out_width == 4
    assert F(BitVec(0, 4)) == BitVec(0, 4)
    assert F(BitVec(1, 4)) == BitVec(1, 4)
    assert F(BitVec(2, 4)) == BitVec(8, 4)
    # inputs at or above n reduce first
    assert F(BitVec(15, 4)) == F(BitVec(0, 4))
    # gcd(e, lambda) = 1 makes x -> x^e a permutation of Z_n
    images = sorted(F(BitVec(v, 4)).value for v in range(15))
    assert images == list(range(15))


def test_rsa_cca_map():
    params = RsaParams(59, 31, 7)
    F = cca_map(params, 858)
    assert F.in_width == F.out_width == 11
    assert F(BitVec(0, 11)) == BitVec(1, 11)  # c^0
    assert F(BitVec(5, 11)).value == pow(858, 5, 1829)
    assert cca_map(params, IntMod(858, 1829))(BitVec(2, 11)).value \
        == pow(858, 2, 1829)
    with pytest.raises(ValueError):
        cca_map(params, 118)  # shares the factor 59 with n


# ----------------------------------------------------------------------- DLP

def test_dlp_params_and_validation():
    params = DlpParams(11, 2)
    assert params.width == 4
    with pytest.raises(ValueError):
        DlpParams(2, 1)
    with pytest.raises(ValueError):
        DlpParams(9, 2)
    with pytest.raises(ValueError):
        DlpParams(11, 3)   # not a generator
    with pytest.raises(ValueError):
        DlpParams(11, 1)
    p = (1 << 24) + 1
    while not is_prime(p):
        p += 2
    with pytest.raises(ValueError):
        DlpParams(p, 2)    # above the desk-scale limit


def test_reduce_exponent():
    assert reduce_exponent(1, 11) == 1
    assert reduce_exponent(10, 11) == 10
    assert reduce_exponent(0, 11) == 10
    assert reduce_exponent(11, 11) == 1
    assert reduce_exponent(14, 11) == 4


def test_dlp_map_is_a_bijection_in_range():
    F = dlp_map(DlpParams(11, 2))
    images = sorted(F(BitVec(v, 4)).value for v in range(1, 11))
    assert images == list(range(1, 11))
    # both inputs reduce to the same exponent
    assert F(BitVec(12, 4)) == F(BitVec(2, 4))
    # exponent pattern 0 acts as p - 1
    assert F(BitVec(0, 4)) == BitVec(1, 4)


def test_dlp_brute_force_crosscheck():
    target = dlp_map(DlpParams(11, 2))
    assert brute_force_invert(target, BitVec(9, 4)) == [BitVec(6, 4)]


# ------------------------------------------------------------------------ EC

@pytest.fixture(scope="module")
def f17():
    return CurveParams(q=17, a=2, b=2, base=ECPoint(5, 1))


def affine_points(curve):
    return [ECPoint(x, y) for x in range(curve.q) for y in range(curve.q)
            if (y * y - (x ** 3 + curve.a * x + curve.b)) % curve.q == 0]


def test_curve_validation():
    with pytest.raises(ValueError):
        CurveParams(q=4, a=1, b=1, base=ECPoint(0, 1))
    with pytest.raises(ValueError):
        CurveParams(q=3, a=1, b=1, base=ECPoint(0, 1))
    with pytest.raises(ValueError):
        CurveParams(q=65537, a=1, b=1, base=ECPoint(0, 1))
    with pytest.raises(ValueError):
        CurveParams(q=17, a=17, b=2, base=ECPoint(5, 1))
    with pytest.raises(ValueError):
        CurveParams(q=5, a=0, b=0, base=ECPoint(0, 0))  # singular
    with pytest.raises(ValueError):
        CurveParams(q=17, a=2, b=2, base=ECPoint(5, 2))  # off curve
    with pytest.raises(ValueError):
        CurveParams(q=17, a=2, b=2, base=INFINITY)


def test_curve_point_census(f17):
    pts = affine_points(f17)
    assert len(pts) == 18
    assert count_points(f17) == 19
    # Hasse: |#E - (q + 1)| <= 2 sqrt(q)
    assert (19 - 17 - 1) ** 2 <= 4 * 17


def test_group_law_exhaustive(f17):
    pts = affine_points(f17) + [INFINITY]
    for p1 in pts:
        assert ec_add(f17, p1, INFINITY) == p1
        assert ec_add(f17, INFINITY, p1) == p1
        assert ec_add(f17, p1, ec_neg(f17, p1)) == INFINITY
        for p2 in pts:
            s = ec_add(f17, p1, p2)
            assert f17.contains(s)
            assert s == ec_add(f17, p2, p1)


def test_group_law_associative(f17):
    pts = affine_points(f17) + [INFINITY]
    rng = random.Random(4)
    for _ in range(300):
        p1, p2, p3 = (rng.choice(pts) for _ in range(3))
        assert ec_add(f17, ec_add(f17, p1, p2), p3) \
            == ec_add(f17, p1, ec_add(f17, p2, p3))


def test_off_curve_points_rejected(f17):
    bad = ECPoint(5, 2)
    with pytest.raises(ValueError):
        ec_add(f17, bad, f17.base)
    with pytest.raises(ValueError):
        ec_neg(f17, bad)
    with pytest.raises(ValueError):
        ec_scalar_mul(f17, 2, bad)


def test_scalar_multiplication(f17):
    P = f17.base
    assert ec_scalar_mul(f17, 0, P) == INFINITY
    assert ec_scalar_mul(f17, 1, P) == P
    assert ec_scalar_mul(f17, 19, P) == INFINITY
    acc = INFINITY
    for k in range(1, 20):
        acc = ec_add(f17, acc, P)
        assert ec_scalar_mul(f17, k, P) == acc
    multiples = {str(ec_scalar_mul(f17, k, P)) for k in range(1, 19)}
    assert len(multiples) == 18
    with pytest.raises(ValueError):
        ec_scalar_mul(f17, -1, P)


def test_subgroup_order(f17):
    assert f17.subgroup_order == 19  # prime group: every point generates
    other = CurveParams(q=17, a=2, b=2, base=ECPoint(0, 6))
    assert other.subgroup_order == 19


def test_encode_point(f17):
    assert f17.coord_width == 5
    assert encode_point(f17, ECPoint(5, 1)) == BitVec(5 | (1 << 5), 10)
    with pytest.raises(ValueError):
        encode_point(f17, INFINITY)


def test_reduce_multiplier():
    assert reduce_exponent(0, 19) == 18
    assert reduce_exponent(1, 19) == 1
    assert reduce_exponent(18, 19) == 18
    assert reduce_exponent(19, 19) == 1
    assert reduce_exponent(20, 19) == 2


def test_ecdlp_map(f17):
    F = ecdlp_map(f17)
    assert (F.in_width, F.out_width) == (5, 10)
    for v in range(32):
        out = F(BitVec(v, 5))
        point = ECPoint(out.value & 31, out.value >> 5)
        assert f17.contains(point) and not point.is_infinity
        k = reduce_exponent(v, 19)
        assert point == ec_scalar_mul(f17, k, f17.base)


def test_ecdlp_map_matches_scalar_multiplication_on_every_input(f17):
    """The table lookup against double-and-add, on the shipped curve and
    on one whose base order 135 = 27 * 5 sits in the hundreds."""
    big = CurveParams(q=263, a=2, b=3, base=ECPoint(0, 23))
    assert big.subgroup_order == 135
    assert ec_scalar_mul(big, 135, big.base).is_infinity
    assert not any(ec_scalar_mul(big, 135 // p, big.base).is_infinity
                   for p in (3, 5))
    for curve in (f17, big):
        n_p = curve.subgroup_order
        assert len(curve.multiples) == n_p - 1
        F = ecdlp_map(curve)
        assert F.in_width == n_p.bit_length()
        for v in range(1 << F.in_width):
            expect = ec_scalar_mul(curve, reduce_exponent(v, n_p), curve.base)
            assert F(BitVec(v, F.in_width)) == encode_point(curve, expect), v
        assert F.evals == 1 << F.in_width


def test_ecdlp_map_rejects_tiny_subgroups():
    # (1, 0) has y = 0, so it is its own negative: order 2
    curve = CurveParams(q=5, a=1, b=3, base=ECPoint(1, 0))
    assert curve.subgroup_order == 2
    assert curve.multiples == (encode_point(curve, curve.base).value,)
    with pytest.raises(ValueError, match="^base point order must be at least 3$"):
        ecdlp_map(curve)


def test_hasse_bound_stops_a_walk_that_never_closes(monkeypatch):
    """A group law that never reaches the identity ends the walk after
    q + 1 + 2 isqrt(q) additions, for subgroup_order and ecdlp_map alike."""
    calls = []

    def stuck(curve, p1, p2):
        calls.append(p1)
        return p1

    monkeypatch.setattr(ec, "ec_add", stuck)
    for build in (lambda c: c.subgroup_order, ecdlp_map):
        calls.clear()
        curve = CurveParams(q=17, a=2, b=2, base=ECPoint(5, 1))
        with pytest.raises(ValueError,
                           match="^base point order exceeds the Hasse bound$"):
            build(curve)
        assert len(calls) == 17 + 1 + 2 * 4


# ------------------------------------------------------------------ registry

SHIPPED = ["dlp-p11", "ecdlp-f17", "identity16", "rsa-cca", "rsa-demo",
           "spn-kpa", "stream"]


def test_list_targets():
    assert list_targets() == SHIPPED


def test_load_shipped_targets():
    for name in SHIPPED:
        F = load_target(name).fresh_map()
        assert F.in_width >= 1 and F.out_width >= F.in_width
    rsa = load_target("rsa-demo")
    assert rsa.family == "rsa" and rsa.params.n == 15
    assert rsa.fresh_map().label == "rsa-enc(n=15,e=3)"
    stream = load_target("stream")
    assert (stream.fresh_map().in_width, stream.fresh_map().out_width) == (16, 20)
    ec = load_target("ecdlp-f17")
    assert (ec.fresh_map().in_width, ec.fresh_map().out_width) == (5, 10)


def test_fresh_maps_have_independent_counters():
    target = load_target("identity16")
    a, b = target.fresh_map(), target.fresh_map()
    a(BitVec(1, 16))
    assert a.evals == 1 and b.evals == 0


def test_load_target_by_path(tmp_path):
    cfg = tmp_path / "tiny.json"
    cfg.write_text(json.dumps({"family": "identity", "width": 5}))
    target = load_target(str(cfg))
    assert target.fresh_map().in_width == 5


def test_load_target_errors(tmp_path):
    with pytest.raises(ValueError, match="shipped targets"):
        load_target("does-not-exist")
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]")
    with pytest.raises(ValueError, match="JSON object"):
        load_target(str(bad))


def test_build_target_errors():
    with pytest.raises(ValueError, match="unknown family"):
        build_target({"family": "nope"})
    with pytest.raises(ValueError, match="unknown family"):
        build_target({})
    with pytest.raises(ValueError, match="lacks key"):
        build_target({"family": "rsa", "p": 3, "q": 5})
    with pytest.raises(ValueError):
        build_target({"family": "identity", "width": True})


@pytest.mark.parametrize("name, key, value", [
    ("rsa-demo", "p", (1 << 61) - 1),
    ("rsa-demo", "q", (1 << 61) - 1),
    ("rsa-cca", "p", (1 << 61) - 1),
    ("dlp-p11", "p", (1 << 61) - 1),
    ("ecdlp-f17", "q", (1 << 61) - 1),
    ("stream", "feedback", "0x80000000000000000000000000000003"),  # X^127+X+1
])
def test_oversized_configs_fail_before_trial_division(name, key, value):
    # each value is prime or primitive, so only a size check rejects it fast
    with pytest.raises(ValueError, match="must stay"):
        build_target({**load_target(name).config, key: value})


def test_config_numbers_parse_hex_strings():
    target = build_target({"family": "dlp", "p": "0xb", "base": "0x2"})
    assert target.params.p == 11
    assert load_target("spn-kpa").config["demo_key"] == "0x0073"
