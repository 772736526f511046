"""Bit vectors, GF(2) polynomials, and modular integers."""

import copy
import pickle
import random
import weakref

import pytest
from hypothesis import given, strategies as st

from bbi.engine import local_inversion
from bbi.gf2 import ONE, X, ZERO, BitVec, Gf2Poly, gcd, lcm, order, powmod
from bbi.targets.arith import is_primitive_poly

from helpers import (IntMod, concat, mulmod, poly_from_coeffs,
                     poly_from_terms, reciprocal, rotl, times_x_mod)


def test_bitvec_construction_bounds():
    v = BitVec(0b1011, 4)
    assert v.value == 11 and v.width == 4
    with pytest.raises(ValueError):
        BitVec(16, 4)  # does not fit
    with pytest.raises(ValueError):
        BitVec(-1, 4)
    with pytest.raises(ValueError):
        BitVec(0, 0)


def test_bitvec_construction_messages():
    with pytest.raises(ValueError, match="^width must be >= 1$"):
        BitVec(0, 0)
    with pytest.raises(ValueError, match="^width must be >= 1$"):
        BitVec(1, -3)
    with pytest.raises(ValueError, match="^value 0x10 does not fit width 4$"):
        BitVec(16, 4)
    with pytest.raises(ValueError, match="^value -0x1 does not fit width 4$"):
        BitVec(-1, 4)


def test_bitvec_is_immutable():
    v = BitVec(5, 4)
    for name in ("value", "width", "extra"):
        with pytest.raises(AttributeError):
            setattr(v, name, 1)
        with pytest.raises(AttributeError):
            delattr(v, name)
    assert (v.value, v.width) == (5, 4)


def test_bitvec_is_seen_only_through_a_strong_reference():
    """No weak reference and no __dict__: the exhaustive scan reuses an
    input that only it references, which nothing else can then see."""
    v = BitVec(1, 1)
    with pytest.raises(TypeError):
        weakref.ref(v)
    assert not hasattr(v, "__dict__")


def test_bitvec_equality_and_hash_use_value_and_width_only():
    v = BitVec(5, 4)
    assert v == BitVec(5, 4) and not v != BitVec(5, 4)
    assert hash(v) == hash(BitVec(5, 4))
    assert v != BitVec(5, 5) and v != BitVec(4, 4)
    assert v != (5, 4) and v != 5 and v != "0x5" and v != None  # noqa: E711
    assert (5, 4) != v and 5 != v
    table = {BitVec(5, 4): "a", BitVec(5, 5): "b", (5, 4): "tuple", 5: "int"}
    assert len(table) == 4
    assert table[BitVec(5, 4)] == "a" and table[BitVec(5, 5)] == "b"
    assert len({BitVec(v, 3) for v in [1, 1, 2]}) == 2


def test_bitvec_repr_copy_and_pickle():
    v = BitVec(11, 4)
    assert repr(v) == "BitVec(value=11, width=4)"
    for w in (copy.copy(v), copy.deepcopy(v), pickle.loads(pickle.dumps(v))):
        assert w == v and type(w) is BitVec


@pytest.mark.parametrize("op", [
    lambda: BitVec(1, 4) ^ 3,
    lambda: 3 ^ BitVec(1, 4),
    lambda: Gf2Poly(3) + 2,
    lambda: 2 + Gf2Poly(3),
    lambda: Gf2Poly(3) - 2,
    lambda: 2 - Gf2Poly(3),
    lambda: Gf2Poly(3) * 2,
    lambda: 2 * Gf2Poly(3),
    lambda: divmod(Gf2Poly(3), 2),
    lambda: divmod(2, Gf2Poly(3)),
    lambda: Gf2Poly(3) % 2,
    lambda: 2 % Gf2Poly(3),
    lambda: Gf2Poly(3) // 2,
    lambda: 2 // Gf2Poly(3),
    lambda: BitVec(3, 2) ^ Gf2Poly(3),
    lambda: Gf2Poly(3) * BitVec(3, 2),
])
def test_foreign_operand_raises_type_error(op):
    with pytest.raises(TypeError):
        op()


def test_bitvec_concat_low_first():
    lo = BitVec(0b101, 3)
    hi = BitVec(0b01, 2)
    cat = concat(lo, hi)
    assert cat == BitVec(0b01101, 5)
    assert cat.value & 0b111 == lo.value and cat.value >> 3 == hi.value


def test_bitvec_rotl():
    v = BitVec(0b110, 3)
    assert rotl(v, 1) == BitVec(0b101, 3)
    assert rotl(v, 3) == v
    assert rotl(v, 4) == rotl(v, 1)


def test_bitvec_rendering():
    v = BitVec(0xBE, 8)
    assert v.hex() == "0xbe"
    assert str(v) == "10111110"  # MSB first
    assert BitVec(1, 12).hex() == "0x001"
    assert v.value == 0xBE


def test_poly_builders_and_accessors():
    p = Gf2Poly(0b1011)  # X^3 + X + 1
    assert p.degree == 3 and p.constant_term == 1
    assert poly_from_coeffs([1, 1, 0, 1]) == p
    assert poly_from_terms([3, 1, 0]) == p
    assert ZERO.is_zero and ZERO.degree == -1
    assert str(p) == "X^3 + X + 1"
    assert str(ZERO) == "0"
    with pytest.raises(ValueError):
        Gf2Poly(-1)


def test_poly_mul():
    # (X + 1)(X + 1) = X^2 + 1 in characteristic 2
    assert Gf2Poly(0b11) * Gf2Poly(0b11) == Gf2Poly(0b101)
    assert Gf2Poly(0b111) * X == Gf2Poly(0b1110)
    assert ONE * Gf2Poly(0b1011) == Gf2Poly(0b1011)
    assert ZERO * Gf2Poly(0b1011) == ZERO


def test_poly_divmod_identity_exhaustive():
    # a == q*b + r with deg r < deg b, over all small pairs
    for ab in range(64):
        for bb in range(1, 16):
            a, b = Gf2Poly(ab), Gf2Poly(bb)
            q, r = divmod(a, b)
            assert (q * b).bits ^ r.bits == a.bits
            assert r.degree < b.degree
            assert a // b == q and a % b == r
    with pytest.raises(ZeroDivisionError):
        divmod(ONE, ZERO)


def test_poly_reciprocal():
    assert reciprocal(Gf2Poly(0b1011)) == Gf2Poly(0b1101)
    assert reciprocal(Gf2Poly(0b101)) == Gf2Poly(0b101)
    assert reciprocal(ZERO) == ZERO
    # X^2 + X reverses onto degree 1: trailing zeros drop out
    assert reciprocal(Gf2Poly(0b110)) == Gf2Poly(0b11)


def test_gcd_lcm_basics():
    a = Gf2Poly(0b11) * Gf2Poly(0b111)   # (X+1)(X^2+X+1) = X^3+1
    b = Gf2Poly(0b11) * Gf2Poly(0b1011)
    assert gcd(a, b) == Gf2Poly(0b11)
    assert lcm(a, b) == Gf2Poly(0b11) * Gf2Poly(0b111) * Gf2Poly(0b1011)
    assert gcd(a, ZERO) == a
    assert lcm(a, ZERO) == ZERO
    with pytest.raises(ValueError):
        gcd(ZERO, ZERO)
    with pytest.raises(ValueError):
        lcm(ZERO, ZERO)


def test_gcd_lcm_product_property():
    rng = random.Random(7)
    for _ in range(200):
        a = Gf2Poly(rng.randrange(1, 1 << 10))
        b = Gf2Poly(rng.randrange(1, 1 << 10))
        g, l = gcd(a, b), lcm(a, b)
        assert g * l == a * b
        assert a % g == ZERO and b % g == ZERO
        assert l % a == ZERO and l % b == ZERO


def schoolbook(a: int, b: int) -> int:
    """Carry-less product of coefficient masks, one row per bit of a."""
    acc = 0
    for i in range(a.bit_length()):
        if (a >> i) & 1:
            acc ^= b << i
    return acc


def dense_poly(rng: random.Random, lo: int, hi: int) -> int:
    d = rng.randint(lo, hi)
    return rng.getrandbits(d) | (1 << d) | 1


@pytest.mark.parametrize("seed", range(6))
def test_lcm_at_solver_degrees(seed):
    # degrees 300 .. 1100 with a shared factor, as the solver's lcms have
    rng = random.Random(seed)
    g = dense_poly(rng, 1, 400)
    a = Gf2Poly(schoolbook(g, dense_poly(rng, 300, 700)))
    b = Gf2Poly(schoolbook(g, dense_poly(rng, 300, 700)))
    l = lcm(a, b)
    assert l == lcm(b, a)
    assert l == Gf2Poly(schoolbook(a.bits, b.bits)) // gcd(a, b)
    assert l % a == ZERO and l % b == ZERO
    f = Gf2Poly(dense_poly(rng, 300, 400))
    af = Gf2Poly(schoolbook(a.bits, f.bits))
    assert lcm(a, af) == af
    assert lcm(af, a) == af


@pytest.mark.parametrize("seed", range(4))
def test_mul_loops_over_either_operand(seed):
    rng = random.Random(seed)
    big = Gf2Poly(rng.getrandbits(999) | (1 << 999))
    assert big.bits.bit_length() == 1000
    assert ONE * big == big * ONE == big
    for short in (X, Gf2Poly(dense_poly(rng, 2, 60)), Gf2Poly(dense_poly(rng, 300, 1100))):
        want = Gf2Poly(schoolbook(short.bits, big.bits))
        assert short * big == want
        assert big * short == want


def test_powmod():
    mod = Gf2Poly(0b10011)  # X^4 + X + 1
    assert powmod(X, 15, mod) == ONE
    assert powmod(X, 5, mod) == (X * X * X * X * X) % mod
    assert powmod(X, 0, mod) == ONE
    with pytest.raises(ValueError):
        powmod(X, -1, mod)
    with pytest.raises(ValueError):
        powmod(X, 3, ONE)


@given(st.integers(0, 1 << 80), st.integers(0, 200),
       st.integers(1, 40).flatmap(lambda d: st.integers(1 << d, (2 << d) - 1)))
def test_powmod_matches_repeated_multiplication(a, e, mod):
    # moduli of degree 1 .. 40, bases wider than the modulus
    a, mod = Gf2Poly(a), Gf2Poly(mod)
    acc = ONE % mod
    for _ in range(e):
        acc = (acc * a) % mod
    assert powmod(a, e, mod) == acc


def test_mulmod():
    mod = Gf2Poly(0b10011)
    a, b = Gf2Poly(0b1101), Gf2Poly(0b1010)
    assert mulmod(a, b, mod) == (a * b) % mod
    with pytest.raises(ZeroDivisionError):
        mulmod(a, b, ZERO)


def test_order_known_values():
    assert order(Gf2Poly(0b11)) == 1          # X + 1
    assert order(Gf2Poly(0b111)) == 3         # X^2 + X + 1
    assert order(Gf2Poly(0b10011)) == 15      # X^4 + X + 1, primitive
    assert order(Gf2Poly(0b100101)) == 31     # X^5 + X^2 + 1, primitive
    # (X+1)(X^2+X+1) = X^3 + 1 has order lcm(1, 3) = 3
    assert order(Gf2Poly(0b1001)) == 3


def test_order_preconditions_and_bound():
    with pytest.raises(ValueError):
        order(X)  # zero constant term
    with pytest.raises(ValueError):
        order(ONE)
    with pytest.raises(ValueError):
        order(Gf2Poly(0b11), bound=0)
    assert order(Gf2Poly(0b10011), bound=14) is None
    assert order(Gf2Poly(0b10011), bound=15) == 15


def _order_walk(p: Gf2Poly, bound: int) -> int | None:
    """Reference for `order`: walk X^1, X^2, ... mod p by shift-and-reduce."""
    m, d, x = p.bits, p.degree, 1
    for n in range(1, bound + 1):
        x <<= 1
        if (x >> d) & 1:
            x ^= m
        if x == 1:
            return n
    return None


def test_order_matches_walk_for_every_poly_up_to_degree_10():
    for d in range(1, 11):
        for bits in range(1 << d | 1, 1 << (d + 1), 2):
            p = Gf2Poly(bits)
            full = _order_walk(p, 1 << d)  # X is a unit, so ord < 2^d
            for bound in {1, max(full - 1, 1), full, 1 << d}:
                assert order(p, bound) == _order_walk(p, bound), (bits, bound)


def test_order_matches_walk_on_random_polys_of_degree_11_to_20():
    rng = random.Random(2207)
    for _ in range(300):
        d = rng.randint(11, 20)
        p = Gf2Poly(1 << d | rng.getrandbits(d - 1) << 1 | 1)
        bound = rng.randrange(1, 1 << rng.randint(1, d))  # log-uniform
        assert order(p, bound) == _order_walk(p, bound), (p.bits, bound)


# X^24 + X^7 + X^2 + X + 1, X^16 + X^5 + X^3 + X^2 + 1, X^8 + X^4 + X^3 + X^2 + 1
Q24, Q16, Q8 = Gf2Poly(0x1000087), Gf2Poly(0x1002D), Gf2Poly(0x11D)


def test_order_capped_at_degree_24():
    assert is_primitive_poly(Q24)  # order 2^24 - 1, beyond the default cap
    assert order(Q24) is None
    assert _order_walk(Q24, 1 << 20) is None


def test_order_found_between_2_10_and_2_20_at_degree_24():
    p = Q16 * Q8  # order lcm(2^16 - 1, 2^8 - 1) = 65535
    assert p.degree == 24
    n = order(p)
    assert n == _order_walk(p, 1 << 20) == 65535


def test_local_inversion_period_estimate_at_degree_64():
    # F multiplies by X mod P = Q16^4 on 64-bit residues: a linear map
    # whose orbit of y = 1 has minimal polynomial P, of order
    # (2^16 - 1) * 4 = 262140.
    P = Q16 * Q16 * Q16 * Q16
    assert P.degree == 64
    y = BitVec(1, 64)
    F = times_x_mod(P)
    report = local_inversion(F, y)
    assert report.solved and F.fn(report.x) == y
    assert report.minpoly == P
    assert report.period_estimate == _order_walk(P, 1 << 20) == 262140


def _is_irreducible(p: Gf2Poly) -> bool:
    # trial division by every lower-degree polynomial
    for db in range(2, 1 << p.degree):
        if p % Gf2Poly(db) == ZERO:
            return False
    return p.degree >= 1


def test_order_divides_field_order_for_all_small_irreducibles():
    # X^N = 1 mod p forces N | 2^d - 1 when p is irreducible of degree d
    for d in range(1, 9):
        group = (1 << d) - 1
        for bits in range(1 << d | 1, 1 << (d + 1), 2):
            p = Gf2Poly(bits)
            if not _is_irreducible(p):
                continue
            n = order(p)
            assert n is not None and group % n == 0
            assert powmod(X, n, p) == ONE


def test_intmod_arithmetic():
    a = IntMod(8, 11)
    b = IntMod(25, 11)  # reduces to 3
    assert b.value == 3
    assert (a + b).value == 0
    assert (a - b).value == 5
    assert (a * b).value == 2
    assert a.pow(10).value == 1  # Fermat
    assert (a * a.inverse()).value == 1
    assert int(a) == 8
    with pytest.raises(ValueError):
        a + IntMod(1, 7)
    with pytest.raises(ValueError):
        IntMod(0, 1)
