"""Code that only the tests need: BitVec and polynomial builders, a
modular-integer type, small maps and checks over the engine's types, the
closed-form full-period oracle, the per-call exhaustive scan and window
walk and the rotate-per-round SPN that the fast oracle, window and
cipher must reproduce,
inverse operations of the targets, and the clocked per-bit keystream
that the stream cipher's tables must reproduce."""

from __future__ import annotations

from dataclasses import dataclass

from bbi.engine import BlackBoxMap, RecurrenceSequence
from bbi.gf2 import ONE, BitVec, Gf2Poly, gcd, lcm
from bbi.oracle import orbit_profile
from bbi.targets.ec import INFINITY, CurveParams, ECPoint
from bbi.targets.spn import _HI, _LO, PBOX, SBOX, ToySpn
from bbi.targets.stream import FilteredLfsr

FULL_PERIOD_LIMIT = 1 << 16


def concat(lo: BitVec, hi: BitVec) -> BitVec:
    """lo occupies the low indices, hi the high ones."""
    return BitVec(lo.value | (hi.value << lo.width), lo.width + hi.width)


def rotl(v: BitVec, k: int) -> BitVec:
    """Rotate left by k: bit i moves to bit (i + k) mod width."""
    n = v.width
    k %= n
    return BitVec(((v.value << k) | (v.value >> (n - k))) & ((1 << n) - 1), n)


def poly_from_coeffs(coeffs) -> Gf2Poly:
    """Coefficients lowest degree first."""
    v = 0
    for i, c in enumerate(coeffs):
        if c & 1:
            v |= 1 << i
    return Gf2Poly(v)


def poly_from_terms(degrees) -> Gf2Poly:
    v = 0
    for d in degrees:
        v ^= 1 << d
    return Gf2Poly(v)


def reciprocal(p: Gf2Poly) -> Gf2Poly:
    """X^deg * p(1/X): the coefficient sequence reversed."""
    if p.bits == 0:
        return p
    d = p.degree
    v = 0
    for i in range(d + 1):
        if (p.bits >> i) & 1:
            v |= 1 << (d - i)
    return Gf2Poly(v)


def mulmod(a: Gf2Poly, b: Gf2Poly, mod: Gf2Poly) -> Gf2Poly:
    if mod.is_zero:
        raise ZeroDivisionError("zero modulus")
    return (a * b) % mod


@dataclass(frozen=True)
class IntMod:
    """Integer fully reduced modulo a fixed modulus >= 2."""

    value: int
    modulus: int

    def __post_init__(self):
        if self.modulus < 2:
            raise ValueError("modulus must be >= 2")
        object.__setattr__(self, "value", self.value % self.modulus)

    def _check(self, other: "IntMod"):
        if self.modulus != other.modulus:
            raise ValueError("modulus mismatch")

    def __add__(self, other: "IntMod") -> "IntMod":
        self._check(other)
        return IntMod(self.value + other.value, self.modulus)

    def __sub__(self, other: "IntMod") -> "IntMod":
        self._check(other)
        return IntMod(self.value - other.value, self.modulus)

    def __mul__(self, other: "IntMod") -> "IntMod":
        self._check(other)
        return IntMod(self.value * other.value, self.modulus)

    def pow(self, e: int) -> "IntMod":
        return IntMod(pow(self.value, e, self.modulus), self.modulus)

    def inverse(self) -> "IntMod":
        return IntMod(pow(self.value, -1, self.modulus), self.modulus)

    def __int__(self) -> int:
        return self.value


def per_call_brute_force_invert(F: BlackBoxMap, y: BitVec) -> list[BitVec]:
    """All preimages of y, calling F once per input: the budget check,
    evaluation count and width check all come from BlackBoxMap.__call__."""
    return [x for x in (BitVec(v, F.in_width) for v in range(1 << F.in_width))
            if F(x).value == y.value]


def per_call_generate(F: BlackBoxMap, y: BitVec, M: int) -> RecurrenceSequence:
    """The first M terms of the feedback sequence, calling F once per term:
    the budget check, evaluation count and width checks all come from
    BlackBoxMap.__call__."""
    if M < 2:
        raise ValueError("window length M must be >= 2")
    if F.in_width != F.out_width:
        raise ValueError("feedback iteration needs matching in/out widths")
    x, terms = y, [y.value]
    for _ in range(M - 1):
        x = F(x)
        terms.append(x.value)
    return RecurrenceSequence(tuple(terms), y.width)


def verify_sequence(seq: RecurrenceSequence, F: BlackBoxMap) -> bool:
    """Re-check terms[t+1] == F(terms[t]) with fresh evaluations."""
    return all(F(BitVec(seq.terms[t], seq.width)).value == seq.terms[t + 1]
               for t in range(len(seq.terms) - 1))


def window_count(F: BlackBoxMap) -> int:
    if F.out_width <= F.in_width:
        raise ValueError("map output is not wider than its input")
    return F.out_width - F.in_width + 1


def not_map(width: int) -> BlackBoxMap:
    """Bitwise complement; an involution, so every orbit has period 2 or 1."""
    if width < 1:
        raise ValueError("width must be positive")
    mask = (1 << width) - 1
    return BlackBoxMap(lambda v: BitVec(v.value ^ mask, width), width,
                       label=f"not{width}")


def times_x_mod(P: Gf2Poly) -> BlackBoxMap:
    """Multiplication by X on residues mod P: a linear map whose orbit of
    y = 1 has minimal polynomial P."""
    d = P.degree

    def step(v: BitVec) -> BitVec:
        w = v.value << 1
        return BitVec(w ^ P.bits if w >> d else w, d)
    return BlackBoxMap(step, d)


def _periodic_component_minpoly(comp: int, N: int) -> Gf2Poly:
    """Minimal polynomial of the N-periodic scalar sequence with period
    block bits comp (bit t = s_t): reciprocal of (X^N+1)/gcd(s(X), X^N+1)."""
    xn1 = Gf2Poly((1 << N) | 1)
    g = gcd(Gf2Poly(comp), xn1)
    return reciprocal(xn1 // g)


def full_period_minpoly(F: BlackBoxMap, y: BitVec) -> tuple[Gf2Poly, int]:
    """Exact minimal polynomial of a purely periodic orbit, plus its period.

    Independent of the engine's linear algebra.  Requires preperiod 0 and
    period at most 2^16.  Works from one full period: per bit component
    the closed form above, then the lcm.  The result divides X^N + 1 by
    construction.  The all-zero orbit gets X+1, the engine's convention.
    """
    prof = orbit_profile(F, y, store=True)
    if prof.preperiod != 0:
        raise ValueError(f"seed has preperiod {prof.preperiod}, not purely periodic")
    N = prof.period
    if N > FULL_PERIOD_LIMIT:
        raise ValueError(f"period {N} exceeds limit {FULL_PERIOD_LIMIT}")
    cycle = prof.cycle
    n = y.width
    result = ONE
    for b in range(n):
        comp = 0
        for t in range(N):
            comp |= ((cycle[t].value >> b) & 1) << t
        if comp == 0:
            continue
        result = lcm(result, _periodic_component_minpoly(comp, N))
    if result.degree < 1:
        return Gf2Poly(0b11), N
    return result, N


def rotl16(v: int, k: int) -> int:
    """v rotated left by k within 16 bits, by shifting both ways."""
    k %= 16
    return ((v << k) | (v >> (16 - k))) & 0xFFFF


def reference_spn_encrypt(cipher: ToySpn, key: int, plaintext: int) -> int:
    """cipher.encrypt with each round key rotated from the key afresh."""
    state = plaintext & 0xFFFF
    for r in range(cipher.rounds):
        state ^= rotl16(key, r)
        state = _LO[state & 0xFF] | _HI[state >> 8]
    return state ^ rotl16(key, cipher.rounds)


def spn_decrypt(cipher: ToySpn, key: int, ciphertext: int) -> int:
    """Inverse of cipher.encrypt under the same key."""
    inv_sbox = [SBOX.index(i) for i in range(16)]
    inv_pbox = [PBOX.index(i) for i in range(16)]
    state = ciphertext ^ rotl16(key, cipher.rounds)
    for r in range(cipher.rounds - 1, -1, -1):
        perm = 0
        for i in range(16):
            if (state >> i) & 1:
                perm |= 1 << inv_pbox[i]
        state = 0
        for nib in range(4):
            state |= inv_sbox[(perm >> (4 * nib)) & 0xF] << (4 * nib)
        state ^= rotl16(key, r)
    return state


def clock(lfsr: FilteredLfsr, state: int) -> int:
    """One register step: shift down, feed the recurrence bit in at the top."""
    fb_mask = lfsr.feedback.bits & ((1 << lfsr.degree) - 1)
    new = (state & fb_mask).bit_count() & 1
    return (state >> 1) | (new << (lfsr.degree - 1))


def output_bit(lfsr: FilteredLfsr, state: int) -> int:
    """The filter read straight off the truth table, one tap at a time."""
    idx = 0
    for j, t in enumerate(lfsr.filter_taps):
        idx |= ((state >> t) & 1) << j
    return (lfsr.filter_table >> idx) & 1


def reference_keystream(lfsr: FilteredLfsr, key: int, count: int) -> int:
    """First `count` keystream bits, clocking the register bit by bit."""
    state = key | (lfsr.iv << lfsr.key_width)
    for _ in range(lfsr.warmup):
        state = clock(lfsr, state)
    out = 0
    for i in range(count):
        out |= output_bit(lfsr, state) << i
        state = clock(lfsr, state)
    return out


def ec_neg(curve: CurveParams, point: ECPoint) -> ECPoint:
    if not curve.contains(point):
        raise ValueError(f"point {point} is not on the curve")
    if point.is_infinity:
        return INFINITY
    return ECPoint(point.x, (-point.y) % curve.q)


def count_points(curve: CurveParams) -> int:
    """Exhaustive point count, identity included."""
    q = curve.q
    roots = [0] * q
    for y in range(q):
        roots[y * y % q] += 1
    total = 1
    for x in range(q):
        total += roots[(x * x % q * x + curve.a * x + curve.b) % q]
    return total
