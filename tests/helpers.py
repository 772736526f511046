"""Code that only the tests need: BitVec and polynomial builders, a
modular-integer type, small maps and checks over the engine's types, the
orbit walk that keeps its terms and the closed-form full-period oracle,
Massey's Berlekamp-Massey written out with its discrepancy, a Hankel
scan that decides windows and measures their rank profile, the
inversion formula one coefficient at a time, the per-call
exhaustive scan and window walk and the rotate-per-round SPN that the
fast oracle, window and cipher must reproduce, inverse operations of the
targets, and the clocked per-bit keystream that the stream cipher's
tables must reproduce."""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass

from bbi.engine import (RANK_DEFICIENT, SATURATED, UNIQUE, BlackBoxMap,
                        GrowingWindow, _projections)
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
    return divmod(a * b, mod)[1]


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


def per_call_generate(F: BlackBoxMap, y: BitVec, M: int) -> GrowingWindow:
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
    return GrowingWindow(tuple(terms), y.width)


def per_coefficient_invert(seq: GrowingWindow, mp: Gf2Poly) -> BitVec:
    """The inversion formula read one coefficient a_i of mp at a time:
    terms[m-1] plus terms[i-1] for each i in 1..m-1 with a_i = 1."""
    m = mp.degree
    v = seq.terms[m - 1]
    for i in range(1, m):
        if (mp.bits >> i) & 1:
            v ^= seq.terms[i - 1]
    return BitVec(v, seq.width)


def verify_sequence(seq: GrowingWindow, F: BlackBoxMap) -> bool:
    """Re-check terms[t+1] == F(terms[t]) with fresh evaluations."""
    return all(F(BitVec(seq.terms[t], seq.width)).value == seq.terms[t + 1]
               for t in range(len(seq.terms) - 1))


def window_count(F: BlackBoxMap) -> int:
    if F.out_width <= F.in_width:
        raise ValueError("map output is not wider than its input")
    return F.out_width - F.in_width + 1


def table_map(table: list[int], width: int) -> BlackBoxMap:
    """x -> table[x] on width bits."""
    return BlackBoxMap(lambda x: BitVec(table[x.value], width), width)


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


def stored_orbit(F: BlackBoxMap, y: BitVec) -> tuple[int, int, tuple[BitVec, ...]]:
    """(preperiod r, period N, terms y, F(y), ..., F^(r+N-1)(y)) from one
    orbit_profile walk, so terms[r:] is exactly one trip around the cycle.

    The walk's first hare steps through F(y), F^2(y), ... and stops at
    or past term r + N: at its return to y, term N, when r = 0, and
    otherwise at its meeting with the tortoise, which waits at a term
    >= r.  So recording the outputs of F costs no evaluation beyond
    orbit_profile's own, and F's budget bounds it.
    """
    outputs = []

    def record(x: BitVec) -> BitVec:
        out = F(x)
        outputs.append(out)
        return out

    prof = orbit_profile(BlackBoxMap(record, F.in_width), y)
    r, N = prof.preperiod, prof.period
    return r, N, (y, *outputs[:r + N - 1])


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
    r, N, cycle = stored_orbit(F, y)
    if r != 0:
        raise ValueError(f"seed has preperiod {r}, not purely periodic")
    if N > FULL_PERIOD_LIMIT:
        raise ValueError(f"period {N} exceeds limit {FULL_PERIOD_LIMIT}")
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


def massey_scalar(s: list[int]) -> tuple[list[int], int]:
    """Berlekamp-Massey as Massey (1969) states it, on bits s_0 .. s_{N-1}:
    the connection polynomial C as its coefficients c_0 = 1, c_1, ...,
    and the linear complexity L, so that s_t = sum c_i s_{t-i}, i = 1..L,
    for every t >= L."""
    C, B = [1], [1]  # B: C before the last length change
    L, m = 0, 1      # m: steps since that change
    for t, s_t in enumerate(s):
        d = s_t  # the discrepancy between s_t and C's prediction of it
        for i in range(1, L + 1):
            d ^= C[i] & s[t - i]
        if d == 0:
            m += 1
            continue
        T = C[:]
        C += [0] * (len(B) + m - len(C))
        for i, b in enumerate(B):  # C(X) -= X^m B(X)
            C[i + m] ^= b
        if 2 * L <= t:
            L, B, m = t + 1 - L, T, 1
        else:
            m += 1
    return (C + [0] * (L + 1))[:L + 1], L


def massey_minpoly(terms, width: int) -> Gf2Poly:
    """Minimal polynomial of a window of `width`-bit ints: X^L C(1/X) from
    massey_scalar per bit component, then their lcm.  Zero components
    contribute nothing; the all-zero window gets X+1, the engine's
    convention."""
    result = ONE
    for b in range(width):
        comp = [(v >> b) & 1 for v in terms]
        if any(comp):
            C, L = massey_scalar(comp)
            result = lcm(result, Gf2Poly(sum(c << (L - i) for i, c in enumerate(C))))
    return Gf2Poly(0b11) if result.degree < 1 else result


def minimal_polynomial_lowbit(seq: GrowingWindow) -> tuple:
    """Reference for `minimal_polynomial` and its status: a Hankel scan
    that decides windows itself, with row r of a column at bit r and each
    pivot found as the lowest set bit.  Returns (minpoly, status,
    profile), the profile (k, rank H(k)) for k = 1 .. deg minpoly on a
    solved window and k = 1 .. floor(M/2) otherwise."""
    M = len(seq.terms)
    n = seq.width
    # term t at bits t*n .. t*n + n-1, packed here rather than by the
    # engine's GrowingWindow
    packed = int("".join(format(t, f"0{n}b") for t in reversed(seq.terms)), 2)
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


def structured_terms(kind: str, n: int, M: int, p: int, rng) -> list[int]:
    """M terms of width n drawn from rng: "random" ones, a "cycle" of p
    random values, the orbit of a random "recurrence" of order p on
    random vectors, a "late-jump": the cycle with one bit flipped in its
    last 100 terms, so that L jumps late, to about the flip, or "noise":
    the cycle plus random bits along one vector v != 0 orthogonal to the
    engine's first projection u_0, so that u_0 sees only the cycle and
    the noise is left to its residual.  u_0 has its lowest set bit at 0,
    which v's bit 0 sets orthogonal; at width 1 no such v exists, and v
    is 0."""
    if kind == "random":
        return [rng.getrandbits(n) for _ in range(M)]
    terms = [rng.getrandbits(n) for _ in range(p)]
    taps = rng.getrandbits(p) | 1 if kind == "recurrence" else 1
    while len(terms) < M:
        v = 0
        for i in range(p):
            if taps >> i & 1:
                v ^= terms[-p + i]
        terms.append(v)
    terms = terms[:M]
    if kind == "late-jump":
        terms[rng.randint(max(0, M - 100), M - 1)] ^= 1 << rng.randrange(n)
    if kind == "noise":
        high = rng.randrange(1, 1 << (n - 1)) << 1 if n > 1 else 0
        v = high | ((_projections(n)[0] & high).bit_count() & 1)
        terms = [t ^ v if rng.getrandbits(1) else t for t in terms]
    return terms


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
