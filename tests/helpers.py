"""Code that only the tests need: BitVec and polynomial builders, a
modular-integer type, and small maps and checks over the engine's types."""

from __future__ import annotations

from dataclasses import dataclass

from bbi.engine import BlackBoxMap, RecurrenceSequence
from bbi.gf2 import BitVec, Gf2Poly


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


def verify_sequence(seq: RecurrenceSequence, F: BlackBoxMap) -> bool:
    """Re-check terms[t+1] == F(terms[t]) with fresh evaluations."""
    return all(F(seq.terms[t]) == seq.terms[t + 1]
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
