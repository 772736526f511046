"""Affine elliptic-curve arithmetic over a small prime field.

Curves are short Weierstrass, y^2 = x^3 + Ax + B over F_q, q an odd
prime greater than 4.  Points are affine pairs or the identity.  The
scalar-multiplication map widens to a bit-string map in ecdlp_map: an
r-bit input (r = bit length of the base-point order n_P) reduces to a
multiplier k = ((x - 1) mod (n_P - 1)) + 1 in [1, n_P - 1], keeping the
map total while never hitting the identity, which has no affine
encoding.  Outputs pack the x coordinate into the low bits and the y
coordinate above it, coord_width bits each, so the output is wider than
the input and the map inverts through sliding projection windows.

The walk P, [2]P, [3]P, ... that finds n_P keeps the encodings of
[1]P .. [n_P - 1]P as ints, so one evaluation of the map is one table
index; ec_scalar_mul stays as the independent double-and-add reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import isqrt
from typing import Optional

from ..engine import BlackBoxMap
from ..gf2 import BitVec
from .arith import is_prime, reduce_exponent

FIELD_LIMIT = 1 << 16


@dataclass(frozen=True)
class ECPoint:
    x: Optional[int] = None
    y: Optional[int] = None

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    def __str__(self) -> str:
        return "O" if self.is_infinity else f"({self.x},{self.y})"


INFINITY = ECPoint()


@dataclass(frozen=True)
class CurveParams:
    q: int
    a: int
    b: int
    base: ECPoint

    def __post_init__(self):
        if self.q >= FIELD_LIMIT:
            raise ValueError(f"q must stay below {FIELD_LIMIT}")
        if not is_prime(self.q) or self.q < 5:
            raise ValueError("q must be a prime greater than 4")
        if not (0 <= self.a < self.q and 0 <= self.b < self.q):
            raise ValueError("curve coefficients must be reduced mod q")
        if (4 * self.a ** 3 + 27 * self.b ** 2) % self.q == 0:
            raise ValueError("singular curve")
        if self.base.is_infinity or not self.contains(self.base):
            raise ValueError("base point must be an affine point on the curve")

    def contains(self, point: ECPoint) -> bool:
        """Whether the point satisfies the curve equation (identity counts)."""
        if point.is_infinity:
            return True
        x, y = point.x, point.y
        if not (0 <= x < self.q and 0 <= y < self.q):
            return False
        return (y * y - (x * x * x + self.a * x + self.b)) % self.q == 0

    @cached_property
    def multiples(self) -> tuple[int, ...]:
        """Encodings x | y << coord_width of [1]P .. [n_P - 1]P, found by
        walking the multiples of the base point up to the identity."""
        bound = self.q + 1 + 2 * isqrt(self.q)
        c = self.coord_width
        acc, encoded = self.base, []
        while not acc.is_infinity:
            encoded.append(acc.x | (acc.y << c))
            acc = ec_add(self, acc, self.base)
            if len(encoded) + 1 > bound:  # acc is [len + 1]P
                raise ValueError("base point order exceeds the Hasse bound")
        return tuple(encoded)

    @property
    def subgroup_order(self) -> int:
        """Order n_P of the base point."""
        return len(self.multiples) + 1

    @property
    def coord_width(self) -> int:
        return (self.q - 1).bit_length()


def ec_add(curve: CurveParams, p1: ECPoint, p2: ECPoint) -> ECPoint:
    """Chord-tangent group law; off-curve points are rejected."""
    for pt in (p1, p2):
        if not curve.contains(pt):
            raise ValueError(f"point {pt} is not on the curve")
    if p1.is_infinity:
        return p2
    if p2.is_infinity:
        return p1
    q = curve.q
    if p1.x == p2.x and (p1.y + p2.y) % q == 0:
        return INFINITY
    if p1 == p2:
        slope = (3 * p1.x * p1.x + curve.a) * pow(2 * p1.y, -1, q) % q
    else:
        slope = (p2.y - p1.y) * pow(p2.x - p1.x, -1, q) % q
    x3 = (slope * slope - p1.x - p2.x) % q
    y3 = (slope * (p1.x - x3) - p1.y) % q
    return ECPoint(x3, y3)


def ec_scalar_mul(curve: CurveParams, k: int, point: ECPoint) -> ECPoint:
    """[k]point by double-and-add, k >= 0."""
    if k < 0:
        raise ValueError("multiplier must be nonnegative")
    if not curve.contains(point):
        raise ValueError(f"point {point} is not on the curve")
    acc, addend = INFINITY, point
    while k:
        if k & 1:
            acc = ec_add(curve, acc, addend)
        addend = ec_add(curve, addend, addend)
        k >>= 1
    return acc


def encode_point(curve: CurveParams, point: ECPoint) -> BitVec:
    """x coordinate in the low bits, y coordinate above it."""
    if point.is_infinity:
        raise ValueError("the identity has no affine encoding")
    c = curve.coord_width
    return BitVec(point.x | (point.y << c), 2 * c)


def ecdlp_map(curve: CurveParams) -> BlackBoxMap:
    """v -> encode_point([reduce_exponent(v, n_P)]P), read off the table
    of multiples."""
    n_p, table = curve.subgroup_order, curve.multiples
    if n_p < 3:
        raise ValueError("base point order must be at least 3")
    r = n_p.bit_length()
    l = 2 * curve.coord_width

    def fn(v: BitVec) -> BitVec:
        return BitVec(table[reduce_exponent(v.value, n_p) - 1], l)

    return BlackBoxMap(fn, r, out_width=l, label=f"ecdlp(q={curve.q})")
