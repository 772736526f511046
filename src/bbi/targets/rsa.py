"""Toy RSA maps: encryption as a map on message space, and the
chosen-ciphertext exponent map.

Both maps act on bit vectors of width l = bitlen(n).  For the
encryption map, inputs at or above n are reduced mod n before
exponentiation, so the map is total on the bit domain.  For the
chosen-ciphertext map the input is the exponent itself: F(x) = c^x mod n
(which only depends on x modulo the order of c).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from ..engine import BlackBoxMap
from ..gf2 import BitVec
from .arith import MODULUS_LIMIT, is_prime


@dataclass(frozen=True)
class RsaParams:
    p: int
    q: int
    e: int

    def __post_init__(self):
        if max(self.p, self.q, self.p * self.q) >= MODULUS_LIMIT:
            raise ValueError(f"modulus must stay below {MODULUS_LIMIT}")
        if not (is_prime(self.p) and is_prime(self.q)):
            raise ValueError("p and q must be prime")
        if self.p == self.q:
            raise ValueError("p and q must differ")
        if self.e < 2 or gcd(self.e, self.phi) != 1:
            raise ValueError("e must be >= 2 and coprime to phi(n)")

    @property
    def n(self) -> int:
        return self.p * self.q

    @property
    def phi(self) -> int:
        return (self.p - 1) * (self.q - 1)

    @property
    def width(self) -> int:
        return self.n.bit_length()

    def private_exponent(self) -> int:
        """d with e*d = 1 mod phi(n); the toy keeps its factors, so tests
        and demos can narrate the private side."""
        return pow(self.e, -1, self.phi)


def enc_map(params: RsaParams) -> BlackBoxMap:
    """x -> (x mod n)^e mod n on width bitlen(n)."""
    n, e, w = params.n, params.e, params.width
    return BlackBoxMap(lambda x: BitVec(pow(x.value % n, e, n), w), w,
                       label=f"rsa-enc(n={n},e={e})")


def cca_map(params: RsaParams, c: int) -> BlackBoxMap:
    """x -> c^x mod n on width bitlen(n); c must be a unit mod n."""
    n, w = params.n, params.width
    cv = int(c) % n
    if gcd(cv, n) != 1:
        raise ValueError("c must be coprime to n")
    return BlackBoxMap(lambda x: BitVec(pow(cv, x.value, n), w), w,
                       label=f"rsa-cca(n={n},c={cv})")
