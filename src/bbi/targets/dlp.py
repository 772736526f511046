"""Discrete-logarithm map over a prime field.

F sends an exponent to a power of a fixed primitive root:
F(x) = a^(r(x)) mod p with r(x) = ((x - 1) mod (p - 1)) + 1, so the
exponent always lands in [1, p-1] and the bit pattern 0 acts as p-1.
Restricted to [1, p-1] the map is a bijection onto the multiplicative
group, so every in-range seed lies on a cycle.  The reduction rule
matters: it decides which bit patterns share a preimage.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..engine import BlackBoxMap
from ..gf2 import BitVec
from .arith import MODULUS_LIMIT, is_prime, is_primitive_root, reduce_exponent


@dataclass(frozen=True)
class DlpParams:
    p: int
    base: int

    def __post_init__(self):
        if self.p >= MODULUS_LIMIT:
            raise ValueError(f"p must stay below {MODULUS_LIMIT}")
        if not is_prime(self.p) or self.p < 3:
            raise ValueError("p must be an odd prime")
        if not is_primitive_root(self.base, self.p):
            raise ValueError("base must generate the multiplicative group")

    @property
    def width(self) -> int:
        return self.p.bit_length()


def dlp_map(params: DlpParams) -> BlackBoxMap:
    p, a, w = params.p, params.base, params.width
    return BlackBoxMap(lambda x: BitVec(pow(a, reduce_exponent(x.value, p), p), w),
                       w, label=f"dlp(p={p},a={a})")
