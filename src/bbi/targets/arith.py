"""Small-number arithmetic shared by the toy targets.

Everything is desk scale (moduli below 2^24), so trial division is
plenty for primality and factoring.
"""

from __future__ import annotations

from functools import cache

from ..gf2 import Gf2Poly, X, powmod

MODULUS_LIMIT = 1 << 24


def reduce_exponent(x: int, m: int) -> int:
    """Fold x into [1, m - 1]: ((x - 1) mod (m - 1)) + 1."""
    return (x - 1) % (m - 1) + 1


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors by trial division."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def is_primitive_root(a: int, p: int) -> bool:
    """Does a generate the multiplicative group mod prime p?"""
    if not 1 < a < p:
        return False
    return all(pow(a, (p - 1) // q, p) != 1 for q in prime_factors(p - 1))


@cache
def is_primitive_poly(p: Gf2Poly) -> bool:
    """Does X have order 2^deg - 1 mod p?  (Implies irreducibility.)"""
    d = p.degree
    if d < 1 or p.constant_term == 0:
        return False
    n = (1 << d) - 1
    if powmod(X, n, p) != Gf2Poly(1):
        return False
    return all(powmod(X, n // q, p) != Gf2Poly(1) for q in prime_factors(n))
