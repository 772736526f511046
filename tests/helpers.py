"""BitVec operations that only the tests need."""

from bbi.gf2 import BitVec


def concat(lo: BitVec, hi: BitVec) -> BitVec:
    """lo occupies the low indices, hi the high ones."""
    return BitVec(lo.value | (hi.value << lo.width), lo.width + hi.width)


def rotl(v: BitVec, k: int) -> BitVec:
    """Rotate left by k: bit i moves to bit (i + k) mod width."""
    n = v.width
    k %= n
    return BitVec(((v.value << k) | (v.value >> (n - k))) & ((1 << n) - 1), n)
