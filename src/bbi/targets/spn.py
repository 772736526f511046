"""A 16-bit substitution-permutation toy cipher and its known-plaintext map.

Block and key are both 16 bits.  Round r (r = 0 .. rounds-1) XORs in the
key rotated left by r, substitutes each nibble through the S-box, then
permutes the 16 bit positions; a final whitening XOR with the key
rotated by `rounds` closes the cipher.  With rounds = 0 only the final
whitening remains, so encryption degenerates to P XOR K.

Fixing a public plaintext P0 turns key recovery under a known-plaintext
attack into inversion of the map key -> encrypt(key, P0), which is the
shipped `spn-kpa` target.  That map is generally not a permutation of
the key space.
"""

from __future__ import annotations

from ..engine import BlackBoxMap
from ..gf2 import BitVec

WIDTH = 16
# One evaluation runs every round and --max-evals counts evaluations, so
# the round count needs its own bound.
ROUNDS_LIMIT = 256

# Classic teaching constants: 4-bit S-box and the bit transposition that
# sends bit 4*i+j to bit 4*j+i.
SBOX = (0xE, 0x4, 0xD, 0x1, 0x2, 0xF, 0xB, 0x8,
        0x3, 0xA, 0x6, 0xC, 0x5, 0x9, 0x0, 0x7)
PBOX = (0, 4, 8, 12, 1, 5, 9, 13, 2, 6, 10, 14, 3, 7, 11, 15)


def _sub_perm_byte(byte: int, offset: int) -> int:
    nibs = (SBOX[byte & 0xF], SBOX[byte >> 4])
    out = 0
    for j in range(8):
        if (nibs[j // 4] >> (j % 4)) & 1:
            out |= 1 << PBOX[offset + j]
    return out


# One round = substitute + permute.  Precomputed per byte: the
# permutation is bit-linear, so the two halves just OR together.
_LO = tuple(_sub_perm_byte(b, 0) for b in range(256))
_HI = tuple(_sub_perm_byte(b, 8) for b in range(256))


class ToySpn:
    """SPN instance: the fixed SBOX/PBOX and a round count."""

    def __init__(self, rounds: int = 4):
        if rounds < 0:
            raise ValueError("rounds must be >= 0")
        if rounds > ROUNDS_LIMIT:
            raise ValueError(f"rounds must stay at most {ROUNDS_LIMIT}")
        self.rounds = rounds

    def encrypt(self, key: int, plaintext: int) -> int:
        # The key rotated left by r is bits 16-r .. 31-r of the key written
        # twice, so each round key is one shift and one mask.
        k2 = key | (key << 16)
        state = plaintext & 0xFFFF
        for r in range(self.rounds):
            state ^= (k2 >> (16 - (r & 15))) & 0xFFFF
            state = _LO[state & 0xFF] | _HI[state >> 8]
        return state ^ (k2 >> (16 - (self.rounds & 15))) & 0xFFFF

    def kpa_map(self, plaintext: int) -> BlackBoxMap:
        """key -> encrypt(key, plaintext), a 16 -> 16 bit black box."""
        if not 0 <= plaintext <= 0xFFFF:
            raise ValueError("plaintext must fit 16 bits")
        return BlackBoxMap(lambda k: BitVec(self.encrypt(k.value, plaintext), WIDTH),
                           WIDTH, label=f"spn-kpa(p0={plaintext:#06x})")
