"""A filtered-LFSR toy stream cipher and its key-to-keystream map.

The register implements the binary recurrence s_{t+d} = sum of s_{t+i}
over the feedback taps, d being the degree of the feedback polynomial
X^d + sum X^i.  State bit j holds s_{t+j}; a clock shifts everything
down one position and feeds the new bit in at the top.  The feedback
polynomial must be primitive, so every nonzero state sits on the single
cycle of length 2^d - 1.

Seeding packs (key, iv) into the state, key in the low bits.  After
`warmup` idle clocks the cipher emits one keystream bit per clock, each
computed by a fixed boolean filter (truth table over a fixed tuple of
state positions), with the state advanced after every output bit.

The `kpa_map` target maps a key (key_width bits) to the first `count`
keystream bits under the public IV.  With count > key_width that is an
embedding, inverted window by window.
"""

from __future__ import annotations

from ..engine import BlackBoxMap
from ..gf2 import BitVec, Gf2Poly
from .arith import is_primitive_poly

DEGREE_LIMIT = 32  # 2^d - 1 is factored by trial division
# One evaluation clocks the register warmup + count times, and --max-evals
# counts evaluations, not clocks, so both need their own bound.
WARMUP_LIMIT = 1 << 12
COUNT_LIMIT = 1 << 10


class FilteredLfsr:
    def __init__(self, feedback: Gf2Poly, key_width: int, iv: int,
                 filter_taps, filter_table: int, warmup: int):
        d = feedback.degree
        if d < 2:
            raise ValueError("feedback degree must be >= 2")
        if d > DEGREE_LIMIT:
            raise ValueError(f"feedback degree must stay at most {DEGREE_LIMIT}")
        if not is_primitive_poly(feedback):
            raise ValueError("feedback polynomial is not primitive")
        if not 1 <= key_width < d:
            raise ValueError("key width must lie strictly inside the state")
        iv_width = d - key_width
        if not 0 <= iv < (1 << iv_width):
            raise ValueError("iv does not fit the state remainder")
        if (not isinstance(filter_taps, (list, tuple))
                or not all(isinstance(t, int) for t in filter_taps)):
            raise ValueError(f"filter taps must be a list or tuple of ints, "
                             f"got {filter_taps!r}")
        taps = tuple(filter_taps)
        if not taps or any(not 0 <= t < d for t in taps) or len(set(taps)) != len(taps):
            raise ValueError("filter taps must be distinct state positions")
        if filter_table < 0 or filter_table.bit_length() > 1 << len(taps):
            raise ValueError("filter table does not match the tap count")
        if warmup < 0:
            raise ValueError("warmup must be >= 0")
        if warmup > WARMUP_LIMIT:
            raise ValueError(f"warmup must stay at most {WARMUP_LIMIT}")
        self.feedback = feedback
        self.degree = d
        self.key_width = key_width
        self.iv_width = iv_width
        self.iv = iv
        self.filter_taps = taps
        self.filter_table = filter_table
        self.warmup = warmup
        self._fb_mask = feedback.bits & ((1 << d) - 1)  # taps below X^d

    def clock(self, state: int) -> int:
        new = (state & self._fb_mask).bit_count() & 1
        return (state >> 1) | (new << (self.degree - 1))

    def output_bit(self, state: int) -> int:
        idx = 0
        for j, t in enumerate(self.filter_taps):
            idx |= ((state >> t) & 1) << j
        return (self.filter_table >> idx) & 1

    def keystream(self, key: int, count: int) -> int:
        """First `count` keystream bits, packed with bit 0 first."""
        if not 0 <= key < (1 << self.key_width):
            raise ValueError("key does not fit key_width")
        state = key | (self.iv << self.key_width)
        for _ in range(self.warmup):
            state = self.clock(state)
        out = 0
        for i in range(count):
            out |= self.output_bit(state) << i
            state = self.clock(state)
        return out

    def kpa_map(self, count: int) -> BlackBoxMap:
        """key -> keystream window; an embedding when count > key_width."""
        if count < self.key_width:
            raise ValueError("need at least key_width keystream bits")
        if count > COUNT_LIMIT:
            raise ValueError(f"count must stay at most {COUNT_LIMIT}")
        return BlackBoxMap(lambda k: BitVec(self.keystream(k.value, count), count),
                           self.key_width, count,
                           label=f"stream-kpa(iv={self.iv:#x},count={count})")
