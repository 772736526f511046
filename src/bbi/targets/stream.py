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

`keystream` evaluates without clocking.  The register is linear, so the
sequence bits S = s_warmup .. s_{warmup+count-1+top tap} that the filter
reads are affine in the key: S(key) = S(0) + the sum of one column per
set key bit, looked up from byte tables built once per count.  Lane j,
S >> tap_j, holds filter input j for all `count` output bits at once,
and the filter's algebraic normal form evaluates on whole lanes with AND
and XOR.
"""

from __future__ import annotations

from typing import Callable

from ..engine import BlackBoxMap
from ..gf2 import BitVec, Gf2Poly
from .arith import is_primitive_poly

DEGREE_LIMIT = 32  # 2^d - 1 is factored by trial division
# A count's tables take a walk of warmup + count + d sequence bits, and each
# evaluation works on count-bit lanes; --max-evals counts evaluations, not
# that work, so both need their own bound.
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
        self.iv = iv
        self.filter_taps = taps
        self.filter_table = filter_table
        self.warmup = warmup
        self._fb_mask = feedback.bits & ((1 << d) - 1)  # taps below X^d
        self._evaluators: dict[int, Callable[[int], int]] = {}

    def keystream(self, key: int, count: int) -> int:
        """First `count` keystream bits, packed with bit 0 first."""
        if not 0 <= key < (1 << self.key_width):
            raise ValueError("key does not fit key_width")
        return self._evaluator(count)(key)

    def _evaluator(self, count: int) -> Callable[[int], int]:
        """key -> first `count` keystream bits, built once per count."""
        fn = self._evaluators.get(count)
        if fn is None:
            if count < 0:
                raise ValueError("count must be >= 0")
            if count > COUNT_LIMIT:
                raise ValueError(f"count must stay at most {COUNT_LIMIT}")
            fn = self._evaluators[count] = self._build_evaluator(count)
        return fn

    def _build_evaluator(self, count: int) -> Callable[[int], int]:
        taps, table = self.filter_taps, self.filter_table
        span = count + max(taps)
        cols = self._unit_windows(span)
        base = 0  # S(0): the iv bits sit above the key in the state
        for j, col in enumerate(cols[self.key_width:]):
            if self.iv >> j & 1:
                base ^= col
        lookups = []  # (shift, 256 sums of the columns of key bits shift..shift+7)
        for shift in range(0, self.key_width, 8):
            sums = [0]
            for col in cols[shift:shift + 8]:
                sums += [v ^ col for v in sums]
            lookups.append((shift, sums))
        # Table entries at or past 2^v are zero, so the filter is 0 when any
        # tap from v on reads 1, and its normal form needs only taps below v.
        v = (table.bit_length() - 1).bit_length() if table else 0
        anf = _moebius(table, v)
        monomials = [tuple(t for j, t in enumerate(taps[:v]) if u >> j & 1)
                     for u in range(1 << v) if anf >> u & 1]
        high = taps[v:]
        mask = (1 << count) - 1

        def keystream(key: int) -> int:
            s = base
            for shift, sums in lookups:
                s ^= sums[key >> shift & 255]
            out = 0
            for monomial in monomials:
                term = mask
                for t in monomial:
                    term &= s >> t
                out ^= term
            zero = 0
            for t in high:
                zero |= s >> t
            return out & ~zero & mask
        return keystream

    def _unit_windows(self, span: int) -> list[int]:
        """Bits s_warmup .. s_{warmup+span-1} of the sequence from each unit
        state e_0 .. e_{d-1}, bit k holding s_{warmup+k}.

        One clock takes e_i to e_{i-1} + c_i e_{d-1} (c_i the feedback
        coefficient of X^i) and drops the first sequence bit, so the
        sequence from e_{i-1} is that from e_i shifted down one, plus c_i
        times the sequence u from e_{d-1}: one walk gives all d.
        """
        d, fb = self.degree, self._fb_mask
        length = self.warmup + span + d
        # u extends by XOR-ing shifted copies of itself: s_{t+d} is the sum
        # of s_{t+k} over the feedback taps k < d, so the d - (top tap) bits
        # after the known ones depend only on known bits.
        low_taps = [k for k in range(d) if fb >> k & 1]
        block = d - low_taps[-1]
        u, known = 1 << (d - 1), d
        while known < length:
            new = 0
            for k in low_taps:
                new ^= u >> (known - d + k)
            u |= (new & ((1 << block) - 1)) << known
            known += block
        u >>= self.warmup
        cols = [u]
        for i in range(d - 1, 0, -1):
            cols.append(cols[-1] >> 1 ^ (u if fb >> i & 1 else 0))
        window = (1 << span) - 1
        return [col & window for col in reversed(cols)]

    def kpa_map(self, count: int) -> BlackBoxMap:
        """key -> keystream window; an embedding when count > key_width."""
        if count < self.key_width:
            raise ValueError("need at least key_width keystream bits")
        # Bound once: the map's input width already keeps keys in range.
        keystream = self._evaluator(count)
        return BlackBoxMap(lambda k: BitVec(keystream(k.value), count),
                           self.key_width, count,
                           label=f"stream-kpa(iv={self.iv:#x},count={count})")


def _moebius(table: int, v: int) -> int:
    """Algebraic normal form of a truth table over v variables: bit u is
    set iff the monomial of the variables in u appears."""
    size = 1 << v
    for i in range(v):
        step = 1 << i
        # the positions whose index has bit i clear
        low = ((1 << size) - 1) // ((1 << 2 * step) - 1) * ((1 << step) - 1)
        table ^= (table & low) << step
    return table
