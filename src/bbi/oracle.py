"""Ground-truth utilities for checking the inversion engine.

Everything here is deliberately independent of the engine's linear
algebra: preimages come from exhaustive scans and orbit shapes from
cycle detection.  `bbi survey` and `bbi oracle` read them; no inversion
path does, and the demos invert from forward evaluations alone.
"""

from __future__ import annotations

from dataclasses import dataclass

from .engine import BlackBoxMap
from .gf2 import BitVec

BRUTE_FORCE_WIDTH_LIMIT = 24


@dataclass(frozen=True)
class OrbitProfile:
    """Orbit shape of a seed: preperiod r, cycle length period."""

    preperiod: int
    period: int


def brute_force_invert(F: BlackBoxMap, y: BitVec) -> list[BitVec]:
    """All preimages of y by exhaustive scan of the input space."""
    if F.in_width > BRUTE_FORCE_WIDTH_LIMIT:
        raise ValueError(f"input width {F.in_width} exceeds the exhaustive "
                         f"scan limit {BRUTE_FORCE_WIDTH_LIMIT}")
    return F.preimages(y)


def orbit_profile(F: BlackBoxMap, y: BitVec) -> OrbitProfile:
    """Exact (preperiod, period) of y under iteration of F.

    Brent's cycle detection (BIT 20, 1980): the tortoise waits at term
    2^k - 1 while the hare runs up to 2^k terms ahead, so the first
    meeting gives the period.  A second walk with the hare one period
    ahead meets the tortoise at the cycle entry, which gives the
    preperiod.  Like every walk, it is bounded by F.max_evals alone.
    """
    if F.in_width != F.out_width:
        raise ValueError("orbit iteration needs matching in/out widths")

    tort, hare = y.value, F(y)
    power = period = 1
    while hare.value != tort:
        if period == power:  # move the tortoise up, double the stride
            tort, power, period = hare.value, 2 * power, 0
        hare = F(hare)
        period += 1

    # with the hare one period ahead, the two meet at the cycle entry
    tort = hare = y
    for _ in range(period):
        hare = F(hare)
    r = 0
    while tort.value != hare.value:
        tort, hare = F(tort), F(hare)
        r += 1
    return OrbitProfile(r, period)
