"""Ground-truth utilities for checking the inversion engine.

Everything here is deliberately independent of the engine's linear
algebra: preimages come from exhaustive scans and orbit shapes from
cycle detection.  `bbi survey` and `bbi oracle` read them; no inversion
path does, and the demos invert from forward evaluations alone.

Each walk spends only what its answer needs: `cycle_walk` decides
whether y is purely periodic in exactly `period` evaluations when it
is, and in Brent's first phase when it is not; `orbit_profile` adds the
preperiod walk only for a seed off its cycle; `brute_force_invert`
spends 2^n, one per input.
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


def cycle_walk(F: BlackBoxMap, y: BitVec) -> tuple[bool, int]:
    """(on_cycle, period): whether y is purely periodic under F, and the
    length of the cycle its orbit ends on.

    Brent's cycle detection (BIT 20, 1980): the tortoise waits at term
    2^k - 1 while the hare runs up to 2^k terms ahead, and their first
    meeting gives the period.  The hare is also compared with y, so a
    purely periodic y stops at its first return, after exactly `period`
    evaluations.  A meeting that comes first proves y off its cycle: on
    the cycle, the hare meets the tortoise at term t + period for the
    tortoise's term t >= 0, never before it returns to y at term period.
    Like every walk, it is bounded by F.max_evals alone.
    """
    if F.in_width != F.out_width:
        raise ValueError("orbit iteration needs matching in/out widths")

    start = tort = y.value
    hare = F(y)
    power = period = 1  # the tortoise is at term power - 1, the hare period ahead
    while hare.value != start:
        if hare.value == tort:
            return False, period
        if period == power:  # move the tortoise up, double the stride
            tort, power, period = hare.value, 2 * power, 0
        hare = F(hare)
        period += 1
    return True, power - 1 + period


def orbit_profile(F: BlackBoxMap, y: BitVec) -> OrbitProfile:
    """Exact (preperiod, period) of y under iteration of F.

    `cycle_walk` gives the period, and preperiod 0 for a y on its cycle.
    Off the cycle, a second walk with the hare one period ahead meets
    the tortoise at the cycle entry, which gives the preperiod.
    """
    on_cycle, period = cycle_walk(F, y)
    if on_cycle:
        return OrbitProfile(0, period)
    # with the hare one period ahead, the two meet at the cycle entry
    tort = hare = y
    for _ in range(period):
        hare = F(hare)
    r = 0
    while tort.value != hare.value:
        tort, hare = F(tort), F(hare)
        r += 1
    return OrbitProfile(r, period)
