"""Ground-truth utilities for checking the inversion engine.

Everything here is deliberately independent of the engine's linear
algebra: preimages come from exhaustive scans and orbit shapes from
cycle detection.
"""

from __future__ import annotations

from dataclasses import dataclass

from .engine import BlackBoxMap
from .gf2 import BitVec

BRUTE_FORCE_WIDTH_LIMIT = 24


@dataclass(frozen=True)
class OrbitProfile:
    """Orbit shape of a seed: preperiod r, cycle length period.

    orbit_terms, when kept, holds the first r + period terms, so
    orbit_terms[r:] is exactly one trip around the cycle.
    """

    preperiod: int
    period: int
    orbit_terms: tuple[BitVec, ...] | None = None

    @property
    def cycle(self) -> tuple[BitVec, ...]:
        if self.orbit_terms is None:
            raise ValueError("orbit terms were not stored")
        return self.orbit_terms[self.preperiod:]


def brute_force_invert(F: BlackBoxMap, y: BitVec) -> list[BitVec]:
    """All preimages of y by exhaustive scan of the input space.

    The scan checks F's budget once (F.allowance), evaluates F.fn directly
    and adds its evaluations to F.evals in one step, so it counts, checks
    widths and raises exactly as calling F on each input in turn would:
    the inputs the budget leaves are evaluated, then EvalBudgetExceeded
    names the cap.
    """
    n = F.in_width
    if n > BRUTE_FORCE_WIDTH_LIMIT:
        raise ValueError(f"input width {n} exceeds the exhaustive "
                         f"scan limit {BRUTE_FORCE_WIDTH_LIMIT}")
    out_width = F.out_width
    if y.width != out_width:
        raise ValueError("y width does not match the map output")
    fn, size = F.fn, 1 << n
    limit = F.allowance(size)
    target = y.value  # widths are checked, so values suffice
    found = []
    v = -1
    try:
        for v in range(limit):
            x = BitVec(v, n)
            out = fn(x)
            if out.width != out_width:
                raise F.width_error(out.width)
            if out.value == target:
                found.append(x)
    finally:
        F.evals += v + 1  # input v reached fn, even if the call raised
    if limit < size:
        raise F.budget_exceeded()
    return found


def orbit_profile(F: BlackBoxMap, y: BitVec, store: bool = False) -> OrbitProfile:
    """Exact (preperiod, period) of y under iteration of F.

    Brent's cycle detection (BIT 20, 1980): the tortoise waits at term
    2^k - 1 while the hare runs up to 2^k terms ahead, so the first
    meeting gives the period.  A second walk with the hare one period
    ahead meets the tortoise at the cycle entry, which gives the
    preperiod; its hare passes every term of the tail and of one cycle,
    so `store` costs no extra evaluations.  Like every walk, it is
    bounded by F.max_evals alone.
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
    terms = [y] if store else None
    for _ in range(period):
        hare = F(hare)
        if store:
            terms.append(hare)
    r = 0
    while tort.value != hare.value:
        tort, hare = F(tort), F(hare)
        if store:
            terms.append(hare)
        r += 1

    if store:
        terms = tuple(terms[:r + period])
    return OrbitProfile(r, period, terms)
