"""Ground-truth utilities for checking the inversion engine.

Everything here is deliberately independent of the engine's linear
algebra: preimages come from exhaustive scans, orbit shapes from cycle
detection, and full-period minimal polynomials from the closed form for
periodic sequences (reciprocal of (X^N + 1) / gcd(X^N + 1, period
polynomial), per bit component, lcm over components).
"""

from __future__ import annotations

from dataclasses import dataclass

from .engine import BlackBoxMap
from .gf2 import BitVec, Gf2Poly, ONE, gcd, lcm

BRUTE_FORCE_WIDTH_LIMIT = 24
FULL_PERIOD_LIMIT = 1 << 16
DEFAULT_STEP_BUDGET = 10_000_000


class BudgetExceeded(RuntimeError):
    pass


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
    """All preimages of y by exhaustive scan of the input space."""
    n = F.in_width
    if n > BRUTE_FORCE_WIDTH_LIMIT:
        raise ValueError(f"input width {n} exceeds the exhaustive "
                         f"scan limit {BRUTE_FORCE_WIDTH_LIMIT}")
    if y.width != F.out_width:
        raise ValueError("y width does not match the map output")
    target = y.value  # F checks the output width, so values suffice
    found = []
    for v in range(1 << n):
        x = BitVec(v, n)
        if F(x).value == target:
            found.append(x)
    return found


def orbit_profile(F: BlackBoxMap, y: BitVec, max_steps: int = DEFAULT_STEP_BUDGET,
                  store: bool = False) -> OrbitProfile:
    """Exact (preperiod, period) of y under iteration of F.

    Brent's cycle detection (BIT 20, 1980): the tortoise waits at term
    2^k - 1 while the hare runs up to 2^k terms ahead, so the first
    meeting gives the period.  A second walk with the hare one period
    ahead meets the tortoise at the cycle entry, which gives the
    preperiod; its hare passes every term of the tail and of one cycle,
    so `store` costs no extra evaluations.  Raises BudgetExceeded once
    more than max_steps map evaluations were spent.
    """
    if F.in_width != F.out_width:
        raise ValueError("orbit iteration needs matching in/out widths")
    stop = F.evals + max_steps

    def over() -> BudgetExceeded:
        return BudgetExceeded(f"orbit walk exceeded {max_steps} evaluations")

    tort, hare = y.value, F(y)
    power = period = 1
    while hare.value != tort:
        if period == power:  # move the tortoise up, double the stride
            tort, power, period = hare.value, 2 * power, 0
        hare = F(hare)
        period += 1
        if F.evals > stop:
            raise over()

    # with the hare one period ahead, the two meet at the cycle entry
    tort = hare = y
    terms = [y] if store else None
    for _ in range(period):
        hare = F(hare)
        if F.evals > stop:
            raise over()
        if store:
            terms.append(hare)
    r = 0
    while tort.value != hare.value:
        tort, hare = F(tort), F(hare)
        if F.evals > stop:
            raise over()
        if store:
            terms.append(hare)
        r += 1

    if store:
        terms = tuple(terms[:r + period])
    return OrbitProfile(r, period, terms)


def _periodic_component_minpoly(comp: int, N: int) -> Gf2Poly:
    """Minimal polynomial of the N-periodic scalar sequence with period
    block bits comp (bit t = s_t): reciprocal of (X^N+1)/gcd(s(X), X^N+1)."""
    xn1 = Gf2Poly((1 << N) | 1)
    g = gcd(Gf2Poly(comp), xn1)
    return (xn1 // g).reciprocal()


def full_period_minpoly(F: BlackBoxMap, y: BitVec,
                        max_steps: int = DEFAULT_STEP_BUDGET) -> tuple[Gf2Poly, int]:
    """Exact minimal polynomial of a purely periodic orbit, plus its period.

    Requires preperiod 0 and period at most 2^16.  Works from one full
    period: per bit component the closed form above, then the lcm.  The
    result divides X^N + 1 by construction.  The all-zero orbit gets
    X+1, the engine's convention.
    """
    prof = orbit_profile(F, y, max_steps=max_steps, store=True)
    if prof.preperiod != 0:
        raise ValueError(f"seed has preperiod {prof.preperiod}, not purely periodic")
    N = prof.period
    if N > FULL_PERIOD_LIMIT:
        raise ValueError(f"period {N} exceeds limit {FULL_PERIOD_LIMIT}")
    cycle = prof.cycle
    n = y.width
    result = ONE
    for b in range(n):
        comp = 0
        for t in range(N):
            comp |= ((cycle[t].value >> b) & 1) << t
        if comp == 0:
            continue
        result = lcm(result, _periodic_component_minpoly(comp, N))
    if result.degree < 1:
        return Gf2Poly(0b11), N
    return result, N
