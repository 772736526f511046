"""Recurrence sequences of a black-box map and their local inversion.

The pipeline feeds outputs of a map F on GF(2)^n back into itself:
S = {y, F(y), F(F(y)), ...}.  When S satisfies a linear recurrence with
minimal polynomial m(X) = X^m + a_{m-1} X^{m-1} + ... + a_0 and a_0 = 1,
the element before y on the orbit is

    x = terms[m-1] + sum of terms[i-1] over i in 1..m-1 with a_i = 1

(sums are XOR), and F(x) == y whenever y lies on a purely periodic orbit
and the window was long enough.  A candidate is only ever reported after
that equation has been re-checked against a fresh evaluation of F.

The minimal polynomial comes from projected Berlekamp-Massey alone.  The
window is projected onto a fixed schedule of vectors u that spans
GF(2)^n (Wiedemann, IEEE Trans. IT 32(1), 1986); Berlekamp-Massey
(Massey, IEEE Trans. IT 15(1), 1969) gives the minimal polynomial of
each scalar sequence <u, y(t)>.  Their lcm is returned once it has
degree <= M/2 and annihilates the whole window; a projection or an lcm
of degree past M/2 proves that no annihilator of degree <= M/2 exists.
One of the two always happens (see minimal_polynomial).

The Hankel scan supplies rank evidence only: rank H(k) for k = 1 ..
M/2.  minimal_polynomial never runs it; a MinPolyResult runs it once,
on the first read of rank_profile, or of status on a window without a
minimal polynomial.  The whole window is packed into one int, n bits per
term, and bit-reversed once, so the column of the stacked Hankel system
that starts at term j is a single shift+mask with row r at bit
height-1-r.  One XOR basis over full-height columns serves every k at
once: a pivot in the top n*k rows counts toward rank H(k).  A vector's
pivot, its first nonzero row, is read off its bit_length(), and the int
shrinks as its leading rows clear.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import Callable

from .gf2 import BitVec, Gf2Poly, ONE, lcm, order

UNIQUE = "unique"
SATURATED = "saturated"
RANK_DEFICIENT = "rank-deficient"

SOLUTION = "solution"
INSUFFICIENT_DATA = "insufficient-data"


class EvalBudgetExceeded(RuntimeError):
    pass


class BlackBoxMap:
    """A map GF(2)^in_width -> GF(2)^out_width, used only by calling it.

    `evals` counts every evaluation performed; reported counts elsewhere
    come straight from it.  Setting `max_evals` makes the next call past
    the budget raise EvalBudgetExceeded, which bounds runaway iteration.
    """

    def __init__(self, fn: Callable[[BitVec], BitVec], in_width: int,
                 out_width: int | None = None, label: str = ""):
        self.fn = fn
        self.in_width = in_width
        self.out_width = in_width if out_width is None else out_width
        self.label = label
        self.evals = 0
        self.max_evals: int | None = None

    def __call__(self, x: BitVec) -> BitVec:
        if x.width != self.in_width:
            raise ValueError(f"input width {x.width}, map expects {self.in_width}")
        evals, cap = self.evals, self.max_evals
        if cap is not None and evals >= cap:
            raise self.budget_exceeded()
        self.evals = evals + 1
        y = self.fn(x)
        if y.width != self.out_width:
            raise self.width_error(y.width)
        return y

    def allowance(self, want: int) -> int:
        """How many of `want` further evaluations the budget leaves.

        A loop that calls `fn` directly, instead of calling the map once
        per input, keeps the per-call contract this way: it makes that
        many calls, raises width_error on an output of the wrong width,
        adds every call that reached `fn` to `evals` (one that raised
        included), and raises budget_exceeded() if it fell short of
        `want`.  It then stops at the same evaluation, with the same
        exception and count, as calling the map would.
        """
        cap = self.max_evals
        return want if cap is None else max(0, min(want, cap - self.evals))

    def budget_exceeded(self) -> EvalBudgetExceeded:
        return EvalBudgetExceeded(f"evaluation budget {self.max_evals} exhausted")

    def width_error(self, width: int) -> ValueError:
        return ValueError(f"map produced width {width}, declared {self.out_width}")


@dataclass(frozen=True)
class RecurrenceSequence:
    """Window terms[t] = F^(t)(terms[0]) of an iterated map, t = 0 .. M-1,
    each term the int value of a `width`-bit vector."""

    terms: tuple[int, ...]
    width: int

    def __post_init__(self):
        if len(self.terms) < 1:
            raise ValueError("empty sequence")
        if self.width < 1 or min(self.terms) < 0 or max(self.terms) >= 1 << self.width:
            raise ValueError(f"terms do not fit width {self.width}")

    def packed(self) -> int:
        """All terms in one int, n bits per term, term 0 lowest."""
        # Merged in pairs, log2(M) rounds of ints twice as wide each time:
        # OR-ing every term into one growing int costs O(M^2 n) instead.
        vals, n = list(self.terms), self.width
        while len(vals) > 1:
            if len(vals) % 2:
                vals.append(0)
            vals = [a | (b << n) for a, b in zip(vals[::2], vals[1::2])]
            n *= 2
        return vals[0]


@dataclass(frozen=True, eq=False)
class MinPolyResult:
    """Least-degree annihilator of a window, or None, and the Hankel
    scan's rank evidence, measured when it is read.

    `status` is `unique` whenever minpoly is not None, with no scan.
    `rank_profile` lists (k, rank H(k)) for k = 1 .. minpoly.degree on
    a solved window, k = 1 .. floor(M/2) otherwise; on a window without
    a minpoly, `status` is `saturated` when the last rank is full and
    `rank-deficient` otherwise.  Both are cached like
    InversionReport.period_estimate and share one scan, run on the first
    read that needs it.  Equality is identity.
    """

    minpoly: Gf2Poly | None
    window: RecurrenceSequence = field(repr=False)

    @cached_property
    def status(self) -> str:
        if self.minpoly is not None:
            return UNIQUE
        k, rank = self.rank_profile[-1]
        return SATURATED if rank == k else RANK_DEFICIENT

    @cached_property
    def rank_profile(self) -> tuple[tuple[int, int], ...]:
        profile = _hankel_scan(self.window)
        if self.minpoly is None:
            return profile
        # rank H(k) reads columns 0 .. k-1 only, so the profile of a win
        # is a prefix of the full one
        return profile[:self.minpoly.degree]


@dataclass(frozen=True)
class InversionReport:
    outcome: str
    x: BitVec | None
    minpoly: Gf2Poly | None
    terms_consumed: int
    map_evals: int

    @property
    def solved(self) -> bool:
        return self.outcome == SOLUTION

    @property
    def linear_complexity(self) -> int | None:
        """Degree of the minimal polynomial; None when the window gave none."""
        return self.minpoly.degree if self.minpoly is not None else None

    @cached_property
    def period_estimate(self) -> int | None:
        """Order of the minimal polynomial, capped at min(2^20, 2^degree).

        A diagnostic, not part of the inversion: computed on first read,
        then cached in the instance dict (which a frozen dataclass still
        has).  It derives from outcome and minpoly, so equality and hash
        are the same before and after.  None for an unsolved report and
        when the order exceeds the cap.
        """
        if not self.solved:
            return None
        return order(self.minpoly, min(1 << 20, 1 << self.minpoly.degree))


def generate(F: BlackBoxMap, y: BitVec, M: int) -> RecurrenceSequence:
    """First M terms of the feedback sequence: exactly M-1 evaluations.

    The window checks F's budget once (F.allowance), not once per term:
    it calls F.fn directly, checks each output's width and counts its
    calls into F.evals in one step, so it raises and counts exactly as
    calling F M-1 times would.
    """
    if M < 2:
        raise ValueError("window length M must be >= 2")
    n = F.in_width
    if n != F.out_width:
        raise ValueError("feedback iteration needs matching in/out widths")
    if y.width != n:
        raise ValueError(f"input width {y.width}, map expects {n}")
    fn, limit = F.fn, F.allowance(M - 1)
    x, terms = y, [y.value]
    calls = 0
    try:
        for calls in range(1, limit + 1):
            x = fn(x)
            if x.width != n:
                raise F.width_error(x.width)
            terms.append(x.value)
    finally:
        F.evals += calls  # the call that raised reached fn too
    if limit < M - 1:
        raise F.budget_exceeded()
    return RecurrenceSequence(tuple(terms), n)


# 2^64 over the golden ratio: dense, irregular bits for _projections.
_PROJECTION_KEY = 0x9E3779B97F4A7C15


@cache
def _projections(n: int) -> tuple[int, ...]:
    """The fixed projection schedule for width n: for i < n, u_i has its
    lowest set bit at i and the bits of _PROJECTION_KEY, repeated as far
    as needed, above it.

    The vectors are in echelon form, so they are independent and span
    GF(2)^n: every coordinate <v, y(t)> is a sum of projections, so an
    lcm that annihilates each <u_i, y(t)> annihilates the window.  The
    u whose <u, y(t)> lacks part of the minimal polynomial form a proper
    subspace for each irreducible factor, so the dense vectors first
    usually reach the whole polynomial within one or two projections.
    """
    key = _PROJECTION_KEY * ((1 << (64 * (n // 64 + 1))) - 1) // ((1 << 64) - 1)
    mask = (1 << n) - 1
    return tuple(((key << (i + 1)) | (1 << i)) & mask for i in range(n))


def _annihilates(packed: int, poly: int, n: int, M: int) -> bool:
    """Does the polynomial with coefficient i at bit i of `poly` annihilate
    every window of the packed data, M terms of n bits?"""
    acc = 0
    b = poly
    while b:
        i = (b & -b).bit_length() - 1
        acc ^= packed >> (i * n)
        b &= b - 1
    return acc & ((1 << ((M - poly.bit_length() + 1) * n)) - 1) == 0


def minimal_polynomial(seq: RecurrenceSequence) -> MinPolyResult:
    """Least-degree monic annihilator of degree <= M/2 of the window, or
    None when there is none.  This only decides: no Hankel scan runs
    here, and the result measures status and rank_profile when read.

    Projected Berlekamp-Massey decides every window.  For each u of the
    fixed schedule, the minimal polynomial m_u of the scalar sequence
    <u, y(t)> has degree L_u and is unique while 2 L_u <= M.  It divides
    every annihilator P of the window of degree <= M/2: the recurrences
    m_u and P agree on L_u + deg P <= M terms of <u, y(t)>, so they
    agree forever (Massey 1969).  So the lcm of those found so far
    divides P too, and
    - a projection with 2 L_u > M, or an lcm of degree > M/2, proves
      that no annihilator of degree <= M/2 exists;
    - an lcm of degree k <= M/2 that annihilates every window of the
      data is the least annihilator, and it comes back `unique`.  Its
      rank H(k) is k: a nonzero column combination Q of degree < k that
      vanished on the top n*k rows would satisfy each <u, y(t)> on
      k + deg Q >= L_u + deg Q terms, so each m_u, and the lcm, would
      divide Q.  So it is the one solution of the stacked Hankel system
      H(k) a = h(k+1).
    One of the two happens before the schedule runs out.  Each m_u
    annihilates <u, y(t)> on the window, and so does any multiple of
    degree <= M/2, so once the n vectors of the spanning schedule are
    in, an lcm still at or below M/2 annihilates every coordinate.  The
    loop reads the next vector only when the lcm failed that check.

    The all-zero window gets X+1: every polynomial annihilates it, and
    X+1 is the least-degree one with an invertible constant term, which
    inverts to x = y = 0.
    """
    M = len(seq.terms)
    if M < 2:
        raise ValueError("need at least 2 terms")
    n = seq.width
    packed = seq.packed()
    if not packed:
        return MinPolyResult(Gf2Poly(0b11), seq)
    found = ONE
    for u in _projections(n):
        # s_t = <u, y(t)> at bit M-1-t, the order _bm_scalar reads
        s = int("".join(["1" if (v & u).bit_count() & 1 else "0"
                         for v in seq.terms]), 2)
        mp = _bm_scalar(s, M)
        if found != ONE and 2 * mp.degree <= M:
            mp = lcm(found, mp)
        if 2 * mp.degree > M:
            break
        if mp != found and _annihilates(packed, mp.bits, n, M):
            return MinPolyResult(mp, seq)
        found = mp
    return MinPolyResult(None, seq)


def _hankel_scan(seq: RecurrenceSequence) -> tuple[tuple[int, int], ...]:
    """Rank profile (k, rank H(k)) of the window for k = 1 .. floor(M/2).

    Column j of the stacked Hankel system H(k) holds terms j .. j+k-1.
    Columns are reduced over their full height of floor(M/2) terms into
    one echelon basis, so rank H(k) counts the basis vectors of columns
    0 .. k-1 whose pivot lies in the top n*k rows.  A vector is one int,
    row r at bit height-1-r, and its pivot, the first nonzero row, is
    height - bit_length().
    """
    M = len(seq.terms)
    n = seq.width
    m_max = M // 2
    height = n * m_max
    mask = (1 << height) - 1
    # The window reversed (bit i of seq.packed() at bit M*n-1-i), so
    # column k is one shift and one mask.
    rev = int(format(seq.packed(), f"0{M * n}b")[::-1], 2)
    basis: dict[int, int] = {}  # pivot row -> stored vector
    pivots: list[int] = []
    profile = []
    for k in range(m_max):
        vec = (rev >> (n * (M - k - m_max))) & mask
        while vec:
            p = height - vec.bit_length()
            hit = basis.get(p)
            if hit is None:
                basis[p] = vec
                insort(pivots, p)
                break
            vec ^= hit
        profile.append((k + 1, bisect_left(pivots, n * (k + 1))))
    return tuple(profile)


def invert_from_minpoly(seq: RecurrenceSequence, mp: Gf2Poly) -> BitVec:
    """Candidate preimage of terms[0] from an annihilator with mp(0) = 1."""
    m = mp.degree
    if m < 1:
        raise ValueError("annihilator must have degree >= 1")
    if mp.constant_term == 0:
        raise ValueError("constant term is zero: the window does not certify "
                         "a purely periodic orbit")
    if len(seq.terms) < m:
        raise ValueError("window shorter than the annihilator degree")
    v = seq.terms[m - 1]
    for i in range(1, m):
        if mp.coeff(i):
            v ^= seq.terms[i - 1]
    return BitVec(v, seq.width)


def local_inversion(F: BlackBoxMap, y: BitVec, M: int | None = None) -> InversionReport:
    """Window, minimal polynomial, inversion formula, verification.

    Uses M-1 evaluations for the window plus one fresh evaluation to
    check F(x) == y.  Never returns an unverified candidate: every
    failure mode (no annihilator of degree <= M/2, zero constant term,
    verification mismatch) comes back as insufficient data.
    """
    if M is None:
        M = 4 * F.in_width
    before = F.evals
    seq = generate(F, y, M)
    res = minimal_polynomial(seq)
    if res.minpoly is not None and res.minpoly.constant_term == 1:
        x = invert_from_minpoly(seq, res.minpoly)
        if F(x) == y:
            return InversionReport(SOLUTION, x, res.minpoly, M, F.evals - before)
    return InversionReport(INSUFFICIENT_DATA, None, res.minpoly, M,
                           F.evals - before)


def _bm_scalar(s: int, M: int) -> Gf2Poly:
    """Berlekamp-Massey over GF(2) on s_t at bit M-1-t, t = 0 .. M-1.

    Returns the minimal polynomial X^L C(1/X) of the sequence, L being
    its linear complexity and C the connection polynomial (bit i = c_i,
    c_0 = 1) with s_t = sum c_i s_{t-i} for t >= L.
    """
    C, B = 1, 1
    L, gap = 0, 1
    for t in range(M):
        window = s >> (M - 1 - t)  # bit i = s_{t-i}
        d = (C & window).bit_count() & 1
        if d == 0:
            gap += 1
        elif 2 * L <= t:
            C, B = C ^ (B << gap), C
            L = t + 1 - L
            gap = 1
        else:
            C ^= B << gap
            gap += 1
    return Gf2Poly(int(format(C & ((1 << (L + 1)) - 1), f"0{L + 1}b")[::-1], 2))


def bm_crosscheck(seq: RecurrenceSequence) -> Gf2Poly:
    """Minimal polynomial by an independent route: scalar Berlekamp-Massey
    per bit component, then the lcm of the component polynomials.

    Identically zero components contribute nothing.  The all-zero window
    gets X+1, the same convention as minimal_polynomial.
    """
    n = seq.width
    M = len(seq.terms)
    # Character t*n + b is bit b of term t, so component b is bits[b::n]
    # and its int has s_t at bit M-1-t, the order _bm_scalar reads.
    bits = "".join(format(t, f"0{n}b")[::-1] for t in seq.terms)
    result = ONE
    for b in range(n):
        comp = int(bits[b::n], 2)
        if comp:
            result = lcm(result, _bm_scalar(comp, M))
    if result.degree < 1:
        return Gf2Poly(0b11)
    return result
