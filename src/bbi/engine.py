"""Recurrence sequences of a black-box map and their local inversion.

The pipeline feeds outputs of a map F on GF(2)^n back into itself:
S = {y, F(y), F(F(y)), ...}.  When S satisfies a linear recurrence with
minimal polynomial m(X) = X^m + a_{m-1} X^{m-1} + ... + a_0 and a_0 = 1,
the element before y on the orbit is

    x = terms[m-1] + sum of terms[i-1] over i in 1..m-1 with a_i = 1

(sums are XOR), and F(x) == y whenever y lies on a purely periodic orbit
and the window was long enough.  A candidate is only ever reported after
that equation has been re-checked against a fresh evaluation of F.
local_inversion is the one entry point: it decides one window of M terms,
or, with grow, extends that window until a solve verifies or proves
that no longer window would.

The minimal polynomial comes from projected Berlekamp-Massey alone.  The
window is projected onto a fixed schedule of vectors u that spans
GF(2)^n (Wiedemann, IEEE Trans. IT 32(1), 1986); Berlekamp-Massey
(Massey, IEEE Trans. IT 15(1), 1969) gives the minimal polynomial m_u of
each scalar sequence <u, y(t)>.  Only the first m_u other than 1 is
read from the whole window.  It is returned when it annihilates the
window, and a degree past M/2 proves that no annihilator of degree
<= M/2 exists.  Otherwise the factor it lacks comes from the residual,
the sum of y(t + i) over the terms X^i of m_u, whose prefixes of 2, 4,
8, .. terms, up to 2 (floor(M/2) - deg m_u), the rest of the schedule
decides; each new answer Q is tried as m_u Q on the whole window.  A
product that passes is the least annihilator, and a None is a proof
(see GrowingWindow).  The annihilation check rejects on the first
window not known to hold first, which is sound because only the check
of every window can accept.

The Hankel rank is evidence only: on a window without a minimal
polynomial, status reads rank H(M/2), `saturated` when it is full and
`rank-deficient` when it is not.  minimal_polynomial never measures it;
a MinPolyResult measures it once, on the first read of status.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass, field
from functools import cache, cached_property, reduce
from itertools import compress
from operator import xor
from typing import Callable

from .gf2 import BitVec, Gf2Poly, ONE, _set_value, _set_width, lcm, order

UNIQUE = "unique"
SATURATED = "saturated"
RANK_DEFICIENT = "rank-deficient"

SOLUTION = "solution"
INSUFFICIENT_DATA = "insufficient-data"


class EvalBudgetExceeded(RuntimeError):
    pass


class BlackBoxMap:
    """A map GF(2)^in_width -> GF(2)^out_width, used only by calling it;
    both widths are at least 1.

    Every evaluation goes through this class: one call, `F(x)`, or a
    batch, `F.iterate(y, k)` and `F.preimages(y)`.  `evals` counts every
    evaluation performed; reported counts elsewhere come straight from
    it.  Setting `max_evals` makes the next evaluation past the budget
    raise EvalBudgetExceeded, which bounds runaway iteration.

    A batch checks the budget once, calls `fn` directly, checks each
    output's width and adds every call that reached `fn` to `evals` (one
    that raised included).  It stops at the same evaluation, with the
    same exception and count, as calling the map once per input would.

    The exhaustive scan reuses one input: it sets the next value on the
    input `fn` was last called with, and builds a fresh one only when
    something besides the scan holds that input (`fn` kept it, returned
    it, or it is a preimage).  sys.getrefcount tells the two apart,
    against the count of a fresh input read in the same frame, so the
    scan relies on CPython's reference counts; bbi is developed, tested
    and benchmarked on CPython only.  A BitVec takes no weak reference
    and has no __dict__, so the change of value is seen only through a
    strong reference, which makes the scan build afresh.
    """

    def __init__(self, fn: Callable[[BitVec], BitVec], in_width: int,
                 out_width: int | None = None, label: str = ""):
        if out_width is None:
            out_width = in_width
        if in_width < 1 or out_width < 1:
            raise ValueError(f"map widths {in_width} -> {out_width}: "
                             "each must be >= 1")
        self.fn = fn
        self.in_width = in_width
        self.out_width = out_width
        self.label = label
        self.evals = 0
        self.max_evals: int | None = None

    def __call__(self, x: BitVec) -> BitVec:
        if x.width != self.in_width:
            raise ValueError(f"input width {x.width}, map expects {self.in_width}")
        evals, cap = self.evals, self.max_evals
        if cap is not None and evals >= cap:
            raise self._budget_exceeded()
        self.evals = evals + 1
        y = self.fn(x)
        if y.width != self.out_width:
            raise self._width_error(y.width)
        return y

    def iterate(self, y: BitVec, k: int) -> list[int]:
        """The values of y, F(y), ..., F^k(y): exactly k evaluations."""
        if k < 0:
            raise ValueError(f"cannot iterate {k} times")
        n = self.in_width
        if n != self.out_width:
            raise ValueError("feedback iteration needs matching in/out widths")
        if y.width != n:
            raise ValueError(f"input width {y.width}, map expects {n}")
        fn, limit = self.fn, self._allowance(k)
        x, values = y, [y.value]
        calls = 0
        try:
            for calls in range(1, limit + 1):
                x = fn(x)
                if x.width != n:
                    raise self._width_error(x.width)
                values.append(x.value)
        finally:
            self.evals += calls  # the call that raised reached fn too
        if limit < k:
            raise self._budget_exceeded()
        return values

    def preimages(self, y: BitVec) -> list[BitVec]:
        """Every x with F(x) == y, in ascending order: one evaluation per
        input, 2^in_width in all."""
        n, out_width = self.in_width, self.out_width
        if y.width != out_width:
            raise ValueError("y width does not match the map output")
        if n < 1:
            raise ValueError("width must be >= 1")
        fn, size = self.fn, 1 << n
        limit = self._allowance(size)
        target = y.value  # widths are checked, so values suffice
        found = []
        new, bitvec, refcount = object.__new__, BitVec, sys.getrefcount
        set_value, set_width = _set_value, _set_width
        # BitVec(v, n) without its checks: n >= 1 was checked above and
        # 0 <= v < limit <= 2^n, so every input fits its width
        x = new(bitvec)
        set_width(x, n)
        alone = refcount(x)  # this frame's references, read as the loop does
        v = -1
        try:
            for v in range(limit):
                if refcount(x) != alone:  # fn, its output or found holds x
                    x = new(bitvec)
                    set_width(x, n)
                set_value(x, v)
                out = fn(x)
                if out.width != out_width:
                    raise self._width_error(out.width)
                if out.value == target:
                    found.append(x)
        finally:
            self.evals += v + 1  # input v reached fn, even if the call raised
        if limit < size:
            raise self._budget_exceeded()
        return found

    def _allowance(self, want: int) -> int:
        """How many of `want` further evaluations the budget leaves."""
        cap = self.max_evals
        return want if cap is None else max(0, min(want, cap - self.evals))

    def _budget_exceeded(self) -> EvalBudgetExceeded:
        return EvalBudgetExceeded(f"evaluation budget {self.max_evals} exhausted")

    def _width_error(self, width: int) -> ValueError:
        return ValueError(f"map produced width {width}, declared {self.out_width}")


@cache
def _stride(n: int) -> int:
    """Bits per term of a packed window of width n: the least of 8, 16,
    32, .. that holds n bits, so that each term is one array item up to
    64 bits, and a whole run of bytes past that."""
    return max(8, 1 << (n - 1).bit_length())


# array typecodes by item size in bits, for the strides of one machine word
_TYPECODES = {8 * array(code).itemsize: code for code in "BHIQ"}


def _pack(terms: tuple[int, ...], stride: int) -> int:
    """terms in one int, term t at bits t*stride .., term 0 lowest: one
    array (or, past a machine word, one bytes join) read as one int."""
    code = _TYPECODES.get(stride)
    if code:
        items = array(code, terms)
        if sys.byteorder == "big":
            items.byteswap()
        return int.from_bytes(items.tobytes(), "little")
    size = stride // 8
    return int.from_bytes(b"".join([t.to_bytes(size, "little") for t in terms]),
                          "little")


@dataclass(frozen=True, eq=False)
class MinPolyResult:
    """Least-degree annihilator of the first M terms of a window, or
    None, and why a window without one failed, measured when it is read.

    `status` is `unique` whenever minpoly is not None, with no rank
    measured; otherwise it is `saturated` when rank H(M/2) is full and
    `rank-deficient` when it is not.  It is cached like
    InversionReport.period_estimate, on the first read, and reads only
    the first M terms, which a later extend of the window leaves as they
    were.  Equality is identity.
    """

    minpoly: Gf2Poly | None
    window: GrowingWindow = field(repr=False)
    M: int = field(repr=False)

    @cached_property
    def status(self) -> str:
        if self.minpoly is not None:
            return UNIQUE
        full = _hankel_rank(self.window, self.M) == self.M // 2
        return SATURATED if full else RANK_DEFICIENT


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


def generate(F: BlackBoxMap, y: BitVec, M: int | None = None) -> GrowingWindow:
    """The window of the first M terms of the feedback sequence, M = 4n
    when None for n the input width: exactly M-1 evaluations.  The
    window checks its terms and packs them once, here."""
    if M is None:
        M = 4 * F.in_width
    if M < 2:
        raise ValueError("window length M must be >= 2")
    return GrowingWindow(tuple(F.iterate(y, M - 1)), F.in_width)


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


# bytes.translate table: ASCII "0"/"1" to the bytes 0/1 that compress reads
_BIT_SELECTORS = bytes.maketrans(b"01", b"\x00\x01")


def _selectors(mask: int) -> bytes:
    """The bits of mask, lowest first, as the 0/1 bytes compress reads."""
    return format(mask, "b")[::-1].encode().translate(_BIT_SELECTORS)


def _combine(terms: tuple[int, ...], mask: int) -> int:
    """XOR of terms[i] over the set bits i of mask, all in C: the bits
    of mask, lowest first, select the terms that reduce XORs."""
    return reduce(xor, compress(terms, _selectors(mask)), 0)


# bytes.translate table: a byte to ASCII "0" or "1" by its lowest bit
_LOW_BIT_DIGITS = bytes(0x30 | (b & 1) for b in range(256))


def minimal_polynomial(window: GrowingWindow) -> MinPolyResult:
    """Least-degree monic annihilator of degree <= M/2 of the window, or
    None when there is none: the window's solve.  This only decides: no
    Hankel rank is measured here, and the result measures status, on
    the M terms decided, when read.
    """
    return MinPolyResult(window.solve(), window, len(window.terms))


class GrowingWindow:
    """The window terms[t] = F^(t)(terms[0]) of an iterated map, t = 0 ..
    M-1, each term the int value of a `width`-bit vector: the one window
    type, from generate through the solve to the inversion formula.  It
    grows at its end, and each solve decides the terms so far.

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
    The lcm loop decides each residual window it runs on: each m_u
    annihilates <u, y(t)> on the window, and so does any multiple of
    degree <= M/2, so once the vectors of the spanning schedule are in,
    an lcm still at or below M/2 annihilates every coordinate.  It reads
    the next vector only when the lcm failed that check.

    A solve reads the whole window's projections only up to the first,
    mp = m_u, that is not zero on it; the schedule spans, so one is
    unless the window is zero.  When mp fails the window, the solve
    completes it from its residual.  mp divides the least annihilator
    A* if there is one, so A* = mp Q* with Q* other than 1 and of degree
    at most room = floor(M/2) - deg mp.  Q* annihilates the residual
    r(t) = sum of y(t + i) over the terms X^i of mp on all its M - deg mp
    terms, and the projections read for mp vanish on r, so the rest of
    the schedule spans what r holds.  The lcm loop decides the first
    K = 2, 4, 8, .. terms of r, up to 2 room, and each new answer Q, the
    least annihilator of the prefix, is tried as mp Q on the whole
    window.  Let `held` count the leading windows of y that mp, and then
    the last product tried, annihilates; Q then annihilates the first
    held + deg Q terms of r (with Q = 1 for mp).  A prefix of r is zero
    only while K <= held < room; it decides None and tries no product.
    - A product that annihilates the window is A*: its degree is at most
      M/2, so A* divides it, and A*/mp divides Q.  A*/mp annihilates the
      prefix, whose least annihilator is Q, so A*/mp = Q.
    - Once held >= room there is no A*: Q and Q* both annihilate the
      first held + deg Q >= deg Q + deg Q* terms of r, so they agree on
      all of r, and the product would annihilate the window.  With
      Q = 1 this is the rule for mp itself, and it covers room < 1.
    - At K = 2 room there is no A* either: a prefix with no annihilator
      of degree <= room has no Q*, and a Q of it has degree <= room, so
      its product holds at least 2 room - deg Q >= room windows.
    So the residual always ends in a decision.  A missing factor of
    small degree turns up in a short prefix; a residual that is noise
    takes all 2 room terms to prove None.

    Each projection a solve reads keeps its bits <u, y(t)> and its
    Berlekamp-Massey state, so after `extend` a solve pays only the
    parity fold and the Berlekamp-Massey steps of the terms added since
    that projection was last read.  The window is checked and packed
    once, into `packed`, when it is built, and `extend` packs only the
    terms it adds.  A projection the solve no longer reaches stays where
    it was until a later solve needs it again.  Residual windows are
    built afresh by each solve, as mp may change.

    The all-zero window gets X+1: every polynomial annihilates it, and
    X+1 is the least-degree one with an invertible constant term, which
    inverts to x = y = 0.
    """

    def __init__(self, terms: tuple[int, ...], width: int):
        if len(terms) < 1:
            raise ValueError("empty sequence")
        if width < 1 or min(terms) < 0 or max(terms) >= 1 << width:
            raise ValueError(f"terms do not fit width {width}")
        self.terms, self.width = terms, width
        self.stride = _stride(width)
        self.packed = _pack(terms, self.stride)  # term t at bits t*stride ..
        # per projection read so far: [terms read, s, C, B, L, gap]
        self._read: list[list[int]] = []

    def extend(self, values) -> None:
        """Append terms, each the int value of a `width`-bit vector: only
        they are packed, and ORed in above the old terms.  They are not
        checked: each comes from F.iterate, which checks every output's
        width, and a residual is an XOR of checked terms."""
        new = tuple(values)
        self.packed |= _pack(new, self.stride) << (self.stride * len(self.terms))
        self.terms += new

    def solve(self) -> Gf2Poly | None:
        M = len(self.terms)
        if M < 2:
            raise ValueError("need at least 2 terms")
        if not self.packed:
            return Gf2Poly(0b11)
        schedule = _projections(self.width)
        for i, u in enumerate(schedule):  # one is not zero: they span
            mp = self._project(i, u)
            if mp != ONE:
                break
        if 2 * mp.degree > M:
            return None
        return self._complete(mp, schedule[i + 1:], self._annihilated(mp.bits))

    def _decide(self, schedule: tuple[int, ...]) -> Gf2Poly | None:
        """The least annihilator of degree <= M/2 of a residual window,
        or None, from its projections onto `schedule`, read in order and
        joined by lcm until the lcm annihilates the window; every vector
        of the full schedule before `schedule` vanishes on the window.
        A zero window, which no product can complete, gets None too."""
        M = len(self.terms)
        if not self.packed:
            return None
        found = ONE
        for i, u in enumerate(schedule):
            mp = self._project(i, u)
            if 2 * mp.degree > M:
                return None
            if found != ONE:
                mp = _lcm_within(found, mp, M)
                if mp is None:
                    return None
            if mp != found and self._annihilated(mp.bits) == M - mp.degree:
                return mp
            found = mp
        return None

    def _complete(self, mp: Gf2Poly, schedule: tuple[int, ...],
                  held: int) -> Gf2Poly | None:
        """mp Q, for Q the least annihilator of the residual of mp (mp
        itself when it annihilates the window), or None when there is
        none (see GrowingWindow).  mp annihilates the first `held`
        windows, and `schedule` is what follows the projections read for
        mp."""
        terms = self.terms
        M = len(terms)
        if held == M - mp.degree:
            return mp
        room = M // 2 - mp.degree
        if held >= room:
            return None
        selectors = _selectors(mp.bits)
        residual = GrowingWindow(_residual(terms, selectors, 0, 2), self.width)
        last = None
        while True:
            K = len(residual.terms)
            q = residual._decide(schedule)
            if q is not None and q != last:
                last, p = q, mp * q
                held = self._annihilated(p.bits, K - q.degree)
                if held == M - p.degree:
                    return p
            if held >= room or K == 2 * room:
                return None
            residual.extend(_residual(terms, selectors, K, min(2 * K, 2 * room)))

    def _project(self, i: int, u: int) -> Gf2Poly:
        """m_u of the window for projection i of the schedule, u; the
        solve reads projections in order, so i is at most one past the
        last one read."""
        if i == len(self._read):
            self._read.append([0, 0, 1, 1, 0, 1])
        state = self._read[i]
        read, s, C, B, L, gap = state
        M = len(self.terms)
        if read < M:
            # s_t = <u, y(t)> at bit M-1-t, the order _bm_steps reads
            s = (s << (M - read)) | self._parities(u, read)
            C, B, L, gap = _bm_steps(s, read, M, C, B, L, gap)
            state[:] = M, s, C, B, L, gap
        return _bm_poly(C, L)

    def _parities(self, u: int, start: int) -> int:
        """<u, y(t)> for t = start .. M-1, term `start` at the highest
        bit, read from the packed window by a parity fold.  The terms from
        `start` on are masked by u repeated once per stride; shift-XORs by
        2^(k-1), .., 2, 1, for the least 2^k >= n, leave each term's
        parity at the lowest bit of its stride, and so of its lowest byte,
        and one slice takes those bytes, in term order, as the digits of
        one int."""
        n, stride = self.width, self.stride
        size, count = stride // 8, len(self.terms) - start
        x = (self.packed >> (start * stride)) & int.from_bytes(
            u.to_bytes(size, "little") * count, "little")
        shift = 1 << (n - 1).bit_length()
        while shift := shift >> 1:
            x ^= x >> shift
        return int(x.to_bytes(count * size, "little")[::size]
                   .translate(_LOW_BIT_DIGITS), 2)

    def _annihilated(self, poly: int, start: int = 0) -> int:
        """How many windows, from window 0 on, the polynomial with
        coefficient i at bit i of `poly` annihilates before the first one
        it does not: all M - deg of them when it annihilates the window.
        The caller knows that the windows before `start` hold.

        Window `start` is tested first, with one _combine: a candidate
        that fails there costs no pass over the window.  Past it, one
        shift and XOR of the packed window per set bit leaves window t's
        sum at stride t, so the lowest set bit counts.
        """
        terms = self.terms
        if _combine(terms[start:start + poly.bit_length()], poly):
            return start
        packed, stride = self.packed, self.stride
        windows = len(terms) - poly.bit_length() + 1
        acc = 0
        b = poly
        while b:
            i = (b & -b).bit_length() - 1
            acc ^= packed >> (i * stride)
            b &= b - 1
        acc &= (1 << (windows * stride)) - 1
        return ((acc & -acc).bit_length() - 1) // stride if acc else windows


def _residual(terms: tuple[int, ...], selectors: bytes, start: int,
              stop: int) -> tuple[int, ...]:
    """Terms start .. stop-1 of the residual of the window under the
    polynomial whose _selectors are `selectors`: term t is the _combine
    of the terms from t on."""
    width = len(selectors)
    return tuple(reduce(xor, compress(terms[t:t + width], selectors), 0)
                 for t in range(start, stop))


def _lcm_within(a: Gf2Poly, b: Gf2Poly, M: int) -> Gf2Poly | None:
    """lcm(a, b) if its degree is at most M/2, else None; a and b have
    degree <= M/2, and M, a residual window's length, is even.

    When the larger, a, has degree M/2, the lcm stays within only by
    being a, that is, when b divides a: one remainder decides, where the
    gcd of two polynomials of degree about M/2 would take a division per
    step of Euclid's algorithm.  It is 0 when b is a, and not 0 for any
    other b of a's degree.
    """
    if a.degree < b.degree:
        a, b = b, a
    if 2 * a.degree >= M:
        return a if not (a % b).bits else None
    mp = lcm(a, b)
    return mp if 2 * mp.degree <= M else None


def _hankel_rank(window: GrowingWindow, M: int) -> int:
    """rank H(M/2) of the first M terms of the window.  Column j of the
    stacked Hankel system, terms j .. j + M/2 - 1, is one shift and mask
    of the packed window (its bits between terms are zero in every
    column), so no column reads a term past M - 1, and each column is
    reduced by the basis vector with its leading bit."""
    half, stride = M // 2, window.stride
    packed, mask = window.packed, (1 << (stride * half)) - 1
    basis: dict[int, int] = {}  # leading bit -> basis vector
    for j in range(half):
        vec = (packed >> (stride * j)) & mask
        while vec and (hit := basis.get(vec.bit_length())):
            vec ^= hit
        if vec:
            basis[vec.bit_length()] = vec
    return len(basis)


def invert_from_minpoly(window: GrowingWindow, mp: Gf2Poly) -> BitVec:
    """Candidate preimage of terms[0] from an annihilator with mp(0) = 1,
    read from the window's terms and width alone."""
    m = mp.degree
    if m < 1:
        raise ValueError("annihilator must have degree >= 1")
    if mp.constant_term == 0:
        raise ValueError("constant term is zero: the window does not certify "
                         "a purely periodic orbit")
    if len(window.terms) < m:
        raise ValueError("window shorter than the annihilator degree")
    # bit i-1 of mp.bits >> 1 is a_i, and a_m = 1 selects terms[m-1]
    return BitVec(_combine(window.terms, mp.bits >> 1), window.width)


def local_inversion(F: BlackBoxMap, y: BitVec, M: int | None = None, *,
                    grow: bool = False) -> InversionReport:
    """Window, minimal polynomial, inversion formula, verification.

    Uses M-1 evaluations for the window (M = 4n when None, as in
    generate) plus one fresh evaluation to check F(x) == y when the
    minimal polynomial has constant term 1.  Never returns an unverified
    candidate: every failure (no annihilator of degree <= M/2, zero
    constant term, verification mismatch) is insufficient data.

    With grow, an unsolved window gains max(n, ceil(M/16)) terms, from F
    iterated at its last term, and is solved again until a solve
    verifies, the minimal polynomial has a zero constant term (y is not
    on a purely periodic orbit), or the window has passed 2^(n+1) + 2
    terms, which no orbit needs, as LC <= period <= 2^n.  Each term is
    evaluated once and each solve resumes the last one's Berlekamp-
    Massey state; the report is the last solve's, map_evals counts all.
    """
    before, n = F.evals, F.in_width
    window = generate(F, y, M)
    while True:
        M = len(window.terms)
        mp = minimal_polynomial(window).minpoly
        if mp is not None and mp.constant_term == 1:
            x = invert_from_minpoly(window, mp)
            if F(x) == y:
                return InversionReport(SOLUTION, x, mp, M, F.evals - before)
        if (not grow or M > (1 << (n + 1)) + 2
                or mp is not None and mp.constant_term == 0):
            return InversionReport(INSUFFICIENT_DATA, None, mp, M, F.evals - before)
        window.extend(F.iterate(BitVec(window.terms[-1], n), max(n, -(-M // 16)))[1:])


def _bm_steps(s: int, t: int, M: int, C: int, B: int, L: int,
              gap: int) -> tuple[int, int, int, int]:
    """Berlekamp-Massey over GF(2) on s_t at bit M-1-t: steps t .. M-1
    from the state (C, B, L, gap) that steps 0 .. t-1 left, returning
    the state after step M-1.

    C is the connection polynomial (bit i = c_i, c_0 = 1) of degree at
    most L, with s_t = sum c_i s_{t-i} for L <= t < M, B is C before the
    last change of L, and gap the number of steps since that change.
    Steps 0 .. M-1 from (1, 1, 0, 1) are the whole algorithm; a sequence
    that grows at its end shifts s left by the new terms and resumes at t.
    """
    for t, k in enumerate(range(M - 1 - t, -1, -1), t):
        if (C & (s >> k)).bit_count() & 1:  # bit i of s >> k is s_{t-i}
            if 2 * L <= t:
                C, B = C ^ (B << gap), C
                L = t + 1 - L
                gap = 0
            else:
                C ^= B << gap
        gap += 1
    return C, B, L, gap


def _bm_poly(C: int, L: int) -> Gf2Poly:
    """The minimal polynomial X^L C(1/X) of a Berlekamp-Massey state."""
    return Gf2Poly(int(format(C, f"0{L + 1}b")[::-1], 2))


def bm_crosscheck(window: GrowingWindow) -> Gf2Poly:
    """Minimal polynomial by an independent route: scalar Berlekamp-Massey
    per bit component, then the lcm of the component polynomials.

    Identically zero components contribute nothing.  The all-zero window
    gets X+1, the same convention as minimal_polynomial.
    """
    n = window.width
    M = len(window.terms)
    # Character t*n + b is bit b of term t, so component b is bits[b::n]
    # and its int has s_t at bit M-1-t, the order _bm_steps reads.
    bits = "".join(format(t, f"0{n}b")[::-1] for t in window.terms)
    result = ONE
    for b in range(n):
        comp = int(bits[b::n], 2)
        if comp:  # all M steps of Berlekamp-Massey from the initial state
            C, _, L, _ = _bm_steps(comp, 0, M, 1, 1, 0, 1)
            result = lcm(result, _bm_poly(C, L))
    if result.degree < 1:
        return Gf2Poly(0b11)
    return result
