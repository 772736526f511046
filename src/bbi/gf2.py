"""Bit vectors and polynomials over GF(2).

Everything is packed into Python ints.  A BitVec of width n stores its
coordinates in the low n bits of an int, index 0 being the least
significant bit.  A Gf2Poly stores coefficient i of X^i in bit i, so the
int 0b1011 is X^3 + X + 1.  Addition in both cases is XOR of those
ints.  All values are immutable; operations return new objects.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass
from math import isqrt


class BitVec:
    """Element of GF(2)^width, little-endian: coordinate 0 is the LSB of
    `value`.

    Immutable, with the equality, hash and repr of a frozen dataclass.
    Every map evaluation builds one, so it is a slotted class whose
    __init__ stores through the slot descriptors instead of going round
    the assignment guard with object.__setattr__.  Its slots give it no
    __dict__ and no __weakref__, and BlackBoxMap.preimages relies on
    that when it reuses an input that only it references.
    """

    __slots__ = ("value", "width")

    def __init__(self, value: int, width: int):
        if width < 1:
            raise ValueError("width must be >= 1")
        if not 0 <= value < (1 << width):
            raise ValueError(f"value {value:#x} does not fit width {width}")
        _set_value(self, value)
        _set_width(self, width)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.value == other.value and self.width == other.width
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.value, self.width))

    def __repr__(self) -> str:
        return f"BitVec(value={self.value!r}, width={self.width!r})"

    def __reduce__(self):
        # copy and pickle rebuild through __init__, not the blocked __setattr__
        return BitVec, (self.value, self.width)

    def hex(self) -> str:
        return f"0x{self.value:0{(self.width + 3) // 4}x}"

    def __str__(self) -> str:
        return format(self.value, f"0{self.width}b")


_set_value = BitVec.value.__set__
_set_width = BitVec.width.__set__


@dataclass(frozen=True)
class Gf2Poly:
    """Polynomial over GF(2); bit i of `bits` is the coefficient of X^i.
    Arithmetic with a non-Gf2Poly operand raises TypeError."""

    bits: int

    def __post_init__(self):
        if self.bits < 0:
            raise ValueError("negative coefficient mask")

    @property
    def is_zero(self) -> bool:
        return self.bits == 0

    @property
    def degree(self) -> int:
        """Degree, or -1 for the zero polynomial."""
        return self.bits.bit_length() - 1

    @property
    def constant_term(self) -> int:
        return self.bits & 1

    def __mul__(self, other: "Gf2Poly") -> "Gf2Poly":
        """Shift-and-XOR, one step per bit of the shorter operand."""
        if not isinstance(other, Gf2Poly):
            return NotImplemented
        a, b, acc = self.bits, other.bits, 0
        if a.bit_length() > b.bit_length():
            a, b = b, a
        while a:
            if a & 1:
                acc ^= b
            a >>= 1
            b <<= 1
        return Gf2Poly(acc)

    def __divmod__(self, other: "Gf2Poly") -> tuple["Gf2Poly", "Gf2Poly"]:
        if not isinstance(other, Gf2Poly):
            return NotImplemented
        if other.bits == 0:
            raise ZeroDivisionError("division by zero polynomial")
        q, r = _divmod_bits(self.bits, other.bits)
        return Gf2Poly(q), Gf2Poly(r)

    def __mod__(self, other: "Gf2Poly") -> "Gf2Poly":
        if not isinstance(other, Gf2Poly):
            return NotImplemented
        return divmod(self, other)[1]

    def __floordiv__(self, other: "Gf2Poly") -> "Gf2Poly":
        if not isinstance(other, Gf2Poly):
            return NotImplemented
        return divmod(self, other)[0]

    def __str__(self) -> str:
        if self.bits == 0:
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            if (self.bits >> i) & 1:
                parts.append("1" if i == 0 else ("X" if i == 1 else f"X^{i}"))
        return " + ".join(parts)


def _divmod_bits(r: int, d: int) -> tuple[int, int]:
    """Quotient and remainder of coefficient masks, d nonzero."""
    q = 0
    dn = d.bit_length()
    while r.bit_length() >= dn:
        shift = r.bit_length() - dn
        q ^= 1 << shift
        r ^= d << shift
    return q, r


ZERO = Gf2Poly(0)
ONE = Gf2Poly(1)
X = Gf2Poly(2)


def gcd(a: Gf2Poly, b: Gf2Poly) -> Gf2Poly:
    """Monic gcd; gcd(0, 0) is rejected."""
    if a.is_zero and b.is_zero:
        raise ValueError("gcd(0, 0) is undefined")
    # on the masks: a Gf2Poly per remainder would cost more than the step
    a, b = a.bits, b.bits
    while b:
        a, b = b, _divmod_bits(a, b)[1]
    return Gf2Poly(a)


def lcm(a: Gf2Poly, b: Gf2Poly) -> Gf2Poly:
    """Monic lcm; lcm(0, 0) is rejected, lcm with one zero argument is 0.
    a times the cofactor b / gcd: a * b is never built."""
    if a.is_zero and b.is_zero:
        raise ValueError("lcm(0, 0) is undefined")
    if a.is_zero or b.is_zero:
        return ZERO
    return a * (b // gcd(a, b))


def powmod(a: Gf2Poly, e: int, mod: Gf2Poly) -> Gf2Poly:
    """a^e reduced by mod, by square-and-multiply on the coefficient ints.

    The exponent is read from its top bit down, so every multiply is by
    the reduced base itself, and costs one step per bit of the base:
    two for X, the base that primitivity checks raise.
    """
    if e < 0:
        raise ValueError("negative exponent")
    if mod.degree < 1:
        raise ValueError("modulus must have degree >= 1")
    m = mod.bits
    top = 1 << mod.degree
    base = _divmod_bits(a.bits, m)[1]
    acc = 1
    for bit in format(e, "b"):
        acc = _mulmod_bits(acc, acc, m, top)
        if bit == "1":
            acc = _mulmod_bits(acc, base, m, top)
    return Gf2Poly(acc)


def _mulmod_bits(a: int, b: int, m: int, top: int) -> int:
    """a * b mod m for a, b already reduced; top is the leading bit of m.
    Each bit of b adds the running a * X^i, kept reduced by one
    conditional XOR per shift, so the cost is the bit length of b."""
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        b >>= 1
        a <<= 1
        if a & top:
            a ^= m
    return acc


def order(p: Gf2Poly, bound: int = 1 << 20) -> int | None:
    """Least N >= 1 with X^N = 1 mod p, or None if no N <= bound works.

    Requires p(0) != 0 (otherwise X is a zero divisor and no such N
    exists) and deg p >= 1.  Baby-step giant-step (Shanks) with
    s = ceil(sqrt(bound)): the baby steps X^0 .. X^(s-1) go into a table
    (a shift and a conditional XOR each), then the giant steps X^s,
    X^2s, ... are looked up in it.  X is a unit mod p, so the first hit
    X^(i*s) = X^j gives N = i*s - j exactly.  Cost: O(sqrt(bound))
    multiplications mod p, each at most deg p XORs, where walking
    X^1, X^2, ... would take up to `bound` steps.
    """
    if p.constant_term == 0:
        raise ValueError("order requires a nonzero constant term")
    if p.degree < 1:
        raise ValueError("order requires degree >= 1")
    if bound < 1:
        raise ValueError("bound must be >= 1")
    m, d = p.bits, p.degree
    top = 1 << d
    s = isqrt(bound - 1) + 1
    baby = {1: 0}
    x = 1
    for j in range(1, s):
        x <<= 1
        if x & top:
            x ^= m
        if x == 1:
            return j
        baby[x] = j
    # rows[k] = X^(s+k) mod p: g * X^s mod p is the XOR of rows[k] over
    # the set bits k of g.
    rows = []
    for _ in range(d):
        x <<= 1
        if x & top:
            x ^= m
        rows.append(x)
    giant = rows[0]
    i = 1
    while i * s - (s - 1) <= bound:
        j = baby.get(giant)
        if j is not None:
            n = i * s - j
            return n if n <= bound else None
        g, giant = giant, 0
        while g:
            low = g & -g
            giant ^= rows[low.bit_length() - 1]
            g ^= low
        i += 1
    return None
