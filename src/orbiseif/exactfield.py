"""Exact arithmetic in the real field Q(sqrt2, sqrt5), on a grid of eighths.

Every coordinate of an element of T*, O* or I* is 0, +-1, +-1/2,
+-sqrt2/2 or +-(sqrt5 +- 1)/4 (Conway & Smith, On Quaternions and
Octonions, 2003, ch. 3), and every value the package forms from them is
(a + b*sqrt2 + c*sqrt5 + d*sqrt10)/8 with integers a, b, c, d.  A
QuadFieldElement is the tuple (a, b, c, d), equal and hashed as such.

Only the ring operations are offered: +, -, *, negation, equality and a
zero test.  A product off the grid of eighths raises ArithmeticError (the
denominator 4 would not do: ((sqrt5 + 1)/4)^2 = (3 + sqrt5)/8).  The
oracle never divides by or compares a general element; the few
reciprocals and signs it needs are those of tabulated cosines.
"""

from __future__ import annotations

import math
from operator import add, neg, sub

DENOMINATOR = 8


class QuadFieldElement(tuple):
    """a + b*sqrt2 + c*sqrt5 + d*sqrt10, stored as the ints (8a, 8b, 8c, 8d)."""

    __slots__ = ()

    def __new__(cls, a=0, b=0, c=0, d=0):
        eighths = [DENOMINATOR * x for x in (a, b, c, d)]    # x an int or Fraction
        if any(n != int(n) for n in eighths):
            raise ValueError(f"{(a, b, c, d)} are not all multiples "
                             f"of 1/{DENOMINATOR}")
        return _new(cls, map(int, eighths))

    def __add__(self, other):
        return _new(QuadFieldElement, map(add, self, other))

    def __neg__(self):
        return _new(QuadFieldElement, map(neg, self))

    def __sub__(self, other):
        return _new(QuadFieldElement, map(sub, self, other))

    def __mul__(self, other):
        a1, b1, c1, d1 = self
        a2, b2, c2, d2 = other
        # sqrt2*sqrt5 = sqrt10, sqrt2*sqrt10 = 2*sqrt5, sqrt5*sqrt10 = 5*sqrt2;
        # the sums are in units of 1/DENOMINATOR^2, and on the grid when each
        # is a multiple of DENOMINATOR
        a = a1 * a2 + 2 * b1 * b2 + 5 * c1 * c2 + 10 * d1 * d2
        b = a1 * b2 + b1 * a2 + 5 * (c1 * d2 + d1 * c2)
        c = a1 * c2 + c1 * a2 + 2 * (b1 * d2 + d1 * b2)
        d = a1 * d2 + d1 * a2 + b1 * c2 + c1 * b2
        if a % DENOMINATOR or b % DENOMINATOR or c % DENOMINATOR or d % DENOMINATOR:
            raise ArithmeticError(f"({self}) * ({other}) is not on the grid "
                                  f"of 1/{DENOMINATOR}")
        return _new(QuadFieldElement, (a // DENOMINATOR, b // DENOMINATOR,
                                       c // DENOMINATOR, d // DENOMINATOR))

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return not any(self)

    def __repr__(self):
        return f"QuadFieldElement({', '.join(map(_text, self))})"

    def __str__(self):
        parts = [_text(n) + tag for n, tag in zip(self, ("", "*s2", "*s5", "*s10"))
                 if n]
        return " + ".join(parts) if parts else "0"


_new = tuple.__new__


def _text(n: int) -> str:
    """The coefficient n/8 in lowest terms, as str(Fraction) writes it."""
    g = math.gcd(n, DENOMINATOR)
    return str(n // g) if g == DENOMINATOR else f"{n // g}/{DENOMINATOR // g}"


QF_HALF = _new(QuadFieldElement, (4, 0, 0, 0))
# sqrt(1/2) = (1/2)*sqrt2
QF_HALF_SQRT2 = _new(QuadFieldElement, (0, 4, 0, 0))
# tau/2 and 1/(2 tau) for the golden ratio tau = (sqrt5+1)/2
QF_HALF_TAU = _new(QuadFieldElement, (2, 0, 2, 0))
QF_HALF_TAU_INV = _new(QuadFieldElement, (-2, 0, 2, 0))
