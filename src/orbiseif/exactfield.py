"""Exact arithmetic in the real field Q(sqrt2, sqrt5).

Elements are stored as a + b*sqrt2 + c*sqrt5 + d*sqrt10 with rational
coefficients, radicals cleared from denominators (sqrt2/2 is stored as
(1/2)*sqrt2).  This field is just big enough to hold the coordinates of
the binary octahedral group (which needs sqrt2/2) and the binary
icosahedral group (which needs the golden ratio (sqrt5+1)/2), so group
arithmetic on those quaternions stays exact.

Only the ring operations are offered: +, -, *, negation, equality and a
zero test, between elements of the field.  The oracle never divides by
or compares a general element; the few reciprocals and signs it needs
are those of tabulated cosines, read off its own table.
"""

from __future__ import annotations

from fractions import Fraction


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


class QuadFieldElement:
    """a + b*sqrt2 + c*sqrt5 + d*sqrt10 with Fraction coefficients."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a=0, b=0, c=0, d=0):
        self.a = _frac(a)
        self.b = _frac(b)
        self.c = _frac(c)
        self.d = _frac(d)

    def __add__(self, other):
        return QuadFieldElement(self.a + other.a, self.b + other.b,
                                self.c + other.c, self.d + other.d)

    def __neg__(self):
        return QuadFieldElement(-self.a, -self.b, -self.c, -self.d)

    def __sub__(self, other):
        return QuadFieldElement(self.a - other.a, self.b - other.b,
                                self.c - other.c, self.d - other.d)

    def __mul__(self, other):
        a1, b1, c1, d1 = self.a, self.b, self.c, self.d
        a2, b2, c2, d2 = other.a, other.b, other.c, other.d
        # sqrt2*sqrt5 = sqrt10, sqrt2*sqrt10 = 2*sqrt5, sqrt5*sqrt10 = 5*sqrt2
        return QuadFieldElement(
            a1 * a2 + 2 * b1 * b2 + 5 * c1 * c2 + 10 * d1 * d2,
            a1 * b2 + b1 * a2 + 5 * (c1 * d2 + d1 * c2),
            a1 * c2 + c1 * a2 + 2 * (b1 * d2 + d1 * b2),
            a1 * d2 + d1 * a2 + b1 * c2 + c1 * b2,
        )

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0 and self.c == 0 and self.d == 0

    def __eq__(self, other):
        if not isinstance(other, QuadFieldElement):
            return NotImplemented
        return (self.a, self.b, self.c, self.d) == (other.a, other.b, other.c, other.d)

    def __hash__(self):
        return hash((self.a, self.b, self.c, self.d))

    def __repr__(self):
        return f"QuadFieldElement({self.a!r}, {self.b!r}, {self.c!r}, {self.d!r})"

    def __str__(self):
        parts = []
        for coeff, tag in ((self.a, ""), (self.b, "*s2"), (self.c, "*s5"), (self.d, "*s10")):
            if coeff != 0:
                parts.append(f"{coeff}{tag}")
        return " + ".join(parts) if parts else "0"


# sqrt(1/2) = (1/2)*sqrt2
QF_HALF_SQRT2 = QuadFieldElement(0, Fraction(1, 2))
# tau/2 and 1/(2 tau) for the golden ratio tau = (sqrt5+1)/2
QF_HALF_TAU = QuadFieldElement(Fraction(1, 4), 0, Fraction(1, 4))
QF_HALF_TAU_INV = QuadFieldElement(Fraction(-1, 4), 0, Fraction(1, 4))
