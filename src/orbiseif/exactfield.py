"""Exact arithmetic in the real field Q(sqrt2, sqrt5).

Elements are stored as a + b*sqrt2 + c*sqrt5 + d*sqrt10 with rational
coefficients, radicals cleared from denominators (sqrt2/2 is stored as
(1/2)*sqrt2).  This field is just big enough to hold the coordinates of
the binary octahedral group (which needs sqrt2/2) and the binary
icosahedral group (which needs the golden ratio (sqrt5+1)/2), so group
arithmetic on those quaternions stays exact.

The field is Galois over Q with group Z/2 x Z/2 acting by the sign flips
sqrt2 -> -sqrt2 and sqrt5 -> -sqrt5; inverses are computed by
multiplying the three nontrivial conjugates and dividing by the rational
norm.
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
        object.__setattr__(self, "a", _frac(a))
        object.__setattr__(self, "b", _frac(b))
        object.__setattr__(self, "c", _frac(c))
        object.__setattr__(self, "d", _frac(d))

    def __setattr__(self, name, value):
        raise AttributeError("QuadFieldElement is immutable")

    # -- ring structure -------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        return QuadFieldElement(self.a + other.a, self.b + other.b,
                                self.c + other.c, self.d + other.d)

    __radd__ = __add__

    def __neg__(self):
        return QuadFieldElement(-self.a, -self.b, -self.c, -self.d)

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        other = _coerce(other)
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

    def conjugate(self, flip2: bool, flip5: bool) -> "QuadFieldElement":
        """Galois conjugate flipping the signs of sqrt2 and/or sqrt5."""
        s2 = -1 if flip2 else 1
        s5 = -1 if flip5 else 1
        return QuadFieldElement(self.a, s2 * self.b, s5 * self.c, s2 * s5 * self.d)

    def norm(self) -> Fraction:
        """Product of the four Galois conjugates; rational, zero iff self is."""
        p = self * self.conjugate(True, False)
        q = self.conjugate(False, True) * self.conjugate(True, True)
        n = p * q
        if n.b != 0 or n.c != 0 or n.d != 0:
            raise ArithmeticError(f"norm of {self} is not rational")
        return n.a

    def inverse(self) -> "QuadFieldElement":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("zero element of Q(sqrt2, sqrt5)")
        rest = (self.conjugate(True, False) * self.conjugate(False, True)
                * self.conjugate(True, True))
        inv_n = Fraction(1, 1) / n
        return QuadFieldElement(rest.a * inv_n, rest.b * inv_n,
                                rest.c * inv_n, rest.d * inv_n)

    # -- comparisons and hashing ------------------------------------------

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0 and self.c == 0 and self.d == 0

    def sign(self) -> int:
        """-1, 0 or 1 for the real value, exactly.

        Write the element as A + B*sqrt5 with A, B in Q(sqrt2).  When the
        signs of A and B differ, the larger of A^2 and 5*B^2 wins; the same
        split decides the sign of each element of Q(sqrt2).
        """
        a, b, c, d = self.a, self.b, self.c, self.d

        def squares_sign():
            # A^2 - 5 B^2 for A = a + b sqrt2, B = c + d sqrt2
            return _sign2(a * a + 2 * b * b - 5 * (c * c + 2 * d * d),
                          2 * a * b - 10 * c * d)

        return _sign_of_sum(_sign2(a, b), _sign2(c, d), squares_sign)

    def __eq__(self, other):
        if not isinstance(other, (QuadFieldElement, int, Fraction)):
            return NotImplemented
        other = _coerce(other)
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


def _sign_of_sum(sx: int, sy: int, squares_sign) -> int:
    """Sign of x + y from the signs of x and y and, called only when they
    disagree, the sign of x^2 - y^2."""
    if sx == sy or sy == 0:
        return sx
    if sx == 0:
        return sy
    return sx * squares_sign()


def _sign2(p: Fraction, q: Fraction) -> int:
    """Sign of p + q*sqrt2 for rational p, q."""
    return _sign_of_sum(_sign_rational(p), _sign_rational(q),
                        lambda: _sign_rational(p * p - 2 * q * q))


def _sign_rational(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def _coerce(x) -> QuadFieldElement:
    if isinstance(x, QuadFieldElement):
        return x
    return QuadFieldElement(x)


QF_ONE = QuadFieldElement(1)
# sqrt(1/2) = (1/2)*sqrt2
QF_HALF_SQRT2 = QuadFieldElement(0, Fraction(1, 2))
# tau/2 and 1/(2 tau) for the golden ratio tau = (sqrt5+1)/2
QF_HALF_TAU = QuadFieldElement(Fraction(1, 4), 0, Fraction(1, 4))
QF_HALF_TAU_INV = QuadFieldElement(Fraction(-1, 4), 0, Fraction(1, 4))
