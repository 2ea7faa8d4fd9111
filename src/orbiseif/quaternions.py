"""Unit quaternions in two exact representations, and pairs of them.

The 3-sphere is the group of unit quaternions z1 + z2*j.  A pair (p, q)
acts isometrically on it by h -> p*h*q^-1.  The Hopf fibers are the
orbits h -> e^(i t)*h, so every pair with a circle-type left factor
permutes them; the oracle reads the induced action on the base sphere
directly off the factors.

Two exact element representations are used:

* CircleJElement: e^(2*pi*i*t) or e^(2*pi*i*t)*j with t an exact
  rational.  This covers every cyclic and binary dihedral group of any
  order without leaving the rationals.
* AlgebraicQuaternion: coordinates in Q(sqrt2, sqrt5), enough for the
  binary tetrahedral, octahedral and icosahedral groups.

Products never need to mix the two representations (the left and right
factors of a pair live in separate groups), so mixing is an error.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .exactfield import QF_ONE, QuadFieldElement


class RepresentationMismatchError(TypeError):
    """Product of a circle-type and a field-type element was requested."""


class NotHopfPreservingError(ValueError):
    """Pair whose left factor is not circle-type; it moves the fibration."""


HALF = Fraction(1, 2)


# ---------------------------------------------------------------------------
# circle-with-j representation
# ---------------------------------------------------------------------------

class CircleJElement:
    """e^(2*pi*i*angle), times j when jflag is set; angle kept in [0, 1).

    Immutable and hashable on the reduced (numerator, denominator, jflag)
    triple; these elements are dictionary keys throughout the group
    machinery, so the hash is cached.
    """

    __slots__ = ("angle", "jflag", "_key")

    def __init__(self, angle, jflag: bool = False):
        a = (angle if isinstance(angle, Fraction) else Fraction(angle)) % 1
        object.__setattr__(self, "angle", a)
        object.__setattr__(self, "jflag", bool(jflag))
        object.__setattr__(self, "_key",
                           (a.numerator, a.denominator, bool(jflag)))

    def __setattr__(self, name, value):
        raise AttributeError("CircleJElement is immutable")

    def __eq__(self, other):
        if not isinstance(other, CircleJElement):
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return f"CircleJElement({self.angle!r}, {self.jflag})"

    def multiply(self, other: "CircleJElement") -> "CircleJElement":
        # j * e^(i t) = e^(-i t) * j  and  j^2 = -1 = e^(2 pi i / 2).
        if not self.jflag:
            return CircleJElement(self.angle + other.angle, other.jflag)
        if not other.jflag:
            return CircleJElement(self.angle - other.angle, True)
        return CircleJElement(self.angle - other.angle + HALF, False)

    def inverse(self) -> "CircleJElement":
        if not self.jflag:
            return CircleJElement(-self.angle, False)
        # (t, j)^-1 = (t + 1/2, j): solve (t,j)*(u,j) = (t - u + 1/2, 1) = identity.
        return CircleJElement(self.angle + HALF, True)

    def is_identity(self) -> bool:
        return not self.jflag and self.angle == 0


CIRCLE_ONE = CircleJElement(Fraction(0), False)


def circle_root(k: int, power: int = 1) -> CircleJElement:
    """e^(2*pi*i*power/k)."""
    return CircleJElement(Fraction(power, k), False)


CIRCLE_J = CircleJElement(Fraction(0), True)


# ---------------------------------------------------------------------------
# algebraic quaternion representation
# ---------------------------------------------------------------------------

class AlgebraicQuaternion:
    """w + x*i + y*j + z*k with coordinates in Q(sqrt2, sqrt5)."""

    __slots__ = ("w", "x", "y", "z", "_key")

    def __init__(self, w: QuadFieldElement, x: QuadFieldElement,
                 y: QuadFieldElement, z: QuadFieldElement):
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "_key", tuple(
            (c.a.numerator, c.a.denominator, c.b.numerator, c.b.denominator,
             c.c.numerator, c.c.denominator, c.d.numerator, c.d.denominator)
            for c in (w, x, y, z)))

    def __setattr__(self, name, value):
        raise AttributeError("AlgebraicQuaternion is immutable")

    def __eq__(self, other):
        if not isinstance(other, AlgebraicQuaternion):
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return f"AlgebraicQuaternion({self.w}, {self.x}, {self.y}, {self.z})"

    def multiply(self, other: "AlgebraicQuaternion") -> "AlgebraicQuaternion":
        w1, x1, y1, z1 = self.w, self.x, self.y, self.z
        w2, x2, y2, z2 = other.w, other.x, other.y, other.z
        return AlgebraicQuaternion(
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        )

    def norm_squared(self) -> Fraction:
        n = self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z
        assert n.b == 0 and n.c == 0 and n.d == 0
        return n.a

    def inverse(self) -> "AlgebraicQuaternion":
        # Unit quaternion: inverse is the conjugate.
        assert self.norm_squared() == 1
        return AlgebraicQuaternion(self.w, -self.x, -self.y, -self.z)

    def is_identity(self) -> bool:
        return self.w == QF_ONE and self.x.is_zero() and self.y.is_zero() and self.z.is_zero()


def quat_rational(w, x, y, z) -> AlgebraicQuaternion:
    return AlgebraicQuaternion(QuadFieldElement(w), QuadFieldElement(x),
                               QuadFieldElement(y), QuadFieldElement(z))


QUAT_I = quat_rational(0, 1, 0, 0)
QUAT_J = quat_rational(0, 0, 1, 0)
QUAT_K = quat_rational(0, 0, 0, 1)


GroupElement = Union[CircleJElement, AlgebraicQuaternion]


def multiply(a: GroupElement, b: GroupElement) -> GroupElement:
    """Exact group product; both factors must carry the same representation."""
    if isinstance(a, CircleJElement) and isinstance(b, CircleJElement):
        return a.multiply(b)
    if isinstance(a, AlgebraicQuaternion) and isinstance(b, AlgebraicQuaternion):
        return a.multiply(b)
    raise RepresentationMismatchError(
        f"cannot multiply {type(a).__name__} by {type(b).__name__}")


def inverse(a: GroupElement) -> GroupElement:
    return a.inverse()


def element_negate(a: GroupElement) -> GroupElement:
    if isinstance(a, CircleJElement):
        return CircleJElement(a.angle + HALF, a.jflag)
    return AlgebraicQuaternion(-a.w, -a.x, -a.y, -a.z)


# ---------------------------------------------------------------------------
# pairs acting on S^3
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PairElement:
    """(p, q) in S^3 x S^3 acting by h -> p*h*q^-1."""

    left: GroupElement
    right: GroupElement

    def multiply(self, other: "PairElement") -> "PairElement":
        return PairElement(multiply(self.left, other.left),
                           multiply(self.right, other.right))

    def inverse(self) -> "PairElement":
        return PairElement(self.left.inverse(), self.right.inverse())

    def is_identity(self) -> bool:
        return self.left.is_identity() and self.right.is_identity()

    def negate(self) -> "PairElement":
        return PairElement(element_negate(self.left), element_negate(self.right))

