"""Unit quaternions with coordinates in Q(sqrt2, sqrt5), and pairs of them.

The 3-sphere is the group of unit quaternions z1 + z2*j.  A pair (p, q)
acts isometrically on it by h -> p*h*q^-1.  The Hopf fibers are the
orbits h -> e^(i t)*h, so every pair with a circle-type left factor
permutes them; the oracle reads the induced action on the base sphere
directly off the factors.

Coordinates in Q(sqrt2, sqrt5) are enough for the binary tetrahedral,
octahedral and icosahedral groups, the only factors listed element by
element.  Cyclic and binary dihedral factors never are: the group
machinery keeps their elements e^(2*pi*i*t) and e^(2*pi*i*t)*j as
integer (jflag, angle numerator) pairs over a common grid.
An AlgebraicQuaternion is a plain slotted value, equal and hashed by the
flat tuple of the sixteen integers of its coordinates (see exactfield),
each 0 or a cos(pi t/60) the oracle tabulates.
"""

from __future__ import annotations

from .exactfield import QuadFieldElement
from .record import Record


class NotHopfPreservingError(ValueError):
    """Pair whose left factor is not circle-type; it moves the fibration."""


class AlgebraicQuaternion:
    """w + x*i + y*j + z*k with coordinates in Q(sqrt2, sqrt5)."""

    __slots__ = ("w", "x", "y", "z", "_key")

    def __init__(self, w: QuadFieldElement, x: QuadFieldElement,
                 y: QuadFieldElement, z: QuadFieldElement):
        self.w = w
        self.x = x
        self.y = y
        self.z = z
        self._key = (*w, *x, *y, *z)

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


def quat_rational(w, x, y, z) -> AlgebraicQuaternion:
    return AlgebraicQuaternion(QuadFieldElement(w), QuadFieldElement(x),
                               QuadFieldElement(y), QuadFieldElement(z))


def multiply(a: AlgebraicQuaternion, b: AlgebraicQuaternion) -> AlgebraicQuaternion:
    """Exact quaternion product."""
    return a.multiply(b)


def element_negate(a: AlgebraicQuaternion) -> AlgebraicQuaternion:
    return AlgebraicQuaternion(-a.w, -a.x, -a.y, -a.z)


# ---------------------------------------------------------------------------
# pairs acting on S^3
# ---------------------------------------------------------------------------

class PairElement(Record):
    """(p, q) in S^3 x S^3 acting by h -> p*h*q^-1; each factor brings
    its own multiply.  The package builds no pairs itself: the tests
    build them from the rows of a group."""

    __slots__ = ("left", "right")

    def __init__(self, left, right):
        self.left, self.right = left, right

    def multiply(self, other: "PairElement") -> "PairElement":
        return PairElement(self.left.multiply(other.left),
                           self.right.multiply(other.right))
