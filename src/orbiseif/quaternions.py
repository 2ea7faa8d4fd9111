"""Unit quaternions in two exact representations, and pairs of them.

The 3-sphere is the group of unit quaternions z1 + z2*j.  A pair (p, q)
acts isometrically on it by h -> p*h*q^-1.  The Hopf fibers are the
orbits h -> e^(i t)*h, so every pair with a circle-type left factor
permutes them; the oracle reads the induced action on the base sphere
directly off the factors.

Two exact element representations are used:

* CircleJElement: e^(2*pi*i*t) or e^(2*pi*i*t)*j with t an exact
  rational, stored as the reduced integer pair (numerator, denominator).
  This covers every cyclic and binary dihedral group of any order; a
  product, inverse or negation is integer arithmetic with one gcd.
* AlgebraicQuaternion: coordinates in Q(sqrt2, sqrt5), enough for the
  binary tetrahedral, octahedral and icosahedral groups.

Products never need to mix the two representations (the left and right
factors of a pair live in separate groups), so mixing is an error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .exactfield import QF_ONE, QuadFieldElement


class RepresentationMismatchError(TypeError):
    """Product of a circle-type and a field-type element was requested."""


class NotHopfPreservingError(ValueError):
    """Pair whose left factor is not circle-type; it moves the fibration."""


# ---------------------------------------------------------------------------
# circle-with-j representation
# ---------------------------------------------------------------------------

class CircleJElement:
    """e^(2*pi*i*angle), times j when jflag is set; angle kept in [0, 1).

    Immutable and hashable on the reduced (numerator, denominator, jflag)
    triple `_key`; these elements are dictionary keys throughout the group
    machinery.  Arithmetic stays on that integer triple: `angle` builds a
    Fraction on each access and is meant for display and tests.
    """

    __slots__ = ("jflag", "_key")

    def __init__(self, angle, jflag: bool = False):
        a = (angle if isinstance(angle, Fraction) else Fraction(angle)) % 1
        _set_jflag(self, bool(jflag))
        _set_key(self, (a.numerator, a.denominator, bool(jflag)))

    def __setattr__(self, name, value):
        raise AttributeError("CircleJElement is immutable")

    @property
    def angle(self) -> Fraction:
        num, den, _ = self._key
        return Fraction(num, den)

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
        an, ad, aj = self._key
        bn, bd, bj = other._key
        if not aj:
            return _circle(an * bd + bn * ad, ad * bd, bj)
        if not bj:
            return _circle(an * bd - bn * ad, ad * bd, True)
        return _circle(2 * (an * bd - bn * ad) + ad * bd, 2 * ad * bd, False)

    def inverse(self) -> "CircleJElement":
        num, den, jflag = self._key
        if not jflag:
            return _circle(-num, den, False)
        # (t, j)^-1 = (t + 1/2, j): solve (t,j)*(u,j) = (t - u + 1/2, 1) = identity.
        return _circle(2 * num + den, 2 * den, True)

    def is_identity(self) -> bool:
        return self._key[0] == 0 and not self.jflag


_new = object.__new__
_set_jflag = CircleJElement.jflag.__set__
_set_key = CircleJElement._key.__set__


def _circle(num: int, den: int, jflag: bool) -> CircleJElement:
    """e^(2*pi*i*num/den), times j when jflag is set: the integer
    constructor, reducing with one gcd and building no Fraction."""
    num %= den
    g = math.gcd(num, den)
    if g != 1:
        num //= g
        den //= g
    el = _new(CircleJElement)
    _set_jflag(el, jflag)
    _set_key(el, (num, den, jflag))
    return el


def circle_root(k: int, power: int = 1) -> CircleJElement:
    """e^(2*pi*i*power/k)."""
    return _circle(power, k, False)


CIRCLE_J = _circle(0, 1, True)


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
        if n.b != 0 or n.c != 0 or n.d != 0:
            raise ArithmeticError(f"squared norm of {self} is not rational")
        return n.a

    def inverse(self) -> "AlgebraicQuaternion":
        # Unit quaternion: inverse is the conjugate.
        if self.norm_squared() != 1:
            raise ArithmeticError(f"{self} is not a unit quaternion")
        return AlgebraicQuaternion(self.w, -self.x, -self.y, -self.z)

    def is_identity(self) -> bool:
        return self.w == QF_ONE and self.x.is_zero() and self.y.is_zero() and self.z.is_zero()


def quat_rational(w, x, y, z) -> AlgebraicQuaternion:
    return AlgebraicQuaternion(QuadFieldElement(w), QuadFieldElement(x),
                               QuadFieldElement(y), QuadFieldElement(z))


GroupElement = Union[CircleJElement, AlgebraicQuaternion]


def multiply(a: GroupElement, b: GroupElement) -> GroupElement:
    """Exact group product; both factors must carry the same representation."""
    if isinstance(a, CircleJElement) and isinstance(b, CircleJElement):
        return a.multiply(b)
    if isinstance(a, AlgebraicQuaternion) and isinstance(b, AlgebraicQuaternion):
        return a.multiply(b)
    raise RepresentationMismatchError(
        f"cannot multiply {type(a).__name__} by {type(b).__name__}")


def element_negate(a: GroupElement) -> GroupElement:
    if isinstance(a, CircleJElement):
        num, den, jflag = a._key
        return _circle(2 * num + den, 2 * den, jflag)
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

