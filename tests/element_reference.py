"""Explicit group elements, an independent reference for the integer build.

The package keeps a cyclic or binary dihedral element e^(2*pi*i*t), or
e^(2*pi*i*t)*j, only as integer angle data.  Here it is an object again,
CircleJElement, with its own product rule, so tests can list the
elements of a group and multiply them without the package's integer
rules.  `elements(group)` turns the rows of a built group (see
`row_reference.group_rows`) into such pairs.

The package multiplies quaternions and pairs and nothing more.  The
algebra only tests use, `inverse`, `is_identity` and `norm_squared`, is
here as functions that take a circle element, a quaternion or a pair,
and `multiply` is the one product that takes either kind of factor.
`QF_ONE`, the unit of Q(sqrt2, sqrt5), is here too: no module of the
package reads it.

The package keeps a field element on a fixed grid of eighths and refuses
a product that leaves it.  The tests' general field algebra, whose
products may leave that grid (Hopf projections of mixed O* and I*
coordinates, sampled ring axioms), runs on `RationalQuad`, the field
with Fraction coefficients, and `RationalQuaternion`; `field_reference`
and `quaternion_reference` carry a package value over.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from orbiseif import groups, quaternions
from orbiseif.exactfield import DENOMINATOR, QuadFieldElement
from orbiseif.quaternions import AlgebraicQuaternion, PairElement
from row_reference import group_rows

QF_ONE = QuadFieldElement(1)


class CircleJElement:
    """e^(2*pi*i*angle), times j when jflag is set; angle kept in [0, 1).

    Immutable and hashable on the reduced (numerator, denominator, jflag)
    triple `_key`.  Arithmetic stays on that integer triple: `angle`
    builds a Fraction on each access.
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


class RepresentationMismatchError(TypeError):
    """Product of a circle element and a quaternion was requested."""


def multiply(a, b):
    """Exact product of two circle elements or two quaternions; a mixed
    product raises RepresentationMismatchError."""
    if isinstance(a, CircleJElement) and isinstance(b, CircleJElement):
        return a.multiply(b)
    if isinstance(a, AlgebraicQuaternion) and isinstance(b, AlgebraicQuaternion):
        return groups.multiply(a, b)
    raise RepresentationMismatchError(
        f"cannot multiply {type(a).__name__} by {type(b).__name__}")


def norm_squared(q: AlgebraicQuaternion) -> Fraction:
    n = quaternion_reference(q).norm_squared()
    if n.b != 0 or n.c != 0 or n.d != 0:
        raise ArithmeticError(f"squared norm of {q} is not rational")
    return n.a


def inverse(a):
    """Inverse of a circle element, a unit quaternion or a pair."""
    if isinstance(a, PairElement):
        return PairElement(inverse(a.left), inverse(a.right))
    if isinstance(a, CircleJElement):
        return a.inverse()
    # unit quaternion: the inverse is the conjugate
    if norm_squared(a) != 1:
        raise ArithmeticError(f"{a} is not a unit quaternion")
    return AlgebraicQuaternion(a.w, -a.x, -a.y, -a.z)


def is_identity(a) -> bool:
    if isinstance(a, PairElement):
        return is_identity(a.left) and is_identity(a.right)
    if isinstance(a, CircleJElement):
        return a.is_identity()
    return a.w == QF_ONE and a.x.is_zero() and a.y.is_zero() and a.z.is_zero()


def element_negate(a):
    if isinstance(a, CircleJElement):
        num, den, jflag = a._key
        return _circle(2 * num + den, 2 * den, jflag)
    return quaternions.element_negate(a)


def standard_elements(group_id) -> list:
    """Exact element list: circle elements for C and D* groups, the
    package's quaternions for T*, O* and I*."""
    kind, order = group_id.kind, group_id.order
    if kind == "C":
        return [_circle(k, order, False) for k in range(order)]
    if kind == "D":
        n = order // 2
        rotations = [_circle(k, n, False) for k in range(n)]
        return rotations + [_circle(k, n, True) for k in range(n)]
    return groups.standard_group(group_id)


def as_element(image):
    """A catalog generator image as an element: a circle triple
    (jflag, num, den) becomes a CircleJElement, a quaternion stays."""
    if isinstance(image, tuple):
        jflag, num, den = image
        return _circle(num, den, jflag)
    return image


def elements(group) -> list[PairElement]:
    """The rows of a built group as explicit pairs."""
    grid, rows = group.grid, group_rows(group)
    if group.lattice is None:
        return [PairElement(_circle(a, grid, jl), r) for jl, a, r in rows]
    return [PairElement(_circle(a, grid, jl), _circle(b, grid, jr))
            for jl, jr, a, b in rows]


# -- the general field, with Fraction coefficients ------------------------------

@dataclass(frozen=True)
class RationalQuad:
    """a + b*sqrt2 + c*sqrt5 + d*sqrt10 with Fraction coefficients."""

    a: Fraction = Fraction(0)
    b: Fraction = Fraction(0)
    c: Fraction = Fraction(0)
    d: Fraction = Fraction(0)

    def __add__(self, other):
        return RationalQuad(self.a + other.a, self.b + other.b,
                            self.c + other.c, self.d + other.d)

    def __neg__(self):
        return RationalQuad(-self.a, -self.b, -self.c, -self.d)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        a1, b1, c1, d1 = self.a, self.b, self.c, self.d
        a2, b2, c2, d2 = other.a, other.b, other.c, other.d
        # sqrt2*sqrt5 = sqrt10, sqrt2*sqrt10 = 2*sqrt5, sqrt5*sqrt10 = 5*sqrt2
        return RationalQuad(
            a1 * a2 + 2 * b1 * b2 + 5 * c1 * c2 + 10 * d1 * d2,
            a1 * b2 + b1 * a2 + 5 * (c1 * d2 + d1 * c2),
            a1 * c2 + c1 * a2 + 2 * (b1 * d2 + d1 * b2),
            a1 * d2 + d1 * a2 + b1 * c2 + c1 * b2)


def field_reference(x: QuadFieldElement) -> RationalQuad:
    """The value of a package field element, which is the tuple of its
    coefficients in units of 1/DENOMINATOR."""
    return RationalQuad(*(Fraction(n, DENOMINATOR) for n in x))


def fraction_key(q: AlgebraicQuaternion) -> tuple:
    """Per coordinate, the reduced (numerator, denominator) of each of
    its four coefficients, flattened: the key of a quaternion when its
    coordinates had Fraction coefficients."""
    return tuple(tuple(v for f in (r.a, r.b, r.c, r.d)
                       for v in (f.numerator, f.denominator))
                 for r in map(field_reference, (q.w, q.x, q.y, q.z)))


@dataclass(frozen=True)
class RationalQuaternion:
    """w + x*i + y*j + z*k with RationalQuad coordinates."""

    w: RationalQuad
    x: RationalQuad
    y: RationalQuad
    z: RationalQuad

    def multiply(self, other: "RationalQuaternion") -> "RationalQuaternion":
        w1, x1, y1, z1 = self.w, self.x, self.y, self.z
        w2, x2, y2, z2 = other.w, other.x, other.y, other.z
        return RationalQuaternion(
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2)

    def conjugate(self) -> "RationalQuaternion":
        return RationalQuaternion(self.w, -self.x, -self.y, -self.z)

    def negate(self) -> "RationalQuaternion":
        return RationalQuaternion(-self.w, -self.x, -self.y, -self.z)

    def norm_squared(self) -> RationalQuad:
        return self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z


def quaternion_reference(q: AlgebraicQuaternion) -> RationalQuaternion:
    return RationalQuaternion(*map(field_reference, (q.w, q.x, q.y, q.z)))
