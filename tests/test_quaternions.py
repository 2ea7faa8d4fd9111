"""Element arithmetic and, exactly, the action induced on the base sphere.

The fiber through h lies over the base point h^-1 i h of the unit sphere
in Im H; a pair (l, r) moves it to r P r^-1, composed with the antipode
when l is j-type.  The oracle's axis path rests on that model, so it is
checked here with exact products.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from orbiseif.exactfield import QF_HALF_SQRT2, QuadFieldElement
from orbiseif.groups import IOTA, SIGMA, FamilySpec, goursat_group, standard_group
from orbiseif.groups import BINARY_ICOSAHEDRAL, BINARY_OCTAHEDRAL, BINARY_TETRAHEDRAL
from orbiseif.quaternions import AlgebraicQuaternion, PairElement, quat_rational
from element_reference import (
    CIRCLE_J,
    CircleJElement,
    RepresentationMismatchError,
    _circle,
    circle_root,
    element_negate,
    elements,
    inverse,
    is_identity,
    multiply,
    norm_squared,
)

F = Fraction

QUAT_I = quat_rational(0, 1, 0, 0)
QUAT_J = quat_rational(0, 0, 1, 0)
QUAT_K = quat_rational(0, 0, 0, 1)


# -- products and inverses ---------------------------------------------------

def test_defining_relation_ij_equals_k():
    assert multiply(QUAT_I, QUAT_J) == QUAT_K


def test_j_squared_is_minus_one():
    q = CircleJElement(F(1, 4), True)
    assert multiply(q, q) == CircleJElement(F(1, 2), False)


def test_circle_angle_addition():
    assert multiply(circle_root(3), circle_root(2)) == CircleJElement(F(5, 6))


def test_mixed_representation_product_rejected():
    with pytest.raises(RepresentationMismatchError):
        multiply(QUAT_I, CIRCLE_J)
    with pytest.raises(RepresentationMismatchError):
        multiply(CIRCLE_J, QUAT_I)


def test_inverse_of_i():
    assert inverse(QUAT_I) == multiply(multiply(QUAT_I, QUAT_I), QUAT_I)


def test_circle_inverses():
    t = F(3, 7)
    plain = CircleJElement(t, False)
    assert inverse(plain) == CircleJElement(-t % 1, False)
    # the j case solves (t, j)(u, j) = identity, giving u = t + 1/2
    flipped = CircleJElement(t, True)
    assert inverse(flipped) == CircleJElement(t + F(1, 2), True)
    assert is_identity(multiply(flipped, inverse(flipped)))


def _fraction_key(angle, jflag):
    angle %= 1
    return (angle.numerator, angle.denominator, jflag)


def _fraction_product(a, b):
    """Product of (angle, jflag) pairs with Fraction angles, from
    j e^(i t) = e^(-i t) j and j^2 = -1."""
    (s, sj), (t, tj) = a, b
    if not sj:
        return s + t, tj
    if not tj:
        return s - t, True
    return s - t + F(1, 2), False


_circle_args = st.tuples(st.integers(-120, 120), st.integers(1, 120),
                         st.booleans())


@given(_circle_args, _circle_args)
def test_integer_circle_arithmetic_matches_fractions(a, b):
    x, y = _circle(*a), _circle(*b)
    fx, fy = (F(a[0], a[1]), a[2]), (F(b[0], b[1]), b[2])
    public = CircleJElement(*fx)
    assert public == x and hash(public) == hash(x)
    assert x._key == _fraction_key(*fx) and x.angle == fx[0] % 1
    assert x.multiply(y)._key == _fraction_key(*_fraction_product(fx, fy))
    inverse_angle = fx[0] + F(1, 2) if fx[1] else -fx[0]
    assert x.inverse()._key == _fraction_key(inverse_angle, fx[1])
    assert element_negate(x)._key == _fraction_key(fx[0] + F(1, 2), fx[1])
    assert x.is_identity() == (_fraction_key(*fx) == (0, 1, False))


def test_unit_norm_exact_for_polyhedral_groups():
    for gid in (BINARY_TETRAHEDRAL, BINARY_OCTAHEDRAL, BINARY_ICOSAHEDRAL):
        for el in standard_group(gid):
            assert norm_squared(el) == 1


# -- circle elements as quaternions -----------------------------------------

_ZERO = QuadFieldElement(0)
_ONE = QuadFieldElement(1)
# (cos, sin) of 2 pi k/8
_EIGHTHS = [(_ONE, _ZERO), (QF_HALF_SQRT2, QF_HALF_SQRT2), (_ZERO, _ONE),
            (-QF_HALF_SQRT2, QF_HALF_SQRT2), (-_ONE, _ZERO),
            (-QF_HALF_SQRT2, -QF_HALF_SQRT2), (_ZERO, -_ONE),
            (QF_HALF_SQRT2, -QF_HALF_SQRT2)]


def circle_to_quaternion(el: CircleJElement) -> AlgebraicQuaternion:
    """e^(2 pi i a) or e^(2 pi i a) j in Q(sqrt2, sqrt5) coordinates; the
    angle a must have a denominator dividing 8."""
    k = el.angle * 8
    assert k.denominator == 1, f"{el} has no coordinates in the field"
    c, s = _EIGHTHS[int(k) % 8]
    if el.jflag:   # (c + s i) j = c j + s k
        return AlgebraicQuaternion(_ZERO, _ZERO, c, s)
    return AlgebraicQuaternion(c, s, _ZERO, _ZERO)


def test_circle_to_quaternion_is_a_homomorphism():
    rng = random.Random(9)
    for _ in range(100):
        a = CircleJElement(F(rng.randint(0, 7), 8), rng.random() < 0.5)
        b = CircleJElement(F(rng.randint(0, 7), 8), rng.random() < 0.5)
        assert circle_to_quaternion(multiply(a, b)) == \
            multiply(circle_to_quaternion(a), circle_to_quaternion(b))


# -- the base point of a fiber --------------------------------------------------

def base_point(h):
    """h^-1 i h: constant on the fiber {e^(i t) h}."""
    return multiply(multiply(inverse(h), QUAT_I), h)


def induced(pair, point):
    """Image of a base point under the pair, by the rule the oracle uses."""
    right = pair.right
    if isinstance(right, CircleJElement):
        right = circle_to_quaternion(right)
    image = multiply(multiply(right, point), inverse(right))
    if pair.left.jflag:
        image = AlgebraicQuaternion(-image.w, -image.x, -image.y, -image.z)
    return image


def test_hopf_projection_examples():
    # the core at infinity {e^(i t)} lies over i, the core {e^(i t) j} over -i
    one = circle_to_quaternion(CircleJElement(F(0)))
    assert base_point(one) == QUAT_I
    assert base_point(QUAT_J) == quat_rational(0, -1, 0, 0)
    assert base_point(SIGMA) == QUAT_K      # SIGMA = (1 + j)/sqrt2
    # the same base point along the whole fiber
    for k in range(8):
        e = circle_to_quaternion(CircleJElement(F(k, 8)))
        assert base_point(multiply(e, SIGMA)) == QUAT_K


def test_right_j_factor_rotates_half_turn():
    # (1, j) rotates the base by a half turn about j: orientation preserving
    pair = PairElement(CircleJElement(F(0)), CIRCLE_J)
    assert induced(pair, QUAT_I) == quat_rational(0, -1, 0, 0)
    assert induced(pair, QUAT_J) == QUAT_J
    assert induced(pair, QUAT_K) == quat_rational(0, 0, 0, -1)


def test_right_rotation_factor():
    # r = cos(pi t) + sin(pi t) u fixes u and rotates by 2 pi t: the trace
    # of P -> r P r^-1 is 1 + 2 cos(2 pi t) = 4 Re(r)^2 - 1
    for r in standard_group(BINARY_ICOSAHEDRAL):
        axis = AlgebraicQuaternion(_ZERO, r.x, r.y, r.z)
        pair = PairElement(CircleJElement(F(0)), r)
        assert induced(pair, axis) == axis
        trace = (induced(pair, QUAT_I).x + induced(pair, QUAT_J).y
                 + induced(pair, QUAT_K).z)
        assert trace == QuadFieldElement(4) * r.w * r.w - _ONE


def test_left_j_factor_is_antipodal():
    pair = PairElement(CIRCLE_J, CircleJElement(F(0)))
    left = circle_to_quaternion(pair.left)
    for h in standard_group(BINARY_OCTAHEDRAL):
        point = base_point(h)
        moved = base_point(multiply(left, h))
        assert moved == AlgebraicQuaternion(_ZERO, -point.x, -point.y, -point.z)
        assert induced(pair, point) == moved


# specs whose factors all have angles with denominators dividing 8
SAMPLE_SPECS = [
    FamilySpec("8", m=1),
    FamilySpec("17", m=1),
    FamilySpec("11", m=1, n=1, r=2, s=1),
    FamilySpec("2bis", m=1, n=1),
]


def _as_quaternion_pair(pair):
    def convert(el):
        return circle_to_quaternion(el) if isinstance(el, CircleJElement) else el
    return convert(pair.left), convert(pair.right)


def test_equivariance_of_projection():
    """The base point of the pair action equals the induced map applied
    to the base point, exactly, on sampled elements of built groups."""
    rng = random.Random(5)
    for spec in SAMPLE_SPECS:
        group = goursat_group(spec)
        pairs = elements(group)
        for pair in rng.sample(pairs, min(16, len(pairs))):
            left, right = _as_quaternion_pair(pair)
            for h in (IOTA, SIGMA):
                moved = multiply(multiply(left, h), inverse(right))
                assert base_point(moved) == induced(pair, base_point(h))


def test_induced_map_is_a_homomorphism():
    rng = random.Random(5)
    point = base_point(IOTA)
    for spec in SAMPLE_SPECS:
        group = goursat_group(spec)
        pairs = elements(group)
        for _ in range(20):
            g1, g2 = rng.choice(pairs), rng.choice(pairs)
            assert induced(g1.multiply(g2), point) == \
                induced(g1, induced(g2, point))
