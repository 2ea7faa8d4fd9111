"""Arithmetic in Q(sqrt2, sqrt5)."""

import random
from fractions import Fraction

import pytest

from orbiseif.exactfield import (
    QF_HALF_SQRT2,
    QF_HALF_TAU,
    QF_HALF_TAU_INV,
    QF_ONE,
    QuadFieldElement,
)

SQRT2 = 2 ** 0.5
SQRT5 = 5 ** 0.5


def rand_element(rng, span=6):
    return QuadFieldElement(*(Fraction(rng.randint(-span, span),
                                       rng.randint(1, 4)) for _ in range(4)))


def test_radical_products():
    s2 = QuadFieldElement(0, 1)
    s5 = QuadFieldElement(0, 0, 1)
    s10 = QuadFieldElement(0, 0, 0, 1)
    assert s2 * s2 == QuadFieldElement(2)
    assert s5 * s5 == QuadFieldElement(5)
    assert s10 * s10 == QuadFieldElement(10)
    assert s2 * s5 == s10
    assert s2 * s10 == 2 * s5
    assert s5 * s10 == 5 * s2


def test_golden_ratio_constants():
    # tau = (sqrt5+1)/2 satisfies tau^2 = tau + 1; the halves are the
    # coordinates used by the binary icosahedral generators
    tau = QF_HALF_TAU + QF_HALF_TAU
    assert tau * tau == tau + 1
    assert QF_HALF_TAU * QF_HALF_TAU_INV == QuadFieldElement(Fraction(1, 4))
    assert QF_HALF_SQRT2 * QF_HALF_SQRT2 == QuadFieldElement(Fraction(1, 2))


def test_ring_axioms_sampled():
    rng = random.Random(7)
    for _ in range(200):
        x, y, z = (rand_element(rng) for _ in range(3))
        assert (x + y) * z == x * z + y * z
        assert (x * y) * z == x * (y * z)
        assert x * y == y * x
        assert x + (-x) == QuadFieldElement(0)


def test_inverse_sampled():
    rng = random.Random(11)
    checked = 0
    while checked < 100:
        x = rand_element(rng)
        if x.is_zero():
            continue
        assert x * x.inverse() == QF_ONE
        checked += 1


def test_inverse_of_zero_fails():
    with pytest.raises(ZeroDivisionError):
        QuadFieldElement(0).inverse()


def test_norm_is_conjugate_product_and_detects_zero():
    x = QuadFieldElement(1, 1, 0, 0)          # 1 + sqrt2, nonzero
    assert x.norm() == (1 - 2) ** 2            # (1+s2)(1-s2) = -1, squared
    assert QuadFieldElement(0, 0, 0, 0).norm() == 0
    # nonzero iff norm nonzero
    rng = random.Random(3)
    for _ in range(100):
        y = rand_element(rng)
        assert y.is_zero() == (y.norm() == 0)


def _float_value(x):
    return (float(x.a) + float(x.b) * SQRT2 + float(x.c) * SQRT5
            + float(x.d) * SQRT10)


def test_sign_matches_float_evaluation():
    rng = random.Random(13)
    for _ in range(300):
        x = rand_element(rng)
        value = _float_value(x)
        assert x.sign() == (value > 0) - (value < 0), x
    # near cancellations in every pair of basis terms, and a product of
    # two of them with all four coordinates nonzero (about 1.6e-5)
    small2 = QuadFieldElement(99, -70)                   # 99 - 70 sqrt2
    small5 = QuadFieldElement(161, 0, -72)               # 161 - 72 sqrt5
    near = [small2, small5, QuadFieldElement(19, 0, 0, -6),
            QuadFieldElement(0, 49, -31), QuadFieldElement(0, 0, 99, -70),
            QuadFieldElement(0, 161, 0, -72), small2 * small5]
    for x in near:
        value = _float_value(x)
        assert abs(value) > 1e-9
        assert x.sign() == (value > 0) - (value < 0), x
        assert (-x).sign() == -x.sign()
    assert QuadFieldElement(0).sign() == 0


SQRT10 = 10 ** 0.5
