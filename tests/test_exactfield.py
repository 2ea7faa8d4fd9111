"""Arithmetic in Q(sqrt2, sqrt5)."""

import random
from fractions import Fraction

from orbiseif.exactfield import (
    QF_HALF_SQRT2,
    QF_HALF_TAU,
    QF_HALF_TAU_INV,
    QuadFieldElement,
)


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
    assert s2 * s10 == QuadFieldElement(2) * s5
    assert s5 * s10 == QuadFieldElement(5) * s2


def test_golden_ratio_constants():
    # tau = (sqrt5+1)/2 satisfies tau^2 = tau + 1; the halves are the
    # coordinates used by the binary icosahedral generators
    tau = QF_HALF_TAU + QF_HALF_TAU
    assert tau * tau == tau + QuadFieldElement(1)
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
        assert x - y == x + (-y)
        assert (x - x).is_zero()
