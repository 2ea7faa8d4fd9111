"""Arithmetic in Q(sqrt2, sqrt5), on the grid of eighths."""

import random
from fractions import Fraction

import pytest

from orbiseif.exactfield import (
    DENOMINATOR,
    QF_HALF,
    QF_HALF_SQRT2,
    QF_HALF_TAU,
    QF_HALF_TAU_INV,
    QuadFieldElement,
)
from element_reference import field_reference
from test_oracle import _run_optimized


def rand_element(rng, span=6, den=2):
    """Coefficients in (1/den)*Z: with den = 2 a product of three stays
    on the grid of eighths."""
    return QuadFieldElement(*(Fraction(rng.randint(-span, span), den)
                              for _ in range(4)))


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
    assert QF_HALF_SQRT2 * QF_HALF_SQRT2 == QuadFieldElement(Fraction(1, 2)) == QF_HALF


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


def test_an_element_is_its_value():
    """The constructor takes values: 1 is 1, whatever the storage, and a
    value off the grid of eighths is refused."""
    assert QuadFieldElement(1) == QuadFieldElement(Fraction(8, 8))
    assert field_reference(QuadFieldElement(1, Fraction(-3, 8), 0, 2)) == \
        field_reference(QuadFieldElement(0, 0, 0, 2)) + \
        field_reference(QuadFieldElement(1, Fraction(-3, 8)))
    x = QuadFieldElement(Fraction(-1, 2), 0, Fraction(3, 8))
    assert str(x) == "-1/2 + 3/8*s5"
    with pytest.raises(ValueError):
        QuadFieldElement(Fraction(1, 3))
    with pytest.raises(ValueError):
        QuadFieldElement(0, Fraction(1, 16))


def test_products_match_the_fraction_reference():
    """On random elements of the grid, a product the Fraction reference
    puts on the grid is that product, and any other product raises."""
    rng = random.Random(11)
    on = off = 0
    for _ in range(2000):
        x, y = (rand_element(rng, span=12, den=rng.choice((2, 4, DENOMINATOR)))
                for _ in range(2))
        want = field_reference(x) * field_reference(y)
        if all((DENOMINATOR * f).denominator == 1
               for f in (want.a, want.b, want.c, want.d)):
            assert field_reference(x * y) == want
            on += 1
        else:
            with pytest.raises(ArithmeticError):
                x * y
            off += 1
    assert on > 100 and off > 100


def test_off_grid_check_survives_python_optimize():
    script = (
        "import sys\n"
        "from orbiseif.exactfield import QF_HALF_TAU, QuadFieldElement\n"
        "if __debug__:\n"
        "    sys.exit('not running under -O')\n"
        "eighth = QF_HALF_TAU * QF_HALF_TAU - QF_HALF_TAU * QuadFieldElement(1)\n"
        "try:\n"
        "    eighth * eighth\n"
        "except ArithmeticError:\n"
        "    sys.exit(0)\n"
        "sys.exit('off-grid product accepted')\n")
    proc = _run_optimized("-c", script)
    assert proc.returncode == 0, proc.stderr
