"""Standalone property suites: exact identities behind the formulas.

Each suite is written as a plain function returning the number of cases
checked (raising AssertionError on the first failure) so the acceptance
runner can reuse them; the pytest wrappers just invoke them.
"""

import math
from fractions import Fraction

from orbiseif.engine import (
    derived_quantities,
    evaluate,
    flip_orientation,
    modinv_pos,
    normalize,
)
from orbiseif.groups import FamilySpec, goursat_group
from orbiseif.oracle import oracle_report
from orbiseif.verify import invariant_multiset, sweep_specs
from row_reference import slope_invariant, torus_quotient_map

F = Fraction


# -- suite 1: the quotient matrix determinant ------------------------------------

def determinant_suite(max_e: int = 200) -> int:
    """det of the solid-torus quotient matrix equals the group order, for
    every admissible (d, e, g) with e below the bound."""
    checked = 0
    for e in range(1, max_e + 1):
        for d in range(e):
            gd = math.gcd(d, e)
            for g in range(e):
                if math.gcd(gd, g) != 1:
                    continue
                assert torus_quotient_map(d, e, g).determinant() == e
                checked += 1
    return checked


def test_determinant_identity_small():
    assert determinant_suite(60) > 0


# -- suite 2: coprimality of the derived quantities -------------------------------

def coprimality_suite(max_order: int = 240) -> int:
    """Exact identities of the derived-quantity box across the abelian
    parameter sweep.

    gcd(b1, b2) = 1 and gcd(a, m') = 1 hold for every parameter tuple.
    The reduction-constant identity gcd(e, d*b2 - g*b1) = m' is stated by
    the source for the odd-parameter family and holds there throughout;
    for the even-indexed family it acquires the parity factors of the
    two fibers: the gcd is 2m' when both are 1 and m' when both are 2,
    while the mixed-parity branch obeys no uniform law (m=3, n=1, r=2,
    s=1 gives gcd 1 against m' = 3), so nothing is asserted there.
    """
    checked = 0
    for spec in sweep_specs(max_order, ["1", "1p"]):
        dq = derived_quantities(spec)
        assert math.gcd(dq.b1, dq.b2) == 1
        assert math.gcd(dq.a, dq.m_prime) == 1
        reduction = math.gcd(dq.e, dq.d * dq.b2 - dq.g * dq.b1)
        if spec.family == "1p":
            assert reduction == dq.m_prime, spec
        elif dq.e1 == dq.e2:
            want = 2 * dq.m_prime if dq.e1 == 1 else dq.m_prime
            assert reduction == want, spec
        checked += 1
    return checked


def test_coprimality_small():
    assert coprimality_suite(80) > 0


# -- suite 3: representative independence ------------------------------------------

def representative_independence_suite() -> int:
    """Shifting any modular-inverse representative by its modulus leaves
    every normalized output unchanged."""
    checked = 0
    specs = [FamilySpec("1", m=2, n=3, r=5, s=2),
             FamilySpec("1", m=1, n=1, r=12, s=5),
             FamilySpec("1p", m=3, n=1, r=4, s=3),
             FamilySpec("1p", m=1, n=9, r=2, s=1)]
    for spec in specs:
        dq = derived_quantities(spec)
        half = 1 if spec.family == "1p" else 2
        den = spec.n * spec.r * half // 2
        scale_d = dq.e2 * dq.b2 * dq.h if spec.family == "1" else dq.b2 * dq.h
        scale_g = dq.e1 * dq.b1 * dq.h if spec.family == "1" else dq.b1 * dq.h
        shift = dq.n_prime * spec.r
        # f_bar -> f_bar + n'r shifts each numerator by a multiple of den
        assert (dq.d * shift * scale_d) % den == 0
        assert (dq.g * shift * scale_g) % den == 0
        # g_bar -> g_bar + e leaves the lens class d*g_bar mod e alone
        assert (dq.d * (dq.g_bar + dq.e)) % dq.e == (dq.d * dq.g_bar) % dq.e
        checked += 1
    # a_bar -> a_bar + b inside the slope invariant
    for d, e, g in [(1, 5, 0), (2, 4, 1), (3, 9, 2), (5, 12, 7), (0, 1, 1)]:
        if math.gcd(math.gcd(d, e), g) != 1:
            continue
        tq = torus_quotient_map(d, e, g)
        for fiber in [(1, 1), (2, 1), (3, 2)]:
            inv = slope_invariant(tq, fiber)
            num, den = tq.image_of(*fiber)
            c = math.gcd(abs(num), den)
            a, b = num // c, den // c
            if b == 1:
                continue
            shifted = (modinv_pos(a, b) + b) * tq.core_fix
            assert shifted % (b * tq.core_fix) == inv.normalized_num
            checked += 1
    return checked


def test_representative_independence():
    assert representative_independence_suite() > 0


# -- suite 4: orientation flip is an involution -------------------------------------

def flip_involution_suite() -> int:
    checked = 0
    specs = [FamilySpec("9", m=2), FamilySpec("2", m=3, n=4),
             FamilySpec("10", m=2, n=3), FamilySpec("14", m=4),
             FamilySpec("2bis", m=2, n=5), FamilySpec("33p", m=3, n=3),
             FamilySpec("11", m=1, n=2, r=3, s=1),
             FamilySpec("1", m=2, n=1, r=6, s=1)]
    for spec in specs:
        data = evaluate(spec).seifert
        flipped = flip_orientation(data)
        assert flipped.euler == -data.euler
        assert flip_orientation(flipped) == normalize(data)
        normalized = {(v.location, v.den, v.normalized_num)
                      for v in normalize(data).invariants}
        mirrored = {(v.location, v.den, (-v.normalized_num) % v.den)
                    for v in flipped.invariants}
        assert normalized == mirrored
        checked += 1
    return checked


def test_flip_involution():
    assert flip_involution_suite() == 8


# -- suite 5: the conjugate parameter gives the same quotient ------------------------

def s_reflection_suite(max_order: int = 72, oracle_budget: int = 12) -> int:
    """Replacing s by r - s names a conjugate group: every engine output
    agrees, and on a smaller sample the brute-force path agrees on both
    element sets as well."""
    checked = 0
    oracle_checked = 0
    for spec in sweep_specs(max_order, ["1"]):
        if spec.r < 2 or 2 * spec.s == spec.r:
            continue
        partner = FamilySpec("1", m=spec.m, n=spec.n, r=spec.r,
                             s=spec.r - spec.s)
        rep_a = evaluate(spec)
        rep_b = evaluate(partner)
        assert rep_a.seifert.euler == rep_b.seifert.euler
        assert rep_a.seifert.base == rep_b.seifert.base
        assert invariant_multiset(rep_a.seifert) == invariant_multiset(rep_b.seifert)
        assert rep_a.topology == rep_b.topology
        checked += 1
        if oracle_checked < oracle_budget:
            orc_a = oracle_report(goursat_group(spec))
            orc_b = oracle_report(goursat_group(partner))
            assert orc_a.seifert.euler == orc_b.seifert.euler
            assert orc_a.seifert.base == orc_b.seifert.base
            assert invariant_multiset(orc_a.seifert) == \
                invariant_multiset(orc_b.seifert)
            assert (orc_a.topology.p, orc_a.topology.q) == \
                (orc_b.topology.p, orc_b.topology.q)
            oracle_checked += 1
    return checked


def test_s_reflection():
    assert s_reflection_suite() > 0
