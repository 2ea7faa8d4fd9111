"""Closed-form evaluator: derived quantities, table rows, data operations."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from orbiseif.engine import (
    CONE,
    CORNER,
    DISC,
    LENS,
    SPHERE,
    THREE_SPHERE,
    BaseSignature,
    InternalInconsistencyError,
    LocalInvariant,
    SeifertData,
    _minimal_nu,
    derive_xi,
    derived_quantities,
    evaluate,
    flip_orientation,
    normalize,
    seifert_abelian,
    seifert_dihedral,
    seifert_polyhedral,
    singular_set,
    somma_residue,
    underlying_space,
)
from orbiseif.groups import FamilySpec

F = Fraction


def inv_multiset(seifert):
    return sorted((v.num, v.den, v.location) for v in seifert.invariants)


def norm_multiset(seifert):
    return sorted((v.normalized_num, v.den, v.index, v.location)
                  for v in seifert.invariants)


# -- derived quantities --------------------------------------------------------

def test_derived_quantities_family_1p_long_cyclic():
    dq = derived_quantities(FamilySpec("1p", m=1, n=1, r=10, s=1))
    assert (dq.a, dq.b1, dq.b2, dq.nu) == (2, 5, 1, 1)
    assert (dq.d, dq.g, dq.e) == (6, -1, 1)


def test_derived_quantities_family_1p_scalar_quotient():
    dq = derived_quantities(FamilySpec("1p", m=3, n=1, r=2, s=1))
    assert (dq.a, dq.b1, dq.b2, dq.nu) == (2, 1, 1, 1)
    assert (dq.d, dq.g, dq.e) == (5, -4, 3)
    assert (dq.g_bar, dq.f_bar) == (2, 1)


def test_derived_quantities_family_1_klein_case():
    dq = derived_quantities(FamilySpec("1", m=1, n=1, r=2, s=1))
    assert (dq.a, dq.b1, dq.b2, dq.nu) == (2, 2, 1, 1)
    assert (dq.e1, dq.e2) == (1, 2)
    assert (dq.d, dq.g, dq.e) == (2, -1, 1)


def test_derived_quantities_invariants():
    import math
    for spec in (FamilySpec("1", m=2, n=3, r=5, s=2),
                 FamilySpec("1p", m=3, n=9, r=4, s=3),
                 FamilySpec("1", m=4, n=1, r=6, s=1)):
        dq = derived_quantities(spec)
        assert math.gcd(dq.b1, dq.b2) == 1
        assert (dq.g * dq.g_bar) % dq.e in (1 % dq.e,)
    # the reduction-constant identity in its proved scope (odd parameters)
    for spec in (FamilySpec("1p", m=3, n=9, r=4, s=3),
                 FamilySpec("1p", m=1, n=15, r=2, s=1)):
        dq = derived_quantities(spec)
        assert math.gcd(dq.e, dq.d * dq.b2 - dq.g * dq.b1) == dq.m_prime


# -- abelian and dihedral rows ---------------------------------------------------

def test_abelian_row_one_singular_fiber():
    data = seifert_abelian(FamilySpec("1p", m=1, n=1, r=10, s=1))
    assert data.base == BaseSignature(SPHERE, (5, 5))
    assert inv_multiset(data) == [(5, 5, CONE), (6, 5, CONE)]
    assert [v.index for v in sorted(data.invariants, key=lambda v: v.num)] == [5, 1]
    assert data.euler == F(-1, 5)


def test_abelian_row_free_scalar_quotient():
    data = seifert_abelian(FamilySpec("1p", m=3, n=1, r=2, s=1))
    assert data.base.normalized() == BaseSignature(SPHERE)
    assert inv_multiset(data) == [(4, 1, CONE), (5, 1, CONE)]
    assert data.euler == -3


def test_abelian_row_klein_action():
    data = seifert_abelian(FamilySpec("1", m=1, n=1, r=2, s=1))
    assert data.base == BaseSignature(SPHERE, (2, 2))
    assert inv_multiset(data) == [(2, 2, CONE), (4, 2, CONE)]
    assert all(v.normalized_num == 0 and v.index == 2 for v in data.invariants)
    assert data.euler == -1


def test_dihedral_row_folds_the_abelian_one():
    data = seifert_dihedral(FamilySpec("11p", m=1, n=1, r=10, s=1))
    assert data.base == BaseSignature(DISC, (), (5, 5))
    assert inv_multiset(data) == [(5, 5, CORNER), (6, 5, CORNER)]
    assert data.euler == F(-1, 10)
    assert data.xi == 0


def test_dihedral_row_halves_euler():
    data = seifert_dihedral(FamilySpec("11", m=1, n=1, r=2, s=1))
    assert data.euler == F(-1, 2)
    assert data.base == BaseSignature(DISC, (), (2, 2))


def test_dihedral_row_generic_parameters():
    data = seifert_dihedral(FamilySpec("11", m=2, n=1, r=3, s=1))
    assert data.euler == F(-2, 3)
    assert data.base == BaseSignature(DISC, (), (3, 3))


# -- table rows -------------------------------------------------------------------

def test_row_2():
    data = seifert_polyhedral(FamilySpec("2", m=2, n=3))
    assert data.base == BaseSignature(SPHERE, (2, 2, 3))
    assert inv_multiset(data) == [(2, 2, CONE), (2, 2, CONE), (2, 3, CONE)]
    assert data.euler == F(-2, 3)


def test_row_9():
    data = seifert_polyhedral(FamilySpec("9", m=1))
    assert data.base == BaseSignature(SPHERE, (2, 3, 5))
    assert inv_multiset(data) == [(1, 2, CONE), (1, 3, CONE), (1, 5, CONE)]
    assert data.euler == F(-1, 30)


def test_row_10_odd_branch():
    data = seifert_polyhedral(FamilySpec("10", m=1, n=3))
    assert data.base == BaseSignature(DISC, (2,), (3,))
    assert inv_multiset(data) == [(1, 2, CONE), (1, 3, CORNER)]
    assert data.euler == F(-1, 6)


def test_row_case_condition_branches():
    even = seifert_polyhedral(FamilySpec("10", m=1, n=4))
    assert even.base == BaseSignature(DISC, (), (2, 2, 4))
    rp = seifert_polyhedral(FamilySpec("2bis", m=1, n=3))
    assert rp.base.kind == "projective"
    disc = seifert_polyhedral(FamilySpec("2bis", m=1, n=4))
    assert disc.base == BaseSignature(DISC, (4,), ())


# -- operations on the data -----------------------------------------------------

def test_normalize_representatives():
    assert LocalInvariant(4, 2).normalized_num == 0
    assert LocalInvariant(-1, 5).normalized_num == 4
    assert LocalInvariant(2, 3).normalized_num == 2


def test_normalize_drops_trivial_entries_and_sorts():
    data = seifert_abelian(FamilySpec("1p", m=3, n=1, r=2, s=1))
    nd = normalize(data)
    assert nd.invariants == ()
    assert nd.base == BaseSignature(SPHERE)
    assert (somma_residue(nd) - somma_residue(data)).denominator == 1


def test_flip_orientation_rules():
    data = seifert_polyhedral(FamilySpec("9", m=1))
    flipped = flip_orientation(data)
    assert flipped.euler == F(1, 30)
    assert norm_multiset(flipped) == sorted(
        [(1, 2, 1, CONE), (2, 3, 1, CONE), (4, 5, 1, CONE)])
    assert somma_residue(flipped).denominator == 1


def test_flip_orientation_zero_invariants():
    data = seifert_abelian(FamilySpec("1", m=1, n=1, r=2, s=1))
    flipped = flip_orientation(data)
    assert flipped.euler == 1
    assert all(v.normalized_num == 0 for v in flipped.invariants)


def test_flip_orientation_is_an_involution():
    for spec in (FamilySpec("9", m=1), FamilySpec("10", m=1, n=3),
                 FamilySpec("11", m=2, n=1, r=3, s=1),
                 FamilySpec("14", m=5)):
        data = evaluate(spec).seifert
        assert flip_orientation(flip_orientation(data)) == normalize(data)


def test_somma_examples():
    assert somma_residue(seifert_polyhedral(FamilySpec("9", m=1))) == 1
    assert somma_residue(seifert_abelian(FamilySpec("1", m=1, n=1, r=2, s=1))) == 2
    bare = SeifertData(BaseSignature(SPHERE), (), F(-1))
    assert somma_residue(bare) == -1


# -- underlying space and singular set --------------------------------------------

def test_underlying_projective_space():
    spec = FamilySpec("1", m=1, n=1, r=1, s=1)
    top = underlying_space(seifert_abelian(spec), spec)
    assert (top.underlying, top.p, top.q) == (LENS, 2, 1)


def test_underlying_scalar_lens():
    spec = FamilySpec("1p", m=3, n=1, r=2, s=1)
    top = underlying_space(seifert_abelian(spec), spec)
    assert (top.underlying, top.p, top.q) == (LENS, 3, 1)


def test_underlying_dihedral_is_the_sphere():
    for spec in (FamilySpec("11p", m=1, n=1, r=10, s=1),
                 FamilySpec("11", m=3, n=2, r=5, s=2)):
        top = underlying_space(seifert_dihedral(spec), spec)
        assert top.underlying == THREE_SPHERE


def test_underlying_example_rules_for_table_rows():
    spec = FamilySpec("2", m=2, n=3)
    top = underlying_space(seifert_polyhedral(spec), spec)
    assert (top.underlying, top.p, top.q) == (LENS, 2, 1)
    spec = FamilySpec("2", m=1, n=2)   # three effective fibers: prism type
    top = underlying_space(seifert_polyhedral(spec), spec)
    assert top.underlying == "not-computed"
    spec = FamilySpec("2bis", m=1, n=3)  # projective base
    top = underlying_space(seifert_polyhedral(spec), spec)
    assert top.underlying == "not-computed"


def test_singular_sets():
    spec = FamilySpec("1p", m=1, n=1, r=10, s=1)
    assert singular_set(seifert_abelian(spec), spec) == [5]
    spec = FamilySpec("1", m=1, n=1, r=2, s=1)
    assert singular_set(seifert_abelian(spec), spec) == [2, 2]
    spec = FamilySpec("2", m=1, n=2)
    assert singular_set(seifert_polyhedral(spec), spec) == []


def test_singular_indices_match_the_gcd_rule_for_abelian_rows():
    """The printed component indices equal gcd(p mod q, q) of the printed
    invariants, across a parameter sample."""
    for spec in (FamilySpec("1", m=2, n=3, r=5, s=2),
                 FamilySpec("1", m=1, n=9, r=4, s=3),
                 FamilySpec("1p", m=3, n=9, r=4, s=3),
                 FamilySpec("1p", m=5, n=1, r=6, s=5)):
        data = seifert_abelian(spec)
        from_invariants = sorted(v.index for v in data.invariants if v.index > 1)
        assert singular_set(data, spec) == from_invariants


# -- the integer invariant sum ---------------------------------------------------

def _fraction_sum(euler, invariants, xi):
    """Euler number + cone values + half the normalized corner values +
    xi/2, one Fraction addition at a time."""
    total = euler + F(xi, 2)
    for v in invariants:
        total += v.value if v.location == CONE else F(v.normalized_num, v.den) / 2
    return total


_INVARIANTS = st.builds(LocalInvariant, st.integers(-60, 60), st.integers(1, 24),
                        st.sampled_from((CONE, CORNER)))
_CONE_INVARIANTS = st.builds(LocalInvariant, st.integers(-60, 60),
                             st.integers(1, 24))


@given(st.fractions(max_denominator=48).filter(lambda f: abs(f) < 50),
       st.one_of(st.lists(_CONE_INVARIANTS, max_size=5),
                 st.lists(_INVARIANTS, max_size=5)),
       st.sampled_from((None, 0, 1)))
@example(F(-1, 30), [LocalInvariant(1, 2), LocalInvariant(1, 3),
                     LocalInvariant(1, 5)], None)
@example(F(-1, 6), [LocalInvariant(1, 2), LocalInvariant(-2, 3, CORNER)], 1)
@example(F(-1, 10), [LocalInvariant(0, 5, CORNER), LocalInvariant(1, 5, CORNER)], 0)
def test_integer_fiber_sum_matches_fractions(euler, invariants, xi):
    """somma_residue and derive_xi, summed in integers over the lcm of the
    denominators, equal the Fraction formula on cone-only and corner
    inputs, integral or not."""
    data = SeifertData(BaseSignature(DISC if xi is not None else SPHERE),
                       tuple(invariants), euler, xi)
    assert somma_residue(data) == _fraction_sum(euler, invariants, xi or 0)
    integral = [x for x in (0, 1)
                if _fraction_sum(euler, invariants, x).denominator == 1]
    if integral:
        assert derive_xi(data.base, data.invariants, euler) == integral[0]
    else:
        with pytest.raises(InternalInconsistencyError):
            derive_xi(data.base, data.invariants, euler)


def _minimal_nu_by_search(a, bound, coprime_to):
    """The linear search the closed form replaced, kept as its reference."""
    nu = 1
    while nu <= bound:
        if bound % (a * nu) == 0 and math.gcd(bound // (a * nu), coprime_to) == 1:
            return nu
        nu += 1
    raise InternalInconsistencyError("no admissible nu below the bound")


def test_minimal_nu_matches_linear_search():
    """The closed-form nu equals the least nu found by search on every
    a <= 24, bound < 400 and 0 <= coprime_to < 30, and both raise when a
    does not divide the bound."""
    checked = 0
    for a in range(1, 25):
        for bound in range(1, 400):
            for coprime_to in range(30):
                try:
                    want = _minimal_nu_by_search(a, bound, coprime_to)
                except InternalInconsistencyError:
                    with pytest.raises(InternalInconsistencyError):
                        _minimal_nu(a, bound, coprime_to)
                else:
                    assert _minimal_nu(a, bound, coprime_to) == want, \
                        (a, bound, coprime_to)
                checked += 1
    assert checked == 287280
