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
    _derived_quantities_cached,
    _minimal_nu,
    _two_fiber_lens,
    derive_xi,
    evaluate,
    flip_orientation,
    modinv_pos,
    normalize,
    seifert_box,
    seifert_polyhedral,
    somma_residue,
    underlying_space,
)
from orbiseif.groups import (
    ABELIAN_FAMILIES,
    DIHEDRAL_FAMILIES,
    FIBERED_FAMILIES,
    FamilySpec,
)
from orbiseif.verify import sweep_specs
from row_reference import box_topology
from test_oracle import _run_optimized

F = Fraction


def abelian_spec(spec):
    """The family-1 or 1p spec with the parameters of a family-11 or 11p one."""
    return FamilySpec("1" if spec.family == "11" else "1p",
                      spec.m, spec.n, spec.r, spec.s)


def abelian_row(spec):
    return seifert_box(spec, _derived_quantities_cached(spec))


def dihedral_row(spec):
    """The row of a family-11 or 11p spec, read off the box of the family-1
    or 1p spec with the same parameters."""
    return seifert_box(spec, _derived_quantities_cached(abelian_spec(spec)))


def inv_multiset(seifert):
    return sorted((v.num, v.den, v.location) for v in seifert.invariants)


def norm_multiset(seifert):
    return sorted((v.normalized_num, v.den, v.index, v.location)
                  for v in seifert.invariants)


# -- derived quantities --------------------------------------------------------

def test_derived_quantities_family_1p_long_cyclic():
    dq = _derived_quantities_cached(FamilySpec("1p", m=1, n=1, r=10, s=1))
    assert (dq.a, dq.b1, dq.b2, dq.nu) == (2, 5, 1, 1)
    assert (dq.d, dq.g, dq.e) == (6, -1, 1)


def test_derived_quantities_family_1p_scalar_quotient():
    dq = _derived_quantities_cached(FamilySpec("1p", m=3, n=1, r=2, s=1))
    assert (dq.a, dq.b1, dq.b2, dq.nu) == (2, 1, 1, 1)
    assert (dq.d, dq.g, dq.e) == (5, -4, 3)
    assert (modinv_pos(dq.g, dq.e), dq.f_bar) == (2, 1)


def test_derived_quantities_family_1_klein_case():
    dq = _derived_quantities_cached(FamilySpec("1", m=1, n=1, r=2, s=1))
    assert (dq.a, dq.b1, dq.b2, dq.nu) == (2, 2, 1, 1)
    assert (dq.e1, dq.e2) == (1, 2)
    assert (dq.d, dq.g, dq.e) == (2, -1, 1)


def test_derived_quantities_invariants():
    import math
    for spec in (FamilySpec("1", m=2, n=3, r=5, s=2),
                 FamilySpec("1p", m=3, n=9, r=4, s=3),
                 FamilySpec("1", m=4, n=1, r=6, s=1)):
        dq = _derived_quantities_cached(spec)
        assert math.gcd(dq.b1, dq.b2) == 1
        assert (dq.g * modinv_pos(dq.g, dq.e)) % dq.e in (1 % dq.e,)
    # the reduction-constant identity in its proved scope (odd parameters)
    for spec in (FamilySpec("1p", m=3, n=9, r=4, s=3),
                 FamilySpec("1p", m=1, n=15, r=2, s=1)):
        dq = _derived_quantities_cached(spec)
        assert math.gcd(dq.e, dq.d * dq.b2 - dq.g * dq.b1) == dq.m_prime


# -- abelian and dihedral rows ---------------------------------------------------

def test_abelian_row_one_singular_fiber():
    data = abelian_row(FamilySpec("1p", m=1, n=1, r=10, s=1))
    assert data.base == BaseSignature(SPHERE, (5, 5))
    assert inv_multiset(data) == [(5, 5, CONE), (6, 5, CONE)]
    assert [v.index for v in sorted(data.invariants, key=lambda v: v.num)] == [5, 1]
    assert data.euler == F(-1, 5)


def test_abelian_row_free_scalar_quotient():
    data = abelian_row(FamilySpec("1p", m=3, n=1, r=2, s=1))
    assert data.base.normalized() == BaseSignature(SPHERE)
    assert inv_multiset(data) == [(4, 1, CONE), (5, 1, CONE)]
    assert data.euler == -3


def test_abelian_row_klein_action():
    data = abelian_row(FamilySpec("1", m=1, n=1, r=2, s=1))
    assert data.base == BaseSignature(SPHERE, (2, 2))
    assert inv_multiset(data) == [(2, 2, CONE), (4, 2, CONE)]
    assert all(v.normalized_num == 0 and v.index == 2 for v in data.invariants)
    assert data.euler == -1


def test_dihedral_row_folds_the_abelian_one():
    data = dihedral_row(FamilySpec("11p", m=1, n=1, r=10, s=1))
    assert data.base == BaseSignature(DISC, (), (5, 5))
    assert inv_multiset(data) == [(5, 5, CORNER), (6, 5, CORNER)]
    assert data.euler == F(-1, 10)
    assert data.xi == 0


def test_dihedral_rows_fold_the_abelian_ones():
    """On every family-11 and 11p spec of order <= 240 the row is the
    family-1 or 1p row with the same parameters folded along a mirror
    circle: its cone points become corner reflectors carrying the same
    invariants, in the same order, and the Euler number halves."""
    specs = sweep_specs(240, DIHEDRAL_FAMILIES)
    for spec in specs:
        folded, abelian = dihedral_row(spec), abelian_row(abelian_spec(spec))
        assert folded.base == BaseSignature(DISC, (), abelian.base.cones), spec
        assert [(v.num, v.den, v.location) for v in folded.invariants] == \
            [(v.num, v.den, CORNER) for v in abelian.invariants], spec
        assert folded.euler == abelian.euler / 2, spec
    assert len(specs) == 11973


def test_dihedral_row_halves_euler():
    data = dihedral_row(FamilySpec("11", m=1, n=1, r=2, s=1))
    assert data.euler == F(-1, 2)
    assert data.base == BaseSignature(DISC, (), (2, 2))


def test_dihedral_row_generic_parameters():
    data = dihedral_row(FamilySpec("11", m=2, n=1, r=3, s=1))
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
    data = abelian_row(FamilySpec("1p", m=3, n=1, r=2, s=1))
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
    data = abelian_row(FamilySpec("1", m=1, n=1, r=2, s=1))
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
    assert somma_residue(abelian_row(FamilySpec("1", m=1, n=1, r=2, s=1))) == 2
    bare = SeifertData(BaseSignature(SPHERE), (), F(-1))
    assert somma_residue(bare) == -1


# -- underlying space and singular set --------------------------------------------

def test_underlying_projective_space():
    top = underlying_space(abelian_row(FamilySpec("1", m=1, n=1, r=1, s=1)))
    assert (top.underlying, top.p, top.q) == (LENS, 2, 1)


def test_underlying_scalar_lens():
    top = underlying_space(abelian_row(FamilySpec("1p", m=3, n=1, r=2, s=1)))
    assert (top.underlying, top.p, top.q) == (LENS, 3, 1)


def test_underlying_dihedral_is_the_sphere():
    for spec in (FamilySpec("11p", m=1, n=1, r=10, s=1),
                 FamilySpec("11", m=3, n=2, r=5, s=2)):
        assert underlying_space(dihedral_row(spec)).underlying == THREE_SPHERE


def test_underlying_example_rules_for_table_rows():
    top = underlying_space(seifert_polyhedral(FamilySpec("2", m=2, n=3)))
    assert (top.underlying, top.p, top.q) == (LENS, 2, 1)
    # three effective fibers: prism type
    top = underlying_space(seifert_polyhedral(FamilySpec("2", m=1, n=2)))
    assert top.underlying == "not-computed"
    # projective base
    top = underlying_space(seifert_polyhedral(FamilySpec("2bis", m=1, n=3)))
    assert top.underlying == "not-computed"


def test_underlying_space_of_a_disc_without_invariants():
    """A disc row whose invariants all have denominator 1 normalizes to a
    disc with no cone point, and so to the 3-sphere of the plain row."""
    data = evaluate(FamilySpec("11", m=1, n=1, r=1, s=1)).seifert
    assert normalize(data).invariants == flip_orientation(data).invariants == ()
    for form in (data, normalize(data), flip_orientation(data)):
        assert underlying_space(form).underlying == THREE_SPHERE


def test_underlying_space_reads_every_form_alike():
    """On every fibered spec of order <= 240 the underlying space and
    singular set of the normalized and mirrored data equal those that
    `evaluate` reads off the plain data."""
    specs = sweep_specs(240, FIBERED_FAMILIES)
    for spec in specs:
        report = evaluate(spec)
        for form in (normalize, flip_orientation):
            assert underlying_space(form(report.seifert)) == report.topology, \
                (spec, form.__name__)
    assert len(specs) == 61761


def test_singular_sets():
    def components(data):
        return underlying_space(data).singular_components
    assert components(abelian_row(FamilySpec("1p", m=1, n=1, r=10, s=1))) == (5,)
    assert components(abelian_row(FamilySpec("1", m=1, n=1, r=2, s=1))) == (2, 2)
    assert components(seifert_polyhedral(FamilySpec("2", m=1, n=2))) == ()


def test_abelian_topology_matches_the_box_formulas():
    """The lens space and singular components that the two-solid-torus
    and gcd rules read off the printed data equal the source's box
    formulas L(e, d*gbar) and (e2*b2*h, e1*b1*h), on every family-1 and
    1p spec of order <= 240."""
    specs = sweep_specs(240, ABELIAN_FAMILIES)
    for spec in specs:
        dq = _derived_quantities_cached(spec)
        assert evaluate(spec).topology == box_topology(dq), spec
    assert len(specs) == 47633


def test_two_fiber_lens_checks_survive_python_optimize():
    """An Euler number that leaves a fractional beta'', a pair that is not
    reduced and a gluing with p = 0 each raise under -O."""
    script = (
        "import sys\n"
        "from fractions import Fraction\n"
        "from orbiseif.engine import InternalInconsistencyError, _two_fiber_lens\n"
        "if __debug__:\n"
        "    sys.exit('not running under -O')\n"
        "cases = [(((2, 1), (1, 0)), Fraction(0)),\n"
        "         (((4, 2), (1, 0)), Fraction(-1, 2)),\n"
        "         (((1, 0), (1, 0)), Fraction(0))]\n"
        "for pairs, euler in cases:\n"
        "    try:\n"
        "        _two_fiber_lens(pairs, euler)\n"
        "    except InternalInconsistencyError:\n"
        "        continue\n"
        "    sys.exit(f'{pairs}, {euler} passed the two-fiber checks')\n")
    proc = _run_optimized("-c", script)
    assert proc.returncode == 0, proc.stderr


def test_row_bases_are_the_invariant_denominators():
    """Every evaluated row, the hand-built abelian and dihedral bases and
    the index-1 entries included, has a cone point at the denominator of
    each cone invariant and a corner reflector at that of each corner
    one, in document order.  `underlying_space` reads a disc row's one
    cone point, if any, as the first invariant; no row of order <= 240
    (every table branch occurs there) has two."""
    specs = sweep_specs(240, FIBERED_FAMILIES)
    discs = 0
    for spec in specs:
        seifert = evaluate(spec).seifert
        base, invariants = seifert.base, seifert.invariants
        cones = [v.den for v in invariants if v.location == CONE]
        assert list(base.cones) == cones, spec
        assert list(base.corners) == [v.den for v in invariants
                                      if v.location == CORNER], spec
        if base.kind == DISC:
            discs += 1
            assert len(cones) <= 1, spec
            assert all(v.location == CONE for v in invariants[:len(cones)]), spec
    assert (len(specs), discs) == (61761, 13011)


def test_evaluate_looks_the_box_up_once():
    """Each evaluate of a family-1, 1p, 11 or 11p spec makes exactly one
    call to the box, counted by its cache as a hit or a miss."""
    info = _derived_quantities_cached.cache_info
    for spec in sweep_specs(60, ABELIAN_FAMILIES + DIHEDRAL_FAMILIES):
        before = info()
        evaluate(spec)
        after = info()
        assert (after.hits + after.misses) - (before.hits + before.misses) \
            == 1, spec


def test_dihedral_box_is_the_abelian_box():
    """The box of a family-11 or 11p spec, read off the spec itself,
    equals the box of the family-1 or 1p spec with the same parameters,
    on every 11 and 11p spec of order <= 240."""
    specs = sweep_specs(240, DIHEDRAL_FAMILIES)
    for spec in specs:
        assert _derived_quantities_cached(spec) == \
            _derived_quantities_cached(abelian_spec(spec)), spec
    assert {spec.family for spec in specs} == set(DIHEDRAL_FAMILIES)


def test_evaluate_builds_no_spec(monkeypatch):
    """evaluate of a family-11 or 11p spec constructs no FamilySpec: the
    box takes the spec itself."""
    specs = sweep_specs(60, DIHEDRAL_FAMILIES)
    built = []
    init = FamilySpec.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(FamilySpec, "__init__", counted)
    for spec in specs:
        evaluate(spec)
    assert built == []
    FamilySpec("8", m=1)
    assert built == [("8",)]


def test_engine_keeps_no_box_between_calls():
    """After evaluate over every box spec of order <= 60 the box cache
    holds nothing: the engine keeps nothing per spec between calls."""
    for spec in sweep_specs(60, ABELIAN_FAMILIES + DIHEDRAL_FAMILIES):
        evaluate(spec)
    assert _derived_quantities_cached.cache_info().currsize == 0


# -- the integer invariant sum ---------------------------------------------------

def _fraction_sum(euler, invariants, xi):
    """Euler number + cone values + half the normalized corner values +
    xi/2, one Fraction addition at a time."""
    total = euler + F(xi, 2)
    for v in invariants:
        total += F(v.num, v.den) if v.location == CONE else F(v.normalized_num, v.den) / 2
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
        assert derive_xi(data.invariants, euler) == integral[0]
    else:
        with pytest.raises(InternalInconsistencyError):
            derive_xi(data.invariants, euler)


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
