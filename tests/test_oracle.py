"""Brute-force geometric recomputation against known quotient data."""

import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import orbiseif
from orbiseif.engine import (
    DISC,
    LENS,
    PROJECTIVE,
    SPHERE,
    THREE_SPHERE,
    BaseSignature,
    InternalInconsistencyError,
)
from orbiseif.exactfield import QuadFieldElement
from orbiseif.groups import (
    BINARY_ICOSAHEDRAL,
    BINARY_OCTAHEDRAL,
    BINARY_TETRAHEDRAL,
    FIBERED_FAMILIES,
    TABLE4_FAMILIES,
    CosetGluing,
    FamilySpec,
    PairGroup,
    _hnf,
    _polyhedral_quotient,
    goursat_group,
    standard_group,
)
from orbiseif.oracle import (
    _COSET_AXES,
    _HALF_ANGLE,
    _RECIPROCAL,
    _axis,
    _axis_base,
    _axis_hnf,
    _check_chi,
    base_group,
    euler_oracle,
    exceptional_fibers_oracle,
    _circle_shapes,
    _equator_hnf,
    _lattice_invariant,
    _pole_hnf,
    lens_oracle,
    oracle_report,
)
from orbiseif.quaternions import NotHopfPreservingError, quat_rational
from orbiseif.verify import compare_spec, sweep_specs
from row_reference import (
    axis_classes,
    axis_stab_vectors,
    circle_base_by_sets,
    equator_stab_vectors,
    gluing_by_right_element,
    group_rows,
    invariant_from_int_vectors,
    lattice_points,
    lens_by_matrices,
    pole_stab_vectors,
    row_shapes,
    slope_invariant,
    torus_quotient_map,
)
from element_reference import CircleJElement, RationalQuad, elements, field_reference
from test_quaternions import circle_to_quaternion

F = Fraction


# -- solid torus quotient matrices ------------------------------------------------

def test_torus_map_trivial_twist():
    tq = torus_quotient_map(1, 5, 0)
    assert tq.matrix == ((1, 0), (0, 5))
    assert tq.core_fix == 1


def test_torus_map_mixed_case():
    tq = torus_quotient_map(2, 4, 1)
    assert tq.matrix == ((2, -1), (0, 2))
    assert tq.core_fix == 2


def test_torus_map_degenerate_cokernel_convention():
    # e' = 1 leaves the inverse undefined; it is pinned to 0 and the
    # off-diagonal entry vanishes (slope arithmetic never reads it)
    tq = torus_quotient_map(3, 3, 1)
    assert tq.matrix == ((3, 0), (0, 1))
    assert tq.core_fix == 3


def test_torus_map_precondition():
    with pytest.raises(ValueError):
        torus_quotient_map(2, 4, 2)


def test_slope_invariant_examples():
    inv = slope_invariant(torus_quotient_map(1, 5, 0), (1, 1))
    assert (inv.num, inv.den) == (1, 5)
    inv = slope_invariant(torus_quotient_map(2, 4, 1), (1, 1))
    assert (inv.num, inv.den) == (2, 4)
    inv = slope_invariant(torus_quotient_map(1, 1, 0), (1, 1))
    assert (inv.num, inv.den) == (0, 1)


# -- induced action on the base sphere --------------------------------------------

def test_base_group_icosahedral():
    base = base_group(goursat_group(FamilySpec("9", m=1)))
    assert base.order == 60
    assert base.signature == BaseSignature(SPHERE, (2, 3, 5))


def test_base_group_dihedral_times_cyclic():
    base = base_group(goursat_group(FamilySpec("2", m=2, n=3)))
    assert base.order == 6
    assert base.signature == BaseSignature(SPHERE, (2, 2, 3))


def test_base_group_abelian():
    base = base_group(goursat_group(FamilySpec("1p", m=1, n=1, r=10, s=1)))
    assert base.order == 5
    assert base.signature == BaseSignature(SPHERE, (5, 5))


def _euler(spec):
    group = goursat_group(spec)
    return euler_oracle(group, base_group(group))


def _fibers(spec):
    group = goursat_group(spec)
    return exceptional_fibers_oracle(group, base_group(group))


def test_euler_oracle_values():
    assert _euler(FamilySpec("9", m=1)) == F(-1, 30)
    assert _euler(FamilySpec("2", m=2, n=3)) == F(-2, 3)
    assert _euler(FamilySpec("1p", m=1, n=1, r=10, s=1)) == F(-1, 5)


# -- exceptional fibers -------------------------------------------------------------

def normalized_invs(invs):
    return sorted((v.normalized_num, v.den, v.index) for v in invs)


def test_exceptional_fibers_icosahedral():
    invs = _fibers(FamilySpec("9", m=1))
    assert normalized_invs(invs) == [(1, 2, 1), (1, 3, 1), (1, 5, 1)]


def test_exceptional_fibers_even_parameter():
    invs = _fibers(FamilySpec("2", m=2, n=3))
    assert normalized_invs(invs) == [(0, 2, 2), (0, 2, 2), (2, 3, 1)]


def test_exceptional_fibers_cyclic_quotient():
    invs = _fibers(FamilySpec("1p", m=1, n=1, r=10, s=1))
    assert normalized_invs(invs) == [(0, 5, 5), (1, 5, 1)]


# -- lens recognition ---------------------------------------------------------------

def test_lens_oracle_projective_space():
    top = lens_oracle(goursat_group(FamilySpec("1", m=1, n=1, r=1, s=1)))
    assert (top.underlying, top.p, top.q) == (LENS, 2, 1)


def test_lens_oracle_scalar_quotient():
    top = lens_oracle(goursat_group(FamilySpec("1p", m=3, n=1, r=2, s=1)))
    assert (top.underlying, top.p, top.q) == (LENS, 3, 1)


def test_lens_oracle_trivial():
    top = lens_oracle(goursat_group(FamilySpec("1p", m=1, n=1, r=10, s=1)))
    assert top.underlying == THREE_SPHERE
    assert top.singular_components == (5,)


def test_lens_assembly_is_chosen_from_the_group():
    """The lens assembly takes exactly the lattices with one flag class,
    the groups with two cyclic factors, whatever the family label."""
    for spec in (FamilySpec("2bis", m=1, n=4), FamilySpec("9", m=1)):
        with pytest.raises(ValueError, match="two cyclic factors"):
            lens_oracle(goursat_group(spec))
    single = 0
    for spec in sweep_specs(60):
        group = goursat_group(spec)
        lattice = group.lattice
        expected = lattice is not None and len(lattice.offsets) == 1
        assert (oracle_report(group).topology is not None) == expected, spec
        single += expected
    assert single == len(sweep_specs(60, ["1", "1p"]))


def test_lens_matrix_and_lattice_routes_agree():
    """The quotient-matrix composition over the explicit translations and
    the lattice computation on the pole normal form must name the same
    space for every small abelian group."""
    for spec in sweep_specs(48, ["1", "1p"]):
        group = goursat_group(spec)
        via_matrix = lens_by_matrices(group)
        via_lattice = lens_oracle(group)
        assert (via_matrix.underlying, via_matrix.p, via_matrix.q) == \
            (via_lattice.underlying, via_lattice.p, via_lattice.q), spec
        assert via_matrix.singular_components == via_lattice.singular_components


def test_report_lens_is_the_lens_oracle():
    """oracle_report reads the lens space off the pole stabilizer of its
    fiber pass, or builds that stabilizer when no pole is singular; both
    ways give lens_oracle's report on every group with two cyclic
    factors of order <= 240."""
    reused = Counter()
    for spec in sweep_specs(240, ["1", "1p"]):
        group = goursat_group(spec)
        assert oracle_report(group).topology == lens_oracle(group), spec
        reused[any(o.position == ("pole", False)
                   for o in base_group(group).orbits)] += 1
    assert reused == {True: 47393, False: 240}


def test_lattice_invariant_matches_quotient_map_composition():
    """The closed form equals the composed solid-torus quotient maps,
    pre-quotient by the k core-fixing translations, then the residual
    cyclic group of order e with twist t, on every admissible Hermite
    normal form over the grids 4, 8, ..., 120."""
    checked = 0
    for grid in range(4, 121, 4):
        divisors = [d for d in range(1, grid + 1) if grid % d == 0]
        for h11 in divisors:
            for h22 in divisors:
                k, e = grid // h22, grid // h11
                for h12 in range(h22):
                    if k * h12 % h11:
                        continue
                    twist = k * h12 % grid // h11
                    composed = torus_quotient_map(1, e, twist).compose_after(
                        torus_quotient_map(0, k, 1))
                    assert _lattice_invariant((h11, h12, h22), grid, "cone") == \
                        slope_invariant(composed, (1, 1), "cone"), (h11, h12, h22, grid)
                    checked += 1
    assert checked == 14448


def test_lattice_oracle_matches_row_scan_reference():
    """On every circle-type group of order <= 120 the lattice formulas
    reproduce the row scans: the four shape sets, the base order,
    signature and orbits, the exact stabilizer translations of every
    singular orbit with its local invariant, and the lens space of the
    abelian families."""
    checked = orbits = 0
    for spec in sweep_specs(120, FIBERED_FAMILIES):
        group = goursat_group(spec)
        if group.lattice is None:
            continue
        grid = group.grid
        shapes = row_shapes(group)
        lattice_shapes = _circle_shapes(group)
        assert {k: set(v) for k, v in lattice_shapes.items()} == shapes, spec
        base = base_group(group)
        by_rows = circle_base_by_sets(group, shapes)
        assert (base.order, base.signature, base.orbits) == \
            (by_rows.order, by_rows.signature, by_rows.orbits), spec
        rows = group_rows(group)
        for orbit in base.orbits:
            kind, where = orbit.position
            if kind == "pole":
                vectors = pole_stab_vectors(rows, grid, where)
                hnf = _pole_hnf(group, where)
            else:
                vectors = equator_stab_vectors(rows, grid, where)
                hnf = _equator_hnf(group, where)
            assert lattice_points(hnf, grid) == vectors, (spec, orbit)
            assert _lattice_invariant(hnf, grid, "cone") == \
                invariant_from_int_vectors(vectors, grid, "cone"), (spec, orbit)
            orbits += 1
        if spec.family in ("1", "1p"):
            assert lens_oracle(group) == lens_by_matrices(group), spec
        checked += 1
    assert (checked, orbits) == (15864, 31235)


def test_circle_base_on_progressions_matches_set_reference():
    """On every lattice group of the table-4 families of order <= 960,
    whose flip progressions are the longest, the progression arithmetic
    gives the base order, signature and orbits of the set-based reference
    fed the same shapes as sets."""
    checked = 0
    for spec in sweep_specs(960, TABLE4_FAMILIES):
        group = goursat_group(spec)
        if group.lattice is None:
            continue
        shapes = {k: set(v) for k, v in _circle_shapes(group).items()}
        base, by_sets = base_group(group), circle_base_by_sets(group, shapes)
        assert (base.order, base.signature, base.orbits) == \
            (by_sets.order, by_sets.signature, by_sets.orbits), spec
        checked += 1
    assert checked == 11117


def test_circle_oracle_memory_does_not_grow_with_the_order():
    """The lattice oracle lists no angle: a group of order 4,000,004 is
    built and read in a few kilobytes."""
    spec = FamilySpec("34", m=1, n=10**6 + 1)
    tracemalloc.start()
    try:
        group = goursat_group(spec)
        oracle_report(group)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert group.order == 4_000_004
    assert peak < 64 * 1024, peak
    assert compare_spec(spec).ok


def test_axis_memo_is_keyed_by_the_cosets():
    """Two gluings with the same factor ids but other coset tuples, the
    cosets, their elements and the offsets in reverse order, each get the
    base action and stabilizer normal forms of the row scans."""
    group = _with_quaternion_right_factors(goursat_group(FamilySpec("2bis", m=1, n=4)))
    glue = group.gluing
    flipped = PairGroup(group.spec, group.grid, group.left, group.left_kernel,
                        group.right, group.right_kernel,
                        gluing=CosetGluing(glue.period, glue.dihedral, glue.offsets[::-1],
                                           tuple(c[::-1] for c in glue.right_cosets[::-1])))
    for g in (group, flipped):
        base = base_group(g)
        by_rows = _axis_base(g, axis_classes(g))
        assert (base.order, base.signature, base.orbits) == \
            (by_rows.order, by_rows.signature, by_rows.orbits)
        for orbit in base.orbits:
            _, line, sign = orbit.position
            grid, vectors = axis_stab_vectors(g, line, sign)
            assert _axis_hnf(g, line, sign) == (grid, _hnf(vectors, grid))
    assert {id(group.gluing.right_cosets), id(flipped.gluing.right_cosets)} <= \
        _COSET_AXES.keys()


def test_axis_memo_holds_one_entry_per_catalog_coset_tuple():
    """Catalog gluings share the coset tuples of the six (right factor,
    kernel) pairs, so one sweep fills the memo with six entries."""
    tuples = {}
    for spec in sweep_specs(150, TABLE4_FAMILIES):
        group = goursat_group(spec)
        if group.gluing is not None:
            base_group(group)
            tuples[id(group.gluing.right_cosets)] = group.gluing.right_cosets
    assert len(tuples) == 6
    assert all(_COSET_AXES[key][0] is cosets for key, cosets in tuples.items())


def _memoized_bases():
    return sum(len(bases) for _, _, bases in _COSET_AXES.values())


def test_axis_base_memo_matches_the_row_classes():
    """On every group with a T*, O* or I* right factor of order <= 960 the
    base action equals _axis_base on the classes of the row scan, both
    for the first group of its coset pattern, which fills the memo, and
    for the later ones, which read it; every call returns fresh records."""
    for _, _, bases in _COSET_AXES.values():
        bases.clear()
    first = later = 0
    for spec in sweep_specs(960, TABLE4_FAMILIES):
        group = goursat_group(spec)
        if group.gluing is None:
            continue
        before = _memoized_bases()
        base = base_group(group)
        if _memoized_bases() > before:
            first += 1
        else:
            later += 1
        by_rows = _axis_base(group, axis_classes(group))
        assert (base.order, base.signature, base.orbits) == \
            (by_rows.order, by_rows.signature, by_rows.orbits), spec
        again = base_group(group)
        assert again is not base and again.orbits is not base.orbits
        assert all(a is not b for a, b in zip(again.orbits, base.orbits))
    assert (first, later) == (11, 201)


def _raised_message(fn, *args):
    with pytest.raises(InternalInconsistencyError) as info:
        fn(*args)
    return str(info.value)


def test_failed_self_checks_keep_their_messages():
    """The messages that are only formatted once a check fails read as
    they did when they were formatted on every call."""
    sig = BaseSignature(SPHERE, (2, 3))
    assert _raised_message(_check_chi, SPHERE, (2, 3), (), 60, sig) == \
        f"quotient signature {sig} fails chi*order=2"
    r = quat_rational(F(3, 8), 0, 0, 0)
    assert _raised_message(_axis, r) == \
        f"real part of {r} is not a tabulated cos(pi t/60)"
    r = quat_rational(F(1, 2), F(3, 8), 0, 0)
    assert _raised_message(_axis, r) == \
        f"coordinate 3/8 of {r} is not a tabulated cosine"
    assert _raised_message(_polyhedral_quotient, BINARY_TETRAHEDRAL,
                           BINARY_ICOSAHEDRAL) == \
        f"{BINARY_ICOSAHEDRAL} is not contained in {BINARY_TETRAHEDRAL}"
    coset_of = _polyhedral_quotient(BINARY_TETRAHEDRAL, BINARY_TETRAHEDRAL).coset_of
    tetrahedral = set(standard_group(BINARY_TETRAHEDRAL))
    outside = next(x for x in standard_group(BINARY_ICOSAHEDRAL)
                   if x not in tetrahedral)
    assert _raised_message(coset_of, outside) == \
        f"{outside} is not in {BINARY_TETRAHEDRAL}"
    unresolved = _with_quaternion_right_factors(
        goursat_group(FamilySpec("2", m=1, n=2)))
    assert _raised_message(base_group, unresolved) == \
        "orbits of the order-2 points are not resolved"


def test_axis_oracle_matches_row_scan_reference():
    """On every group with a T*, O* or I* right factor of order <= 480 the
    coset-gluing formulas reproduce the row scans: the base order,
    signature and orbits, and the exact stabilizer translations of every
    singular orbit with its Hermite normal form and local invariant."""
    checked = orbits = 0
    for spec in sweep_specs(480, TABLE4_FAMILIES):
        group = goursat_group(spec)
        if group.gluing is None:
            continue
        base = base_group(group)
        by_rows = _axis_base(group, axis_classes(group))
        assert (base.order, base.signature, base.orbits) == \
            (by_rows.order, by_rows.signature, by_rows.orbits), spec
        for orbit in base.orbits:
            _, line, sign = orbit.position
            grid, vectors = axis_stab_vectors(group, line, sign)
            hnf = _hnf(vectors, grid)
            assert _axis_hnf(group, line, sign) == (grid, hnf), (spec, orbit)
            assert lattice_points(hnf, grid) == vectors, (spec, orbit)
            assert _lattice_invariant(hnf, grid, "cone") == \
                invariant_from_int_vectors(vectors, grid, "cone"), (spec, orbit)
            orbits += 1
        checked += 1
    assert (checked, orbits) == (106, 308)


# -- assembled reports ---------------------------------------------------------------

def test_oracle_report_disc_with_cone():
    rep = oracle_report(goursat_group(FamilySpec("10", m=1, n=3)))
    assert rep.seifert.base == BaseSignature(DISC, (2,), (3,))
    assert rep.seifert.euler == F(-1, 6)
    assert normalized_invs(rep.seifert.invariants) == [(1, 2, 1), (1, 3, 1)]


def test_oracle_report_dihedral():
    rep = oracle_report(goursat_group(FamilySpec("11p", m=1, n=1, r=10, s=1)))
    assert rep.seifert.base == BaseSignature(DISC, (), (5, 5))
    assert rep.seifert.euler == F(-1, 10)
    assert rep.seifert.xi == 0


def test_oracle_report_klein_action():
    rep = oracle_report(goursat_group(FamilySpec("1", m=1, n=1, r=2, s=1)))
    assert rep.seifert.base == BaseSignature(SPHERE, (2, 2))
    assert rep.seifert.euler == -1
    assert rep.topology.singular_components == (2, 2)


def _exact_sign(x):
    """-1, 0 or 1 for x = p + q sqrt(n) in Q(sqrt2) or Q(sqrt5), exactly:
    when p and q differ in sign, the larger of p^2 and n q^2 wins."""
    assert x.d == 0 and (x.b == 0 or x.c == 0), x
    p, q, n = (x.a, x.b, 2) if x.c == 0 else (x.a, x.c, 5)
    sp, sq = (p > 0) - (p < 0), (q > 0) - (q < 0)
    if sq == 0 or sp == sq:
        return sp
    if sp == 0:
        return sq
    gap = p * p - n * q * q
    return sp * ((gap > 0) - (gap < 0))


def test_polyhedral_real_parts_are_tabulated_cosines():
    """Every coordinate, real part or not, of every element of T*, O*, I*
    is cos(pi t/60) for a tabulated integer t.  Each entry c = cos(pi k/n),
    k/n = t/60 in lowest terms, satisfies the Chebyshev identity
    T_n(c) = (-1)^k exactly, and the entries decrease as t grows: -c is
    the entry of 60 - t, c > 0 exactly when t < 30, and c^2 falls with t
    there.  Each entry and each difference of squares lies in Q(sqrt2) or
    Q(sqrt5), so every sign is exact."""
    for gid in (BINARY_TETRAHEDRAL, BINARY_OCTAHEDRAL, BINARY_ICOSAHEDRAL):
        for r in standard_group(gid):
            assert all(c in _HALF_ANGLE for c in (r.w, r.x, r.y, r.z)), r
    assert len(_HALF_ANGLE) == 11
    assert all(isinstance(t, int) and 0 <= t <= 60 for t in _HALF_ANGLE.values())
    two = RationalQuad(F(2))
    for c, sixtieths in _HALF_ANGLE.items():
        t, x = F(sixtieths, 60), field_reference(c)
        previous, current = RationalQuad(F(1)), x     # T_0, T_1
        for _ in range(t.denominator - 1):
            previous, current = current, two * x * current - previous
        assert current == RationalQuad(F((-1) ** t.numerator)), (c, t)
        assert _HALF_ANGLE[-c] == 60 - sixtieths, c
        assert _exact_sign(x) == (sixtieths < 30) - (sixtieths > 30), c
    positive = sorted((c for c, t in _HALF_ANGLE.items() if t < 30), key=_HALF_ANGLE.get)
    positive = list(map(field_reference, positive))
    assert all(_exact_sign(a * a - b * b) == 1 for a, b in zip(positive, positive[1:]))


def test_reciprocal_column_inverts_each_nonzero_cosine():
    """_axis divides by a pivot coordinate through _RECIPROCAL: one exact
    reciprocal per nonzero tabulated cosine, keyed by its t."""
    assert set(_RECIPROCAL) == set(_HALF_ANGLE.values()) - {30}
    for c, t in _HALF_ANGLE.items():
        if t != 30:
            assert c * _RECIPROCAL[t] == QuadFieldElement(1), (c, t)


def _with_quaternion_right_factors(group):
    """The same group with right factors in Q(sqrt2, sqrt5) coordinates,
    glued by right element, so the oracle takes the axis path."""
    grid = group.grid
    rows = [(jl, a, circle_to_quaternion(CircleJElement(F(b, grid), jr)))
            for jl, jr, a, b in group_rows(group)]
    return PairGroup(group.spec, grid, group.left, group.left_kernel,
                     group.right, group.right_kernel,
                     gluing=gluing_by_right_element(rows, grid))


# circle groups whose right angles have denominators dividing 8: sphere,
# disc and projective bases, with and without j-type left factors
AXIS_CROSS_CHECK_SPECS = [
    FamilySpec("1", m=1, n=1, r=4, s=1),
    FamilySpec("11", m=1, n=1, r=2, s=1),
    FamilySpec("10", m=1, n=1),
    FamilySpec("2bis", m=1, n=1),
    FamilySpec("2bis", m=1, n=4),
    FamilySpec("3bis", m=1, n=2),
]


def test_circle_and_axis_paths_agree():
    """The exact circle-pair geometry and the axis geometry of polyhedral
    right factors are two implementations of the same classification;
    the circle path is the reference on groups both can read."""
    j_left_seen = False
    for spec in AXIS_CROSS_CHECK_SPECS:
        group = goursat_group(spec)
        assert group.lattice is not None
        circle = base_group(group)
        converted = _with_quaternion_right_factors(group)
        assert converted.lattice is None and converted.gluing is not None
        axis = base_group(converted)
        assert (axis.order, axis.signature) == (circle.order, circle.signature)
        inv_c = exceptional_fibers_oracle(group, circle)
        inv_a = exceptional_fibers_oracle(converted, axis)
        assert normalized_invs(inv_c) == normalized_invs(inv_a), spec
        assert sorted(v.location for v in inv_c) == \
            sorted(v.location for v in inv_a)
        j_left_seen |= any(p.left.jflag for p in elements(group))
    assert j_left_seen
    # right factor D*8: three perpendicular half-turn axes whose orbits
    # the axis path does not separate, so it must refuse rather than guess
    unresolved = _with_quaternion_right_factors(
        goursat_group(FamilySpec("2", m=1, n=2)))
    with pytest.raises(InternalInconsistencyError, match="not resolved"):
        base_group(unresolved)


def test_polyhedral_left_factor_is_not_hopf_preserving():
    """A left factor outside C and D* moves the Hopf fibration."""
    group = goursat_group(FamilySpec("5", m=1))
    swapped = PairGroup(group.spec, group.grid,
                        BINARY_TETRAHEDRAL, BINARY_TETRAHEDRAL,
                        group.left, group.left_kernel, gluing=group.gluing)
    with pytest.raises(NotHopfPreservingError):
        base_group(swapped)


def _run_python(*args, timeout=600):
    """Run python with the package importable; return the process."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(orbiseif.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=timeout)


def _run_optimized(*args):
    """Run python -O with the package importable; return the process."""
    return _run_python("-O", *args)


def test_chi_check_survives_python_optimize():
    script = (
        "import sys\n"
        "from orbiseif.engine import SPHERE, BaseSignature, "
        "InternalInconsistencyError\n"
        "from orbiseif.oracle import _check_chi\n"
        "if __debug__:\n"
        "    sys.exit('not running under -O')\n"
        "try:\n"
        "    _check_chi(SPHERE, (2, 3), (), 60, BaseSignature(SPHERE, (2, 3)))\n"
        "except InternalInconsistencyError:\n"
        "    sys.exit(0)\n"
        "sys.exit('a wrong signature passed the chi check')\n")
    proc = _run_optimized("-c", script)
    assert proc.returncode == 0, proc.stderr


def test_lattice_invariant_check_survives_python_optimize():
    """The residual generator check is the one self-check of the closed
    form; (2, 1, 4) over grid 4 has k = 1 and k*h12 = 1 off h11 = 2."""
    script = (
        "import sys\n"
        "from orbiseif.engine import InternalInconsistencyError\n"
        "from orbiseif.oracle import _lattice_invariant\n"
        "if __debug__:\n"
        "    sys.exit('not running under -O')\n"
        "try:\n"
        "    _lattice_invariant((2, 1, 4), 4, 'cone')\n"
        "except InternalInconsistencyError:\n"
        "    sys.exit(0)\n"
        "sys.exit('an off-grid residual generator passed')\n")
    proc = _run_optimized("-c", script)
    assert proc.returncode == 0, proc.stderr


def _chi(sig):
    """Orbifold Euler characteristic of a base signature, in Fractions."""
    chi = F(2 if sig.kind == SPHERE else 1)
    chi -= sum(1 - F(1, q) for q in sig.cones)
    return chi - sum(F(1, 2) * (1 - F(1, q)) for q in sig.corners)


@st.composite
def _signatures(draw):
    kind = draw(st.sampled_from((SPHERE, DISC, PROJECTIVE)))
    orders = st.lists(st.integers(2, 12), max_size=4).map(sorted).map(tuple)
    return BaseSignature(kind, draw(orders), draw(orders) if kind == DISC else ())


@given(_signatures(), st.integers(1, 240), st.booleans())
@example(BaseSignature(SPHERE, (2, 3, 5)), 60, False)
@example(BaseSignature(SPHERE, (2, 3)), 60, False)
@example(BaseSignature(DISC, (), (2, 3, 4)), 48, False)
@example(BaseSignature(DISC, (3,), (2, 2)), 6, False)
@example(BaseSignature(PROJECTIVE, (3,)), 6, False)
@example(BaseSignature(PROJECTIVE, (2, 2)), 4, False)
def test_integer_chi_check_matches_fractions(sig, order, fit):
    """The integer chi * order = 2 check accepts exactly what the
    Fraction formula accepts; with `fit` the order is set to 2/chi when
    that is an integer, so both outcomes occur."""
    chi = _chi(sig)
    if fit and chi > 0 and (2 / chi).denominator == 1:
        order = int(2 / chi)
    try:
        _check_chi(sig.kind, sig.cones, sig.corners, order, sig)
        accepted = True
    except InternalInconsistencyError:
        accepted = False
    assert accepted == (chi * order == 2)


def test_verify_sweep_passes_under_python_optimize():
    proc = _run_optimized("-m", "orbiseif.cli", "verify", "--max-order", "24",
                          "--families", "all")
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_base_group_chi_times_order_is_two():
    for spec in (FamilySpec("19", m=1), FamilySpec("15", m=2),
                 FamilySpec("18", m=2), FamilySpec("33p", m=3, n=5)):
        base = base_group(goursat_group(spec))
        assert _chi(base.signature) * base.order == 2
