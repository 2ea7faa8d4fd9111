"""Brute-force geometric recomputation against known quotient data."""

import os
import subprocess
import sys
from fractions import Fraction

import pytest

import orbiseif
from orbiseif.engine import (
    DISC,
    LENS,
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
    FamilySpec,
    PairGroup,
    goursat_group,
    standard_group,
)
from orbiseif.oracle import (
    _HALF_ANGLE,
    base_group,
    euler_oracle,
    exceptional_fibers_oracle,
    lens_oracle,
    lens_oracle_lattice,
    oracle_report,
    slope_invariant,
    torus_quotient_map,
)
from orbiseif.quaternions import PairElement
from orbiseif.verify import sweep_specs
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


def test_euler_oracle_values():
    assert euler_oracle(goursat_group(FamilySpec("9", m=1))) == F(-1, 30)
    assert euler_oracle(goursat_group(FamilySpec("2", m=2, n=3))) == F(-2, 3)
    assert euler_oracle(goursat_group(FamilySpec("1p", m=1, n=1, r=10, s=1))) \
        == F(-1, 5)


# -- exceptional fibers -------------------------------------------------------------

def normalized_invs(invs):
    return sorted((v.normalized_num, v.den, v.index) for v in invs)


def test_exceptional_fibers_icosahedral():
    invs = exceptional_fibers_oracle(goursat_group(FamilySpec("9", m=1)))
    assert normalized_invs(invs) == [(1, 2, 1), (1, 3, 1), (1, 5, 1)]


def test_exceptional_fibers_even_parameter():
    invs = exceptional_fibers_oracle(goursat_group(FamilySpec("2", m=2, n=3)))
    assert normalized_invs(invs) == [(0, 2, 2), (0, 2, 2), (2, 3, 1)]


def test_exceptional_fibers_cyclic_quotient():
    invs = exceptional_fibers_oracle(
        goursat_group(FamilySpec("1p", m=1, n=1, r=10, s=1)))
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


def test_lens_matrix_and_lattice_routes_agree():
    """The quotient-matrix composition and the raw lattice computation
    must name the same space for every small abelian group."""
    for spec in sweep_specs(48, ["1", "1p"]):
        group = goursat_group(spec)
        via_matrix = lens_oracle(group)
        via_lattice = lens_oracle_lattice(group)
        assert (via_matrix.underlying, via_matrix.p, via_matrix.q) == \
            (via_lattice.underlying, via_lattice.p, via_lattice.q), spec
        assert via_matrix.singular_components == via_lattice.singular_components


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


def test_polyhedral_real_parts_are_tabulated_cosines():
    """Re r = cos(pi t) for a tabulated t on every element of T*, O*, I*.
    Each entry c = cos(pi k/n) satisfies the Chebyshev identity
    T_n(c) = (-1)^k exactly, and the entries decrease as t grows."""
    for gid in (BINARY_TETRAHEDRAL, BINARY_OCTAHEDRAL, BINARY_ICOSAHEDRAL):
        assert all(r.w in _HALF_ANGLE for r in standard_group(gid))
    assert len(_HALF_ANGLE) == 11
    for c, t in _HALF_ANGLE.items():
        previous, current = QuadFieldElement(1), c     # T_0, T_1
        for _ in range(t.denominator - 1):
            previous, current = current, 2 * c * current - previous
        assert current == (-1) ** t.numerator, (c, t)
    ordered = sorted(_HALF_ANGLE, key=_HALF_ANGLE.get)
    assert all((b - a).sign() == -1 for a, b in zip(ordered, ordered[1:]))


def _with_quaternion_right_factors(group):
    return PairGroup(group.spec,
                     [PairElement(p.left, circle_to_quaternion(p.right))
                      for p in group.elements],
                     group.left, group.left_kernel,
                     group.right, group.right_kernel)


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
        circle = base_group(group)
        assert circle.mode == "circle"
        converted = _with_quaternion_right_factors(group)
        axis = base_group(converted)
        assert axis.mode == "axis"
        assert (axis.order, axis.signature) == (circle.order, circle.signature)
        inv_c = exceptional_fibers_oracle(group, circle)
        inv_a = exceptional_fibers_oracle(converted, axis)
        assert normalized_invs(inv_c) == normalized_invs(inv_a), spec
        assert sorted(v.location for v in inv_c) == \
            sorted(v.location for v in inv_a)
        j_left_seen |= any(p.left.jflag for p in group.elements)
    assert j_left_seen
    # right factor D*8: three perpendicular half-turn axes whose orbits
    # the axis path does not separate, so it must refuse rather than guess
    unresolved = _with_quaternion_right_factors(
        goursat_group(FamilySpec("2", m=1, n=2)))
    with pytest.raises(InternalInconsistencyError, match="not resolved"):
        base_group(unresolved)


def _run_optimized(*args):
    """Run python -O with the package importable; return the process."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(orbiseif.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-O", *args], env=env,
                          capture_output=True, text=True, timeout=600)


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


def test_verify_sweep_passes_under_python_optimize():
    proc = _run_optimized("-m", "orbiseif.cli", "verify", "--max-order", "24",
                          "--families", "all")
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_base_group_chi_times_order_is_two():
    for spec in (FamilySpec("19", m=1), FamilySpec("15", m=2),
                 FamilySpec("18", m=2), FamilySpec("33p", m=3, n=5)):
        base = base_group(goursat_group(spec))
        sig = base.signature
        chi = F(2 if sig.kind == SPHERE else 1)
        chi -= sum(1 - F(1, q) for q in sig.cones)
        chi -= sum(F(1, 2) * (1 - F(1, q)) for q in sig.corners)
        assert chi * base.order == 2


def test_mismatch_diff_reports_the_variant_reading():
    """On an abelian disagreement the diff also evaluates the variant
    gcd pattern of the derived-quantity box, so both candidate readings
    are visible (here invoked directly; the sweep itself never trips)."""
    from orbiseif.verify import _table_reading_diagnostic
    spec = FamilySpec("1p", m=1, n=3, r=4, s=3)
    orc = oracle_report(goursat_group(spec))
    note = _table_reading_diagnostic(spec, orc)
    assert "table-variant reading" in note
