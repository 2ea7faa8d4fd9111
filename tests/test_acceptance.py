"""Acceptance criteria, one test per criterion with a printed verdict.

Run standalone with:  pytest tests/test_acceptance.py -v -s
The parameter sweeps are shared module fixtures, so the wall-clock
bounds quoted below are measured on the criterion that owns them.
"""

import time
from fractions import Fraction

import pytest

from orbiseif.engine import (
    LENS,
    SPHERE,
    THREE_SPHERE,
    BaseSignature,
    evaluate,
    somma_residue,
)
from orbiseif.groups import (
    BINARY_ICOSAHEDRAL,
    BINARY_OCTAHEDRAL,
    BINARY_TETRAHEDRAL,
    IOTA,
    OMEGA,
    SIGMA,
    FamilySpec,
    get_family,
    goursat_group,
    phi_order,
    standard_group,
)
from orbiseif.oracle import lens_oracle
from orbiseif.verify import run_sweep, sweep_specs
from element_reference import multiply
from test_properties import (
    coprimality_suite,
    flip_involution_suite,
    determinant_suite,
    representative_independence_suite,
    s_reflection_suite,
)
from test_quaternions import QUAT_I

F = Fraction

ABELIAN_BOUND = 240
DIHEDRAL_BOUND = 240
TABLE4_BOUND = 480


def _report(name, detail):
    print(f"PASS {name}: {detail}", flush=True)


def mulclose(generators, limit: int = 100000):
    """Closure of a generating set under multiplication (fixed point).

    Breadth-first over generator products; the loop ends exactly when
    the set maps into itself under every generator on both sides.
    """
    gens = list(generators)
    elements = set(gens)
    frontier = list(elements)
    while frontier:
        new = []
        for g in frontier:
            for h in gens:
                for prod in (multiply(g, h), multiply(h, g)):
                    if prod not in elements:
                        elements.add(prod)
                        new.append(prod)
        frontier = new
        if len(elements) > limit:
            raise RuntimeError("closure exceeded element limit")
    return elements


@pytest.fixture(scope="module")
def abelian_sweep():
    specs = sweep_specs(ABELIAN_BOUND, ["1", "1p"])
    start = time.perf_counter()
    results = run_sweep(specs)
    return specs, results, time.perf_counter() - start


@pytest.fixture(scope="module")
def dihedral_sweep():
    specs = sweep_specs(DIHEDRAL_BOUND, ["11", "11p"])
    results = run_sweep(specs)
    return specs, results


@pytest.fixture(scope="module")
def table4_sweep():
    from orbiseif.groups import TABLE4_FAMILIES
    specs = sweep_specs(TABLE4_BOUND, TABLE4_FAMILIES)
    results = run_sweep(specs)
    return specs, results


# -- criterion 1: group orders -----------------------------------------------------

ORDER_SAMPLE = [
    FamilySpec("1", m=2, n=3, r=4, s=1), FamilySpec("1p", m=3, n=3, r=4, s=1),
    FamilySpec("2", m=2, n=3), FamilySpec("3", m=1, n=5),
    FamilySpec("4", m=2, n=2), FamilySpec("5", m=4),
    FamilySpec("6", m=2), FamilySpec("7", m=3), FamilySpec("8", m=2),
    FamilySpec("9", m=4), FamilySpec("10", m=3, n=4),
    FamilySpec("11", m=1, n=2, r=3, s=2), FamilySpec("11p", m=1, n=3, r=4, s=3),
    FamilySpec("12", m=2, n=2), FamilySpec("13", m=2, n=2),
    FamilySpec("13bis", m=3, n=2), FamilySpec("14", m=10),
    FamilySpec("15", m=5), FamilySpec("16", m=10), FamilySpec("17", m=5),
    FamilySpec("18", m=10), FamilySpec("19", m=2),
    FamilySpec("33", m=2, n=5), FamilySpec("33p", m=3, n=5),
    FamilySpec("34", m=5, n=7), FamilySpec("2bis", m=5, n=5),
    FamilySpec("3bis", m=4, n=4), FamilySpec("4bis", m=3, n=4),
    FamilySpec("34bis", m=7, n=9),
]


def test_criterion_1_group_orders():
    start = time.perf_counter()
    closures = {
        BINARY_TETRAHEDRAL: mulclose([OMEGA, QUAT_I]),
        BINARY_OCTAHEDRAL: mulclose([OMEGA, SIGMA]),
        BINARY_ICOSAHEDRAL: mulclose([OMEGA, IOTA]),
    }
    for gid, want in ((BINARY_TETRAHEDRAL, 24), (BINARY_OCTAHEDRAL, 48),
                      (BINARY_ICOSAHEDRAL, 120)):
        assert len(closures[gid]) == want
        assert closures[gid] == set(standard_group(gid))

    families_seen = set()
    for spec in ORDER_SAMPLE:
        formula = get_family(spec.family).phi_order(spec)
        assert formula <= 500
        group = goursat_group(spec)
        assert group.order == 2 * formula, spec
        assert phi_order(group) == formula
        families_seen.add(spec.family)
    elapsed = time.perf_counter() - start
    assert len(families_seen) >= 12
    assert elapsed < 10.0
    _report("criterion 1",
            f"closure orders 24/48/120 exact; {len(ORDER_SAMPLE)} groups in "
            f"{len(families_seen)} families match 2x the order formula "
            f"({elapsed:.1f}s)")


# -- criteria 2-4: the sweeps --------------------------------------------------------

def test_criterion_2_abelian_sweep(abelian_sweep):
    specs, results, elapsed = abelian_sweep
    mismatches = [r for r in results if not r.ok]
    assert mismatches == [], mismatches[:3]
    assert elapsed < 300.0
    _report("criterion 2",
            f"{len(specs)} abelian groups (order <= {ABELIAN_BOUND}) agree "
            f"with the brute-force path ({elapsed:.0f}s single-threaded)")


def test_criterion_3_dihedral_sweep(dihedral_sweep):
    specs, results = dihedral_sweep
    mismatches = [r for r in results if not r.ok]
    assert mismatches == [], mismatches[:3]
    _report("criterion 3",
            f"{len(specs)} dihedral groups (order <= {DIHEDRAL_BOUND}) agree, "
            f"boundary invariant included")


def test_criterion_4_table4_sweep(table4_sweep):
    specs, results = table4_sweep
    mismatches = [r for r in results if not r.ok]
    assert mismatches == [], mismatches[:3]
    families = {spec.family for spec in specs}
    assert len(families) == 25
    _report("criterion 4",
            f"{len(specs)} polyhedral-table groups (order <= {TABLE4_BOUND}) "
            f"across {len(families)} families agree")


def test_criterion_5_somma_integrality(abelian_sweep, dihedral_sweep,
                                       table4_sweep):
    all_specs = abelian_sweep[0] + dihedral_sweep[0] + table4_sweep[0]
    for spec in all_specs:
        residue = somma_residue(evaluate(spec).seifert)
        assert residue.denominator == 1, spec
    _report("criterion 5",
            f"invariant-sum congruence integral for all {len(all_specs)} "
            f"swept groups")


# -- criterion 6: spot values ---------------------------------------------------------

def test_criterion_6_spot_values():
    rep = evaluate(FamilySpec("9", m=1))
    assert rep.seifert.base == BaseSignature(SPHERE, (2, 3, 5))
    assert sorted((v.num, v.den) for v in rep.seifert.invariants) == \
        [(1, 2), (1, 3), (1, 5)]
    assert rep.seifert.euler == F(-1, 30)

    rep = evaluate(FamilySpec("2", m=2, n=3))
    assert rep.seifert.base == BaseSignature(SPHERE, (2, 2, 3))
    assert sorted((v.normalized_num, v.den) for v in rep.seifert.invariants) \
        == [(0, 2), (0, 2), (2, 3)]
    assert rep.seifert.euler == F(-2, 3)

    for h in range(2, 8):
        spec = FamilySpec("1p", m=1, n=1, r=2 * h, s=1)
        rep = evaluate(spec)
        assert rep.seifert.base == BaseSignature(SPHERE, (h, h))
        assert sorted((v.normalized_num, v.den, v.index)
                      for v in rep.seifert.invariants) == \
            [(0, h, h), (1, h, 1)]
        assert rep.seifert.euler == F(-1, h)
        assert rep.topology.underlying == THREE_SPHERE

    spec = FamilySpec("1", m=1, n=1, r=1, s=1)
    rep = evaluate(spec)
    assert (rep.topology.underlying, rep.topology.p, rep.topology.q) == \
        (LENS, 2, 1)
    check = lens_oracle(goursat_group(spec))
    assert (check.underlying, check.p, check.q) == (LENS, 2, 1)

    _report("criterion 6", "published spot values reproduced exactly")


# -- criterion 7: property suites -------------------------------------------------------

def test_criterion_7_property_suites():
    start = time.perf_counter()
    n_det = determinant_suite(200)
    n_cop = coprimality_suite(ABELIAN_BOUND)
    n_rep = representative_independence_suite()
    n_flip = flip_involution_suite()
    n_refl = s_reflection_suite()
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report("criterion 7",
            f"determinant identity on {n_det} torus quotients, coprimality "
            f"on {n_cop} parameter tuples, {n_rep} representative shifts, "
            f"{n_flip} orientation flips, {n_refl} conjugate-parameter pairs "
            f"({elapsed:.0f}s)")
