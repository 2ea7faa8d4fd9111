"""Standard subgroups of the 3-sphere and the Goursat pair groups."""

import hashlib
import random
import re
from collections import Counter
from fractions import Fraction

import pytest

from orbiseif import groups
from orbiseif.engine import evaluate
from orbiseif.groups import (
    BINARY_ICOSAHEDRAL,
    BINARY_OCTAHEDRAL,
    BINARY_TETRAHEDRAL,
    FAMILY_ORDER,
    TABLE4_FAMILIES,
    FamilySpec,
    StandardGroupId,
    UnsupportedFamilyError,
    algebraic_group,
    binary_dihedral,
    cyclic,
    enumerate_specs,
    get_family,
    goursat_group,
    normalized_s,
    phi_order,
    standard_group,
    validate,
)
from orbiseif.quaternions import AlgebraicQuaternion, PairElement
from orbiseif.verify import run_sweep, sweep_specs
from element_reference import (
    CircleJElement,
    as_element,
    element_negate,
    elements,
    inverse,
    is_identity,
    multiply,
    standard_elements,
)
from enumerate_reference import reference_enumerate
from row_reference import (
    circle_lattice_by_full_walk,
    coset_rows,
    direct_grid_rows,
    group_rows,
)
from test_oracle import _run_optimized

F = Fraction


# -- standard groups ----------------------------------------------------------

def test_cyclic_four_is_the_fourth_roots():
    got = set(standard_elements(cyclic(4)))
    want = {CircleJElement(F(k, 4), False) for k in range(4)}
    assert got == want


def test_binary_dihedral_structure():
    els = standard_elements(binary_dihedral(12))
    assert len(els) == 12
    assert sum(1 for e in els if e.jflag) == 6
    closed = {multiply(a, b) for a in els for b in els}
    assert closed == set(els)


def test_circle_ids_are_shared_per_order():
    """cyclic and binary_dihedral return one id per argument, and a
    malformed id is not kept: it raises on every call."""
    assert cyclic(12) is cyclic(12)
    assert binary_dihedral(8) is binary_dihedral(8)
    assert cyclic(8) == StandardGroupId("C", 8)
    for _ in range(2):
        with pytest.raises(ValueError):
            binary_dihedral(6)


@pytest.mark.parametrize("gid,order", [
    (BINARY_TETRAHEDRAL, 24),
    (BINARY_OCTAHEDRAL, 48),
    (BINARY_ICOSAHEDRAL, 120),
])
def test_polyhedral_orders(gid, order):
    assert len(set(standard_group(gid))) == order


def test_standard_group_returns_a_fresh_list():
    for gid in (BINARY_TETRAHEDRAL, BINARY_OCTAHEDRAL, BINARY_ICOSAHEDRAL):
        first = standard_group(gid)
        want = list(first)
        first.clear()
        assert standard_group(gid) == want


def test_standard_group_lists_only_binary_polyhedral_groups():
    """Cyclic and binary dihedral groups are integer angle data in the
    package; asking for their element list is an error."""
    for gid in (cyclic(6), binary_dihedral(8)):
        with pytest.raises(ValueError, match=re.escape(f"not {gid}")):
            standard_group(gid)


def test_tetrahedral_and_octahedral_closure_exhaustive():
    for gid in (BINARY_TETRAHEDRAL, BINARY_OCTAHEDRAL):
        els = standard_group(gid)
        group = set(els)
        for a in els:
            for b in els:
                assert a.multiply(b) in group


def test_icosahedral_closure_sampled():
    els = standard_group(BINARY_ICOSAHEDRAL)
    group = set(els)
    rng = random.Random(13)
    for _ in range(1500):
        a, b = rng.choice(els), rng.choice(els)
        assert a.multiply(b) in group
    for el in els:
        assert inverse(el) in group


# -- validation ---------------------------------------------------------------

def test_validate_good_spec():
    violations, notes = validate(FamilySpec("1p", m=3, n=1, r=2, s=1))
    assert violations == [] and notes == []


def test_validate_parity_violation():
    violations, _ = validate(FamilySpec("1p", m=2, n=1, r=2, s=1))
    assert any("m must be odd" in v for v in violations)


def test_validate_coprimality_violation():
    violations, _ = validate(FamilySpec("1", m=1, n=1, r=4, s=2))
    assert any("gcd(s,r)=1" in v for v in violations)


def test_validate_even_s_reports_conjugate_replacement():
    violations, notes = validate(FamilySpec("1", m=1, n=1, r=3, s=2))
    assert violations == []
    assert notes and "s=1" in notes[0]
    assert normalized_s(FamilySpec("1", m=1, n=1, r=3, s=2)) == 1


def test_family_declarations_are_well_formed():
    """Every family takes a prefix-shaped signature, which positional
    FamilySpec construction relies on, and its constraint tuples list
    parameters other than s in signature order, the order of the
    violation messages."""
    for fam in groups.FAMILIES.values():
        assert fam.params in ((), ("m",), ("m", "n"), ("m", "n", "r", "s"))
        others = [p for p in fam.params if p != "s"]
        for names in (fam.odd, fam.even, fam.above_one):
            assert list(names) == [p for p in others if p in names], fam.name


@pytest.mark.parametrize("family, params, expected", [
    ("1p", (2, 1, 2, 1), ["m must be odd"]),
    ("1p", (1, 1, 3, 1), ["r must be even"]),
    ("1", (1, 1, 4, 2), ["gcd(s,r)=1 fails"]),
    ("1p", (2, 2, 4, 2), ["gcd(s,r)=1 fails", "m must be odd",
                          "n must be odd"]),
    ("11p", (2, 2, 1, 1), ["m must be odd", "n must be odd",
                           "r must be even"]),
    ("33", (1, 1), ["m must differ from 1", "n must differ from 1"]),
    ("33p", (2, 1), ["m must be odd", "n must differ from 1"]),
    ("33p", (1, 1), ["m must differ from 1", "n must differ from 1"]),
    ("34", (2, 3), ["m must be odd"]),
    ("34bis", (1, 2), ["n must be odd"]),
    ("11", (1, 1, 4, 6), ["gcd(s,r)=1 fails", "s must lie in 1..3"]),
    ("1p", (2, 1, 2, 3), ["s must lie in 1..1", "m must be odd"]),
])
def test_validate_lists_every_violation_in_order(family, params, expected):
    """The full list: gcd(s, r) first, then the range of s, then odd,
    even and differ-from-1, each in parameter order."""
    spec = FamilySpec(family, *params)
    assert validate(spec) == (expected, [])


def test_validate_missing_and_extra_parameters():
    violations, _ = validate(FamilySpec("9"))
    assert any("requires parameter m" in v for v in violations)
    violations, _ = validate(FamilySpec("9", m=1, r=3))
    assert any("does not take parameter r" in v for v in violations)


def test_unknown_family_rejected():
    with pytest.raises(UnsupportedFamilyError):
        get_family("99x")


def test_non_fibered_family_not_buildable():
    with pytest.raises(UnsupportedFamilyError):
        goursat_group(FamilySpec("20"))


@pytest.mark.parametrize("entry", [goursat_group, evaluate],
                         ids=["goursat_group", "evaluate"])
def test_entry_points_reject_a_spec_alike(entry):
    """The group builder and the engine share one entry check: the same
    exception type and message for an unknown family, a non-fibered one
    and an invalid spec."""
    cases = [(FamilySpec("99x"), UnsupportedFamilyError,
              "unknown family identifier '99x'"),
             (FamilySpec("20"), UnsupportedFamilyError,
              "family 20 preserves no fibration"),
             (FamilySpec("1p", m=2, n=1, r=2, s=1), ValueError,
              "invalid 1p(m=2,n=1,r=2,s=1): m must be odd"),
             (FamilySpec("9"), ValueError,
              "invalid 9(): family 9 requires parameter m")]
    for spec, error, message in cases:
        with pytest.raises(ValueError) as caught:
            entry(spec)
        assert (type(caught.value), str(caught.value)) == (error, message), spec


# -- Goursat construction -----------------------------------------------------

def test_goursat_orders_match_the_catalog():
    cases = [
        FamilySpec("9", m=1),
        FamilySpec("1", m=1, n=1, r=2, s=1),
        FamilySpec("1p", m=1, n=1, r=10, s=1),
        FamilySpec("2", m=2, n=3),
        FamilySpec("33", m=2, n=3),
        FamilySpec("33p", m=3, n=5),
        FamilySpec("34", m=3, n=3),
        FamilySpec("18", m=2),
        FamilySpec("13bis", m=2, n=2),
    ]
    for spec in cases:
        group = goursat_group(spec)
        assert phi_order(group) == get_family(spec.family).phi_order(spec)


def test_goursat_closure_exhaustive_small():
    for spec in (FamilySpec("34", m=1, n=3), FamilySpec("1", m=1, n=1, r=4, s=1),
                 FamilySpec("10", m=1, n=1)):
        group = goursat_group(spec)
        pairs = elements(group)
        members = set(pairs)
        for a in pairs:
            assert inverse(a) in members
            for b in pairs:
                assert a.multiply(b) in members


def test_goursat_closure_sampled_large():
    rng = random.Random(7)
    for spec in (FamilySpec("9", m=1), FamilySpec("19", m=1),
                 FamilySpec("11", m=2, n=1, r=3, s=1)):
        group = goursat_group(spec)
        pairs = elements(group)
        members = set(pairs)
        for _ in range(500):
            a, b = rng.choice(pairs), rng.choice(pairs)
            assert a.multiply(b) in members


def test_goursat_projection_and_kernel_consistency():
    """The left factors run over L, and the elements whose right factor is
    trivial project exactly onto the left kernel (symmetrically on the
    right)."""
    for spec in (FamilySpec("3", m=2, n=2), FamilySpec("8", m=1),
                 FamilySpec("11p", m=1, n=1, r=4, s=1),
                 FamilySpec("33", m=2, n=2)):
        group = goursat_group(spec)
        fam = get_family(spec.family)
        data = fam.goursat(spec)
        pairs = elements(group)
        lefts = {p.left for p in pairs}
        assert lefts == set(standard_elements(data.left))
        left_kernel = {p.left for p in pairs if is_identity(p.right)}
        assert left_kernel == set(standard_elements(data.left_kernel))
        right_kernel = {p.right for p in pairs if is_identity(p.left)}
        want = (algebraic_group(data.right_kernel) if data.right.kind in "TOI"
                else standard_elements(data.right_kernel))
        assert right_kernel == set(want)


def _circle_type(spec):
    return get_family(spec.family).goursat(spec).right.kind in "CD"


def test_grid_construction_matches_generic_cosets():
    """The lattice build writes the rows of the coset-by-coset gluing for
    every circle-type group of order <= 48, and those of the direct grid
    of the parameter families on the cases below."""
    for fam, kw in [("1", dict(m=2, n=3, r=4, s=3)),
                    ("1p", dict(m=3, n=3, r=2, s=1)),
                    ("11", dict(m=1, n=2, r=5, s=2)),
                    ("11p", dict(m=1, n=1, r=6, s=1))]:
        spec = FamilySpec(fam, **kw)
        group = goursat_group(spec)
        grid, rows = direct_grid_rows(spec)
        assert (group.grid, sorted(group_rows(group))) == (grid, sorted(rows))
    specs = [sp for sp in sweep_specs(48) if _circle_type(sp)]
    assert len(specs) == 2696
    for spec in specs:
        group = goursat_group(spec)
        grid, rows = coset_rows(spec)
        assert (group.grid, sorted(group_rows(group))) == (grid, sorted(rows)), spec
        assert group.order == len(rows)


def test_row_view_matches_the_row_build_digest():
    """(spec, grid, sorted rows) of every circle-type group of order <= 120
    hash to the digest of the row build that preceded the lattice build
    (15,864 groups, 2,546,542 rows)."""
    digest = hashlib.sha256()
    count = 0
    for spec in sweep_specs(120):
        if _circle_type(spec):
            group = goursat_group(spec)
            digest.update(repr((str(spec), group.grid, sorted(group_rows(group)))).encode())
            count += 1
    assert count == 15864
    assert digest.hexdigest()[:16] == "5508e155f9b61fd5"


def test_lattice_build_matches_the_full_walk():
    """Entering the kernel rotations once, as vectors, and walking only
    the j-type kernel generators and the generator pairs gives the normal
    form and the offsets of the walk along every generator, on every
    circle-type group of order <= 240."""
    count = 0
    for spec in sweep_specs(240):
        data = get_family(spec.family).goursat(spec)
        if data.right.kind not in "CD":
            continue
        group = goursat_group(spec)
        lat = group.lattice
        assert (lat.h11, lat.h12, lat.h22, lat.offsets) == \
            circle_lattice_by_full_walk(data, group.grid), spec
        count += 1
    assert count == 61709


def test_polyhedral_row_view_matches_the_row_build_digest():
    """(spec, grid, rows sorted by (jl, a, r._key)) of every group with a
    T*, O* or I* right factor of order <= 480 hash to the digest of the
    row build that preceded the coset gluing (106 groups, 56,160 rows)."""
    digest = hashlib.sha256()
    count = rows = 0
    for spec in sweep_specs(480, TABLE4_FAMILIES):
        if not _circle_type(spec):
            group = goursat_group(spec)
            keys = sorted((jl, a, r._key) for jl, a, r in group_rows(group))
            digest.update(repr((str(spec), group.grid, keys)).encode())
            count += 1
            rows += len(keys)
            assert group.order == len(keys)
    assert (count, rows) == (106, 56160)
    assert digest.hexdigest()[:16] == "f81fc07174684c26"


def _reference_goursat(data):
    """{(l, r) : phi(l L_K) = r R_K} with the cosets kept as frozensets:
    phi spreads from the seed by multiplying coset representatives and
    finding the product's coset by membership."""
    build = algebraic_group if data.right.kind in "TOI" else standard_elements

    def cosets(group, kernel):
        out = []
        for g in group:
            if not any(g in c for c in out):
                out.append(frozenset(multiply(g, k) for k in kernel))
        return out

    def identity(group):
        return next(x for x in group if is_identity(x))

    left, right = standard_elements(data.left), build(data.right)
    cl = cosets(left, standard_elements(data.left_kernel))
    cr = cosets(right, build(data.right_kernel))

    def find(cs, x):
        return next(c for c in cs if x in c)

    def times(cs, a, b):
        return find(cs, multiply(next(iter(a)), next(iter(b))))

    phi = {find(cl, identity(left)): find(cr, identity(right))}
    phi.update((find(cl, as_element(gl)), find(cr, as_element(gr)))
               for gl, gr in data.phi_generators)
    gens = list(phi.items())
    frontier = list(gens)
    while frontier:
        a, fa = frontier.pop()
        for g, fg in gens:
            ga, image = times(cl, g, a), times(cr, fg, fa)
            if ga not in phi:
                phi[ga] = image
                frontier.append((ga, image))
            assert phi[ga] == image
    assert len(phi) == len(cl) == len(cr)
    return {PairElement(l, r) for c, fc in phi.items() for l in c for r in fc}


# one small spec of every family whose factors are both circle-type: the
# lattice build, read through the reference `elements`; 33 and 33p swap
# the rotation and j cosets
CIRCLE_SPECS = [
    FamilySpec("1", m=2, n=1, r=3, s=2), FamilySpec("1p", m=1, n=3, r=4, s=3),
    FamilySpec("11", m=1, n=2, r=3, s=2), FamilySpec("11p", m=3, n=1, r=2, s=1),
] + [FamilySpec(fam, m=2, n=3) for fam in (
    "2", "3", "4", "10", "12", "13", "13bis", "33", "2bis", "3bis", "4bis")
] + [FamilySpec(fam, m=3, n=5) for fam in ("33p", "34", "34bis")]

# every table-4 spec of order <= 48 whose right factor is circle-type,
# so the lattice build meets the brute force at many m and n
CIRCLE_SPECS += [
    row.spec for row in enumerate_specs(48, TABLE4_FAMILIES)
    if get_family(row.spec.family).goursat(row.spec).right.kind in "CD"
    and row.spec not in CIRCLE_SPECS]


@pytest.mark.parametrize("spec", [
    FamilySpec(fam, m=m)
    for fam in ("5", "6", "7", "8", "9", "14", "15", "16", "17", "18")
    for m in (1, 2)] + [FamilySpec("19", m=1)] + CIRCLE_SPECS, ids=str)
def test_polyhedral_goursat_matches_brute_force_cosets(spec):
    group = goursat_group(spec)
    reference = _reference_goursat(get_family(spec.family).goursat(spec))
    pairs = elements(group)
    assert len(pairs) == len(reference)
    assert set(pairs) == reference


def test_fixed_factor_cache_stays_bounded():
    """Only the binary polyhedral right factors are kept, one entry per
    (right, right kernel), however many specs ran."""
    results = run_sweep(sweep_specs(60, TABLE4_FAMILIES))
    assert all(res.ok for res in results)
    assert 0 < groups._polyhedral_quotient.cache_info().currsize <= 6


def test_goursat_checks_survive_python_optimize():
    """Kernels outside their factor, circle generator images outside their
    factor and gluings that are not isomorphisms of the quotients raise
    in the generator builds of both kinds of right factor, under -O too."""
    script = (
        "import sys\n"
        "from orbiseif import engine, groups\n"
        "from orbiseif.groups import (BINARY_OCTAHEDRAL, BINARY_TETRAHEDRAL, "
        "CIRCLE_J, OMEGA, SIGMA, GoursatData, _z, binary_dihedral, cyclic)\n"
        "if __debug__:\n"
        "    sys.exit('not running under -O')\n"
        "if engine.InternalInconsistencyError is not "
        "groups.InternalInconsistencyError:\n"
        "    sys.exit('engine and groups raise different errors')\n"
        "c4, c2, z4, minus = cyclic(4), cyclic(2), _z(4), _z(2)\n"
        "o, t = BINARY_OCTAHEDRAL, BINARY_TETRAHEDRAL\n"
        "lattice, gluing = groups._circle_lattice, groups._coset_gluing\n"
        "for build, data, want in (\n"
        "        (lattice, GoursatData(c4, cyclic(3), c4, c4),\n"
        "         'C3 is not contained in C4'),\n"
        "        (lattice, GoursatData(cyclic(8), binary_dihedral(8), cyclic(8),\n"
        "                              cyclic(8)), 'D*8 is not contained in C8'),\n"
        "        (lattice, GoursatData(c4, c2, c4, c2, ((z4, minus),)),\n"
        "         'not injective'),\n"
        "        (lattice, GoursatData(c4, c2, c4, c2, ((minus, z4),)),\n"
        "         'do not extend to a homomorphism'),\n"
        "        (gluing, GoursatData(c4, c2, o, t, ((z4, OMEGA),)),\n"
        "         'do not extend to a homomorphism'),\n"
        "        (gluing, GoursatData(c4, c2, o, t, ((minus, SIGMA),)),\n"
        "         'not injective'),\n"
        "        (gluing, GoursatData(binary_dihedral(8), binary_dihedral(4), o, t,\n"
        "                             ((CIRCLE_J, SIGMA),)), 'not injective'),\n"
        "        (gluing, GoursatData(c4, c2, o, t), 'do not span the quotient'),\n"
        "        (gluing, GoursatData(c4, cyclic(8), o, t),\n"
        "         'C8 is not contained in C4'),\n"
        "        (lattice, GoursatData(c4, c2, c4, c2, ((_z(8), z4),)),\n"
        "         '(False, 1, 8) is not in C4'),\n"
        "        (gluing, GoursatData(c4, c2, o, t, ((_z(8), SIGMA),)),\n"
        "         '(False, 1, 8) is not in C4'),\n"
        "        (lattice, GoursatData(c4, c2, c4, c2, ((CIRCLE_J, z4),)),\n"
        "         '(True, 0, 1) is not in C4'),\n"
        "        (gluing, GoursatData(c4, c2, o, t, ((CIRCLE_J, SIGMA),)),\n"
        "         '(True, 0, 1) is not in C4')):\n"
        "    try:\n"
        "        build(data)\n"
        "    except engine.InternalInconsistencyError as exc:\n"
        "        if want not in str(exc):\n"
        "            sys.exit(str(exc))\n"
        "    else:\n"
        "        sys.exit(f'{data} passed')\n")
    proc = _run_optimized("-c", script)
    assert proc.returncode == 0, proc.stderr


def test_group_shape_checks_survive_python_optimize():
    """The closed-form cosets rely on an even binary dihedral period and
    on the fixed T*, O*, I* orders; malformed ids raise under -O too."""
    script = (
        "import sys\n"
        "from orbiseif.groups import StandardGroupId\n"
        "if __debug__:\n"
        "    sys.exit('not running under -O')\n"
        "for kind, order in (('D', 6), ('T', 48), ('X', 4)):\n"
        "    try:\n"
        "        StandardGroupId(kind, order)\n"
        "    except ValueError:\n"
        "        continue\n"
        "    sys.exit(f'{kind}{order} was accepted')\n")
    proc = _run_optimized("-c", script)
    assert proc.returncode == 0, proc.stderr


def test_table4_builds_form_no_product_once_warm(monkeypatch):
    """Once the T*, O*, I* coset data are filled, building a group of any
    table-4 family forms no element product and lists no standard group:
    the coset data of cyclic and binary dihedral factors are closed-form."""
    specs = [enumerate_specs(240, [fam])[0].spec for fam in TABLE4_FAMILIES]
    for spec in specs:
        goursat_group(spec)
    calls = Counter()
    for name in ("multiply", "standard_group"):
        def counted(*args, _name=name, _original=getattr(groups, name)):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(groups, name, counted)
    made = {}
    for spec in specs:
        before = sum(calls.values())
        goursat_group(spec)
        made[spec.family] = sum(calls.values()) - before
    assert made == dict.fromkeys(TABLE4_FAMILIES, 0)


def test_cold_polyhedral_fill_counts_its_products(monkeypatch):
    """A fresh fill of the six catalog quotients lists each of T*, O* and
    I* once and does not multiply out the coset of the kernel, which is
    the kernel: 132 products go through groups.multiply, and with the
    listings of O* (48) and I* (124) the fill forms 304 quaternion
    products in all."""
    keys = set()
    for fam in TABLE4_FAMILIES:
        data = get_family(fam).goursat(enumerate_specs(240, [fam])[0].spec)
        if data.right.kind in "TOI":
            keys.add((data.right, data.right_kernel))
    assert len(keys) == 6
    groups._polyhedral_quotient.cache_clear()
    groups._polyhedral_elements.cache_clear()
    calls = Counter()

    def counted(name, original):
        def count(*args):
            calls[name] += 1
            return original(*args)
        return count

    monkeypatch.setattr(groups, "multiply",
                        counted("groups.multiply", groups.multiply))
    monkeypatch.setattr(AlgebraicQuaternion, "multiply",
                        counted("quaternion", AlgebraicQuaternion.multiply))
    for right, kernel in sorted(keys, key=str):
        groups._polyhedral_quotient(right, kernel)
    assert calls == {"groups.multiply": 132, "quaternion": 304}
    assert groups._polyhedral_elements.cache_info().currsize == 3


def test_contains_minus_one_pair():
    for spec in (FamilySpec("34", m=1, n=1), FamilySpec("1p", m=1, n=1, r=2, s=1),
                 FamilySpec("5", m=1)):
        group = goursat_group(spec)
        assert any(is_identity(PairElement(element_negate(p.left),
                                           element_negate(p.right)))
                   for p in elements(group))


# -- enumeration ----------------------------------------------------------------

def test_enumerate_family_9_below_its_order():
    assert enumerate_specs(24, ["9"]) == []


def test_enumerate_family_1_small_bound():
    rows = enumerate_specs(8, ["1"])
    seen = {(r.spec.m, r.spec.n, r.spec.r, r.spec.s) for r in rows}
    import math
    want = {(m, n, r, s)
            for m in range(1, 5) for n in range(1, 5) for r in range(1, 5)
            for s in range(1, r + 1)
            if 2 * m * n * r <= 8 and math.gcd(s, r) == 1}
    assert seen == want
    assert all(row.phi_order == 2 * row.spec.m * row.spec.n * row.spec.r
               for row in rows)


@pytest.fixture(scope="module")
def reference_rows_60():
    return reference_enumerate(60)


def test_enumerate_matches_the_candidate_filter_at_every_bound(
        reference_rows_60):
    """For every registered family and every bound 1..60, the stepped
    loops give the rows of the filtered candidate loop, in its order."""
    for name in FAMILY_ORDER:
        family_rows = [row for row in reference_rows_60
                       if row.spec.family == name]
        for bound in range(1, 61):
            assert enumerate_specs(bound, [name]) == [
                row for row in family_rows if row.phi_order <= bound], \
                (name, bound)


# sha256 of repr((str(spec), phi_order, fibered)) over the rows of order
# <= 480, joined by newlines, as the candidate filter enumerated them
ROWS_480 = 242_623
ROWS_480_DIGEST = \
    "66b6cff4a2fd3a6e9af70fb56e380f7ee1503e6b169156a943b9b1fc10b1a753"


def test_enumerate_480_matches_the_pinned_digest():
    rows = enumerate_specs(480)
    assert len(rows) == ROWS_480
    text = "\n".join(repr((str(row.spec), row.phi_order, row.fibered))
                     for row in rows)
    assert hashlib.sha256(text.encode()).hexdigest() == ROWS_480_DIGEST


def test_enumerate_non_fibered_listing():
    rows = enumerate_specs(120, ["30", "31"])
    assert [(r.spec.family, r.phi_order, r.fibered) for r in rows] == \
        [("31", 120, False)]
