"""Brute-force references that read the explicit rows of a built group.

The library keeps a group with two circle-type factors as lattice data
(`PairGroup.lattice`) and reads every oracle quantity off its Hermite
normal form.  The functions here are the row scans that did the same
work before: they read `PairGroup.rows`, one integer row per element, so
the tests can check the lattice formulas against every element.  The two
row builds at the end, the direct grid of the parameter families and
the coset-by-coset gluing, are the constructions the lattice build
replaced.
"""

import math

from orbiseif.engine import THREE_SPHERE, TopologyReport, lens_report, modinv_pos
from orbiseif.groups import (
    _circle_period,
    _circle_quotient,
    _close_isomorphism,
    get_family,
    phi_order,
)
from orbiseif.oracle import (
    AROT,
    FLIP,
    HOPF_FIBER,
    REFL,
    ROT,
    TorusQuotientMap,
    slope_invariant,
    torus_quotient_map,
)


IDENTITY_TORUS_MAP = TorusQuotientMap(((1, 0), (0, 1)), 1)


def lattice_points(hnf, grid):
    """The lattice of a Hermite normal form, modulo grid, as a set."""
    h11, h12, h22 = hnf
    return {(x * h11 % grid, b) for x in range(grid // h11)
            for b in range(x * h12 % h22, grid, h22)}


# -- the base action -----------------------------------------------------------

def row_shapes(group):
    """Shape -> set of angle parameters c = -2b, one row at a time."""
    grid = group.grid
    shapes = {ROT: set(), FLIP: set(), AROT: set(), REFL: set()}
    for jl, jr, _, b in group.rows:
        shapes[2 * jl + jr].add((-2 * b) % grid)
    return shapes


def pole_stab_vectors(rows, grid, swap):
    """Torus translations (a - b, a + b) of the rotation pairs, swapped for
    the core at zero."""
    vectors = set()
    for jl, jr, a, b in rows:
        if jl or jr:
            continue
        u, v = (a - b) % grid, (a + b) % grid
        vectors.add((v, u) if swap else (u, v))
    return vectors


def equator_stab_vectors(rows, grid, point):
    """Torus translations of the stabilizer of the fiber over the
    unit-circle point point/grid, conjugated to the core at infinity."""
    vectors = set()
    half = grid // 2
    quarter = grid // 4
    for jl, jr, a, b in rows:
        if jl:
            continue
        if not jr:
            if (2 * b) % grid == 0:
                vectors.add(((a - b) % grid, (a + b) % grid))
            continue
        if (2 * (point + b)) % grid == half:
            beta_c = (point + b) % grid
            assert beta_c in (quarter, 3 * quarter)
            vectors.add(((a - beta_c) % grid, (a + beta_c) % grid))
    return vectors


def invariant_from_int_vectors(vectors, grid, location):
    """Local invariant of the core at infinity from the explicit set of
    torus translations: quotient first by the translations fixing the core
    pointwise (u = 0), then by the residual cyclic group, taking as its
    generator the first element of order exactly grid/step found."""
    size = len(vectors)
    vertical = [v for u, v in vectors if u == 0]
    k = len(vertical)
    assert k >= 1 and size % k == 0
    if k == 1:
        pre = IDENTITY_TORUS_MAP
    else:
        step = grid // k
        gen = next(v for v in vertical if math.gcd(v, grid) == step)
        pre = torus_quotient_map(0, k, gen // step)
    residual = {(u, (k * v) % grid) for u, v in vectors}
    e2 = size // k
    assert len(residual) == e2
    if e2 == 1:
        main = IDENTITY_TORUS_MAP
    else:
        step = grid // e2
        u0, v0 = next((u, v) for u, v in residual if math.gcd(u, grid) == step)
        assert v0 % step == 0
        main = torus_quotient_map(u0 // step, e2, v0 // step)
    return slope_invariant(main.compose_after(pre), HOPF_FIBER, location)


# -- the lens space, by the quotient-matrix route ------------------------------------

def lens_by_matrices(group):
    """Underlying lens space of an abelian quotient from the two solid
    torus quotient matrices and the meridian/longitude exchange, over the
    explicit translations of every rotation pair."""
    grid = group.grid
    vectors = pole_stab_vectors(group.rows, grid, False)
    assert len(vectors) == phi_order(group)
    k1 = sum(1 for u, v in vectors if v == 0)   # fix the z1 = 0 core pointwise
    k2 = sum(1 for u, v in vectors if u == 0)   # fix the z2 = 0 core pointwise
    components = tuple(sorted(k for k in (k1, k2) if k > 1))
    residual = {((k1 * u) % grid, (k2 * v) % grid) for u, v in vectors}
    e = len(vectors) // (k1 * k2)
    assert len(residual) == e
    if e == 1:
        return TopologyReport(THREE_SPHERE, singular_components=components)
    step = grid // e
    u0, v0 = next((u, v) for u, v in residual
                  if math.gcd(math.gcd(u, v), grid) == step)
    g, d = u0 // step, v0 // step
    assert math.gcd(g, e) == 1 and math.gcd(d, e) == 1
    # meridian of the second quotient torus = -(g*dbar) mu' + e lambda'
    return lens_report(e, (-g * modinv_pos(d, e)) % e, components)


# -- the row builds the lattice replaced -------------------------------------------

def direct_grid_rows(spec):
    """(grid, rows) of families 1, 1p, 11 and 11p written straight from the
    parameters: the c-th rotation coset of the left kernel pairs with the
    (c*s)-th on the right, and the j cosets pair likewise."""
    m, n, r, s = spec.m, spec.n, spec.r, spec.s
    half = 1 if spec.family in ("1p", "11p") else 2
    flags = (False, True) if spec.family in ("11", "11p") else (False,)
    left_den, right_den = half * m * r, half * n * r
    grid = math.lcm(4, left_den, right_den)
    lstep, rstep = grid // left_den, grid // right_den
    cosets = [([(c + r * t) * lstep for t in range(half * m)],
               [(c * s + r * u) % right_den * rstep for u in range(half * n)])
              for c in range(r)]
    return grid, [(flag, flag, a, b) for flag in flags
                  for lefts, rights in cosets for a in lefts for b in rights]


def coset_rows(spec):
    """(grid, rows) coset by coset: both factors as closed-form coset data,
    phi spread from the generator cosets through the quotient tables."""
    data = get_family(spec.family).goursat(spec)
    grid = math.lcm(4, _circle_period(data.left), _circle_period(data.right))
    left = _circle_quotient(data.left, data.left_kernel, grid)
    right = _circle_quotient(data.right, data.right_kernel, grid)
    seed = {left.identity: right.identity}
    for gen_l, gen_r in data.phi_generators:
        seed[left.coset_of(gen_l)] = right.coset_of(gen_r)
    phi = _close_isomorphism(left.table, right.table, seed)
    assert phi[left.minus_one] == right.minus_one
    return grid, [(jl, jr, a, b) for coset, parts in enumerate(left.cosets)
                  for jl, angles in parts for a in angles
                  for jr, rights in right.cosets[phi[coset]] for b in rights]
