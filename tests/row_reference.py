"""Brute-force references that read the explicit rows of a built group.

The library keeps a group with two circle-type factors as lattice data
(`PairGroup.lattice`), and one with a T*, O* or I* right factor as coset
data (`PairGroup.gluing`), reads every oracle quantity off that
structure, and never lists its elements.  `group_rows` lists them here,
one integer row per element, and the functions below are the row scans
that did the oracle's work before, so the tests can check the
structural formulas against every element.  The row builds at the end,
the direct grid of the parameter families and the coset-by-coset gluing
through quotient product tables, are the constructions the structural
builds replaced.

`circle_lattice_by_full_walk` is the Schreier walk of the lattice build
along every kernel generator, rotations included; the library enters
the kernel rotations once, as vectors, and walks only the rest.

`circle_base_by_sets` is the base action of a circle-type group read
off the shape sets one angle at a time; the oracle reads the same off
the shape progressions in a fixed number of steps.

The solid-torus quotient-map algebra (`TorusQuotientMap`,
`torus_quotient_map`, `slope_invariant`, `HOPF_FIBER`) is the reference
route for the local invariants and the lens space: the oracle reads both
in closed form off a Hermite normal form, and the tests compare those
closed forms with the composed quotient maps.

`euclid_hnf` is the Hermite normal form with its Bezout coefficients
from the extended Euclidean loop `ext_gcd`; the library takes them from
a modular inverse, and a test holds the two forms equal.

`box_topology` keeps the source's closed forms for the lens space and
singular set of families 1 and 1p, read off the engine's integer box;
the engine reads both off the Seifert data by the rule it uses for every
row, and a test holds the two equal.
"""

import math
from dataclasses import dataclass

from orbiseif.build import (
    GOURSAT_BUILDERS,
    CosetGluing,
    _check_circle_factor,
    _circle_period,
    _circle_times,
    _hnf_reduce,
    _on_circle_grid,
    phi_order,
)
from orbiseif.engine import (
    CONE,
    THREE_SPHERE,
    LocalInvariant,
    TopologyReport,
    lens_report,
    modinv_pos,
)
from orbiseif.axis import _axis
from orbiseif.groups import StandardGroupId, _require
from orbiseif.oracle import (
    AROT,
    FLIP,
    REFL,
    ROT,
    BaseActionGroup,
    SingularOrbit,
    _quotient_signature,
)
from orbiseif.polyhedral import _Quotient
from orbiseif.quaternions import element_negate, quat_rational

HOPF_FIBER = (1, 1)


# -- boundary homology of solid torus quotients ---------------------------------

@dataclass(frozen=True)
class TorusQuotientMap:
    """Boundary homology of the quotient of a fibered solid torus.

    Columns of `matrix` are the images of the meridian and longitude in
    the (meridian', longitude') basis of the quotient torus; the map is
    upper triangular and its determinant equals the order of the acting
    cyclic group.  `core_fix` is the order of the subgroup fixing the
    core pointwise, which is the singularity index the core acquires.
    """

    matrix: tuple
    core_fix: int

    def determinant(self) -> int:
        return self.matrix[0][0] * self.matrix[1][1]

    def image_of(self, p: int, q: int):
        (m00, m01), (m10, m11) = self.matrix
        _require(m10 == 0, "torus quotient matrix is not upper triangular")
        return (m00 * p + m01 * q, m11 * q)

    def compose_after(self, first: "TorusQuotientMap") -> "TorusQuotientMap":
        (a, b), (_, d) = self.matrix
        (e, f), (_, h) = first.matrix
        return TorusQuotientMap(((a * e, a * f + b * h), (0, d * h)),
                                self.core_fix * first.core_fix)


def torus_quotient_map(d: int, e: int, g: int) -> TorusQuotientMap:
    """Quotient of the solid torus by z1 -> e^(2 pi i g/e) z1,
    z2 -> e^(2 pi i d/e) z2 (the core is the z1 = 0 circle).

    The meridian multiplies by gcd(d, e) and the longitude picks up the
    twist -g * dbar' where dbar' inverts d/gcd(d,e) modulo e/gcd(d,e);
    when that modulus is 1 the inverse is defined to be 0 (the twist is
    only defined modulo the modulus, and downstream slope arithmetic
    never reads it in that case).
    """
    if e < 1 or math.gcd(math.gcd(abs(d), e), abs(g)) != 1:
        raise ValueError(f"need gcd(d, e, g) = 1 and e >= 1, got {(d, e, g)}")
    k = math.gcd(abs(d), e)
    e_prime = e // k
    d_prime = d // k
    d_bar = 0 if e_prime == 1 else modinv_pos(d_prime, e_prime)
    return TorusQuotientMap(((k, -g * d_bar), (0, e_prime)), k)


def slope_invariant(tq: TorusQuotientMap, fiber=HOPF_FIBER,
                    location: str = CONE) -> LocalInvariant:
    """Local invariant of the quotient core from the image fiber slope.

    The fiber class (p, q) maps to a possibly non-primitive class; the
    reduced slope a/b inverts to abar/b, and both entries are scaled by
    the core fix order so the invariant keeps the singularity index.
    """
    p, q = fiber
    num, den = tq.image_of(p, q)
    _require(math.gcd(p, q) == 1 and den >= 1, "fiber slope is not primitive")
    c = math.gcd(abs(num), den)
    a, b = num // c, den // c
    a_bar = 0 if b == 1 else modinv_pos(a, b)
    k = tq.core_fix
    return LocalInvariant(a_bar * k, b * k, location)


IDENTITY_TORUS_MAP = TorusQuotientMap(((1, 0), (0, 1)), 1)


def ext_gcd(a, b):
    """(g, u, v) with u*a + v*b = g = gcd(a, b)."""
    u, v, u1, v1 = 1, 0, 0, 1
    while b:
        quo = a // b
        a, b, u, v, u1, v1 = b, a - quo * b, u1, v1, u - quo * u1, v - quo * v1
    return (a, u, v) if a >= 0 else (-a, -u, -v)


def euclid_hnf(vectors, grid):
    """Hermite normal form (h11, h12, h22) of the lattice spanned by the
    integer vectors and grid*Z^2, each vector (x, y) meeting the first row
    through the unimodular ((s, t), (-x/g, h11/g)), (g, s, t) =
    ext_gcd(h11, x)."""
    h11, h12, h22 = grid, 0, grid
    for x, y in vectors:
        g, s, t = ext_gcd(h11, x)
        h22 = math.gcd(h22, (h11 * y - x * h12) // g)
        h11, h12 = g, (s * h12 + t * y) % h22
    return h11, h12, h22


def lattice_points(hnf, grid):
    """The lattice of a Hermite normal form, modulo grid, as a set."""
    h11, h12, h22 = hnf
    return {(x * h11 % grid, b) for x in range(grid // h11)
            for b in range(x * h12 % h22, grid, h22)}


# -- the rows of a built group ----------------------------------------------------

def gluing_rows(gluing, grid):
    """Every pair of coset data as a row (left jflag, left angle, r)."""
    return [(jflag, x, r) for jflag, a, coset in gluing.parts()
            for x in range(a, grid, grid // gluing.period) for r in coset]


def group_rows(group):
    """Every pair of a built group as an integer row over its grid: (left
    jflag, right jflag, left angle, right angle) for lattice data, (left
    jflag, left angle, r) for coset data.  A lattice lists its flag
    classes in offset order, each over its points in ascending order."""
    grid, lat = group.grid, group.lattice
    if lat is None:
        return gluing_rows(group.gluing, grid)
    points = sorted(lattice_points((lat.h11, lat.h12, lat.h22), grid))
    return [(jl, jr, (a + x) % grid, (b + y) % grid)
            for jl, jr, a, b in lat.offsets for x, y in points]


# -- the lattice build -----------------------------------------------------------

def circle_lattice_by_full_walk(data, grid):
    """(h11, h12, h22, offsets) of the group generated by L_K x 1, 1 x R_K
    and the generator pairs of phi: the flag classes walked from the
    rotation class along every kernel generator and generator pair, each
    product t*s of a class representative t and a generator s opening a
    class or giving the Schreier vector t*s*rep(t*s)^-1."""
    one = (False, 0)

    def kernel_gens(kernel):
        rotation = (False, grid // _circle_period(kernel))
        return (rotation, (True, 0)) if kernel.kind == "D" else (rotation,)

    gens = [(x, one) for x in kernel_gens(data.left_kernel)]
    gens += [(one, y) for y in kernel_gens(data.right_kernel)]
    gens += [(_on_circle_grid(l, data.left, _circle_period(data.left), grid),
              _on_circle_grid(r, data.right, _circle_period(data.right), grid))
             for l, r in data.phi_generators]
    reps = {(False, False): (0, 0)}
    flags = [(False, False)]
    vectors = []
    for jl, jr in flags:
        a, b = reps[jl, jr]
        for x, y in gens:
            (kl, c), (kr, d) = (_circle_times((jl, a), x, grid),
                                _circle_times((jr, b), y, grid))
            if (kl, kr) not in reps:
                flags.append((kl, kr))
            rep = reps.setdefault((kl, kr), (c, d))
            vectors.append((c - rep[0], d - rep[1]))
    hnf = euclid_hnf(vectors, grid)
    return hnf + (tuple((jl, jr) + _hnf_reduce(hnf, *reps[jl, jr])
                        for jl, jr in flags),)


# -- the base action -----------------------------------------------------------

def row_shapes(group):
    """Shape -> set of angle parameters c = -2b, one row at a time."""
    grid = group.grid
    shapes = {ROT: set(), FLIP: set(), AROT: set(), REFL: set()}
    for jl, jr, _, b in group_rows(group):
        shapes[2 * jl + jr].add((-2 * b) % grid)
    return shapes


def circle_base_by_sets(group, shapes):
    """Base action from the four shape sets of a circle-type group, one
    angle and one fixed point at a time: the set-based computation that
    oracle._circle_base does on progressions."""
    grid = group.grid
    half = grid // 2
    order = sum(len(cs) for cs in shapes.values())
    _require(phi_order(group) % order == 0, "base order does not divide |G|/2")

    rots, flips, arots, refls = (shapes[ROT], shapes[FLIP],
                                 shapes[AROT], shapes[REFL])
    _require(0 in rots, "no identity class")
    r0 = len(rots)

    orbits = []

    if r0 >= 2:
        for swap in [False] if flips or arots else [False, True]:
            orbits.append(SingularOrbit(r0, bool(refls), ("pole", swap)))

    if flips:
        # flip(c) fixes the two unit-circle points with 2a = c + half
        points = {(c // 2 + grid // 4 + t) % grid for c in flips for t in (0, half)}
        translations = set(rots) | {(c + half) % grid for c in arots}
        step = grid // len(translations)
        _require(all(t % step == 0 for t in translations),
                 "equator translations are not cyclic")
        anti = {(c + half) % grid for c in flips} | set(refls)
        kappa = min(anti)

        def orbit_key(a):
            return min(a % step, (kappa - a) % step)

        grouped = {}
        for a in sorted(points):
            grouped.setdefault(orbit_key(a), []).append(a)
        for key in sorted(grouped):
            a = grouped[key][0]
            mirrored = ((2 * a) % grid in refls) or (half in arots)
            orbits.append(SingularOrbit(2, mirrored, ("equator", a)))

    signature = _quotient_signature(bool(arots) or bool(refls),
                                    bool(refls) or half in arots, orbits, order)
    return BaseActionGroup(order, signature, orbits)


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


# -- the axis path: T*, O* and I* right factors ---------------------------------

def _rotation_key(r):
    """Exact key of r up to sign: r and -r induce the same rotation."""
    return frozenset((r, element_negate(r)))


def axis_classes(group):
    """(jflag, t, line, sign) per class of rows (l, r) inducing the same
    base isometry, keyed by the left jflag and r up to sign."""
    classes = {}
    for jl, _, r in group_rows(group):
        key = (jl, _rotation_key(r))
        if key not in classes:
            classes[key] = (jl,) + _axis(r)
    return classes


def axis_stab_vectors(group, line, sign):
    """Common grid and the exact set of torus translations of the
    stabilizer of the fiber over sign * (direction of line), one row at a
    time (see axis._axis_hnf)."""
    grid = math.lcm(120, group.grid)
    lift = grid // group.grid
    vectors = set()
    for jl, a, r in group_rows(group):
        if jl:
            continue
        t, r_line, r_sign = _axis(r)
        if r_line is None:
            direction = 1
        elif r_line == line:
            direction = r_sign * sign
        else:
            continue
        alpha = a * lift
        beta = direction * t * (grid // 120)
        vectors.add(((alpha - beta) % grid, (alpha + beta) % grid))
    return grid, vectors


def gluing_by_right_element(rows, grid):
    """Coset data of explicit rows (jl, a, r), grouped by right element:
    one right coset {r} per r, glued to the left elements paired with it,
    which form a coset of the left elements paired with the identity."""
    lefts = {}
    for jl, a, r in rows:
        lefts.setdefault(r, []).append((jl, a))
    kernel = lefts[quat_rational(1, 0, 0, 0)]
    period = sum(1 for jl, _ in kernel if not jl)
    step = grid // period
    gluing = CosetGluing(period, any(jl for jl, _ in kernel),
                         tuple((ls[0][0], ls[0][1] % step) for ls in lefts.values()),
                         tuple((r,) for r in lefts))
    assert len(rows) == len(set(rows)) and set(gluing_rows(gluing, grid)) == set(rows)
    return gluing


# -- the lens space, by the quotient-matrix route ------------------------------------

def lens_by_matrices(group):
    """Underlying lens space of an abelian quotient from the two solid
    torus quotient matrices and the meridian/longitude exchange, over the
    explicit translations of every rotation pair."""
    grid = group.grid
    vectors = pole_stab_vectors(group_rows(group), grid, False)
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


# -- the lens space and singular set, by the abelian box ------------------------------

def box_topology(dq):
    """Underlying space and singular set of a family-1 or 1p quotient by
    the source's box formulas: the lens space L(e, d*gbar), gbar the
    inverse of g mod e, and the singular components e2*b2*h and e1*b1*h."""
    components = sorted(k for k in (dq.e2 * dq.b2 * dq.h, dq.e1 * dq.b1 * dq.h)
                        if k > 1)
    return lens_report(dq.e, dq.d * modinv_pos(dq.g, dq.e), components)


# -- the row builds the lattice and coset gluing replaced -------------------------

def _circle_quotient(group: StandardGroupId, kernel: StandardGroupId,
                     grid: int) -> _Quotient:
    """Coset data of a C or D* left factor in closed form, with no
    product of elements.

    An element is (jflag, a) with angle a/P over the period P of the
    factor.  With k rotations in the kernel and q = P/k, the rotation
    (False, a) lies in coset a mod q, and so does (True, a) when the
    kernel is binary dihedral; over a cyclic kernel (True, a) lies in
    coset q + a mod q, since (True, a)*(False, b) = (True, a - b).  Each
    coset is an arithmetic progression of angles, listed as numerators
    over `grid`, and the product table comes from the representatives
    by _circle_times.
    """
    period, kernel_period = _circle_period(group), _circle_period(kernel)
    _check_circle_factor(group, kernel, period, kernel_period)
    dihedral_kernel = kernel.kind == "D"
    q = period // kernel_period
    j_base = 0 if dihedral_kernel else q

    def index(jflag, a):
        return (j_base if jflag else 0) + a % q

    def coset_of(element):
        return index(*_on_circle_grid(element, group, period, period))

    reps = [(False, c) for c in range(q)]
    if group.kind == "D" and not dihedral_kernel:
        reps += [(True, c) for c in range(q)]
    table = tuple(tuple(index(*_circle_times(x, y, period)) for y in reps)
                  for x in reps)
    step = grid // period
    cosets = []
    for jflag, c in reps:
        angles = range(c * step, grid, q * step)
        cosets.append(((False, angles), (True, angles)) if dihedral_kernel
                      else ((jflag, angles),))
    return _Quotient(coset_of, tuple(cosets), table, 0, index(False, period // 2))


def _close_isomorphism(table_l, table_r, seed):
    """Total bijective homomorphism on coset indices extending the seed.

    The seed maps the identity coset and the generator cosets; the rest
    is forced by multiplicativity, spreading from the generators through
    the two quotient product tables.  Afterwards phi(g*x) = phi(g)*phi(x)
    is checked for every generator g against every coset x, which by
    induction on word length makes phi a homomorphism on the whole
    quotient.
    """
    phi = dict(seed)
    gens = list(seed.items())
    frontier = list(phi.items())
    while frontier:
        fresh = []
        for a, fa in frontier:
            for g, fg in gens:
                ga = table_l[g][a]
                image = table_r[fg][fa]
                known = phi.get(ga)
                if known is None:
                    phi[ga] = image
                    fresh.append((ga, image))
                else:
                    _require(known == image,
                             "generator images do not extend to a homomorphism")
        frontier = fresh
    _require(len(phi) == len(table_l), "generator cosets do not span the quotient")
    _require(len(set(phi.values())) == len(phi),
             "gluing isomorphism is not injective")
    for g, fg in gens:
        for a in range(len(table_l)):
            _require(phi[table_l[g][a]] == table_r[fg][phi[a]],
                     "gluing map is not multiplicative")
    return phi


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
    data = GOURSAT_BUILDERS[spec.family](spec)
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
