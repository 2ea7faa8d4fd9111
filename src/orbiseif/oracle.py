"""Brute-force recomputation of the quotient invariants from group elements.

Nothing in this module reads the closed-form tables.  Starting from an
explicit pair group it

* classifies the induced isometry group of the base 2-sphere and reads
  the quotient 2-orbifold off the fixed-point geometry,
* gets the Euler number from the covering degrees (the Hopf fibration
  itself has Euler number -1),
* recomputes every local invariant from the solid-torus quotient
  homology: conjugate the fiber to the core at infinity by an explicit
  fibration-preserving isometry, reduce the now-diagonal stabilizer to
  exact rational rotation pairs, and push the fiber class through the
  quotient matrices,
* for the abelian families, assembles the underlying lens space from
  the boundary matrices of the two solid tori and the meridian exchange.

When every factor is circle-type (cyclic and binary dihedral groups,
which covers all the large parameter sweeps) the whole computation is
exact rational arithmetic: the induced isometries fall into four
explicit shapes (rotation about the poles, half turn about an
equatorial axis, the antipode composed with a polar rotation, and
reflection in a meridian) and the conjugations to the core can be done
symbolically.  Binary polyhedral right factors take the axis path,
exact in Q(sqrt2, sqrt5): a base point is a unit vector of Im H, kept
as an oriented line; a right factor r = cos(pi t) + sin(pi t) u rotates
the base by 2 pi t about the line of u, with t looked up from the exact
value of Re r, and orbits and stabilizers follow from incidences of
those lines.  No float and no numeric tolerance is used anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from .engine import (
    CONE,
    CORNER,
    DISC,
    PROJECTIVE,
    SPHERE,
    BaseSignature,
    InternalInconsistencyError,
    LocalInvariant,
    SeifertData,
    TopologyReport,
    THREE_SPHERE,
    _ext_gcd,
    derive_xi,
    lens_report,
    modinv_pos,
)
from .exactfield import QF_HALF_SQRT2, QF_HALF_TAU, QF_HALF_TAU_INV, QuadFieldElement
from .groups import PairGroup, phi_order
from .quaternions import HALF, CircleJElement, NotHopfPreservingError

HOPF_FIBER = (1, 1)


def _require(condition: bool, message: str) -> None:
    """Self-check that, unlike assert, survives python -O."""
    if not condition:
        raise InternalInconsistencyError(message)


# ---------------------------------------------------------------------------
# boundary homology of solid torus quotients
# ---------------------------------------------------------------------------

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


IDENTITY_TORUS_MAP = TorusQuotientMap(((1, 0), (0, 1)), 1)


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


def _invariant_from_int_vectors(vectors, grid: int,
                                location: str) -> LocalInvariant:
    """Local invariant of the core at infinity under a diagonal group.

    `vectors` are the exact torus translations (u, v) as numerators over
    the common denominator `grid`: the element rotates z1 by u/grid and
    z2 by v/grid, and the core in question is the z1 circle (z2 = 0).
    Quotient in two steps, each a solid-torus quotient: first by the
    subgroup fixing the core pointwise (u = 0), then by the residual
    group, which acts freely on the core and is cyclic because it embeds
    in the circle of z1 rotations.
    """
    size = len(vectors)
    vertical = [v for u, v in vectors if u == 0]
    k = len(vertical)
    _require(k >= 1 and size % k == 0,
             "core-fixing elements do not form a subgroup")
    if k == 1:
        pre = IDENTITY_TORUS_MAP
    else:
        step = grid // k
        gen = next(v for v in vertical if math.gcd(v, grid) == step)
        pre = torus_quotient_map(0, k, gen // step)

    residual = {(u, (k * v) % grid) for u, v in vectors}
    e2 = size // k
    _require(len(residual) == e2, "residual does not act faithfully on the core")
    if e2 == 1:
        main = IDENTITY_TORUS_MAP
    else:
        step = grid // e2
        gen = next(((u, v) for u, v in residual
                    if math.gcd(u, grid) == step), None)
        _require(gen is not None, "residual core action is not cyclic")
        u0, v0 = gen
        _require(v0 % step == 0, "residual generator is not on the grid")
        main = torus_quotient_map(u0 // step, e2, v0 // step)
    return slope_invariant(main.compose_after(pre), HOPF_FIBER, location)


def _invariant_from_vectors(vectors, location: str) -> LocalInvariant:
    """Fraction-vector front end for the integer core."""
    grid = 1
    for u, v in vectors:
        grid = math.lcm(grid, math.lcm(u.denominator, v.denominator))
    scaled = {(int(u * grid), int(v * grid)) for u, v in vectors}
    return _invariant_from_int_vectors(scaled, grid, location)


# ---------------------------------------------------------------------------
# the induced action on the base sphere: common data model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SingularOrbit:
    """One equivalence class of singular base points.

    `position` names one representative exactly: ("pole", swap) is the
    core at infinity (swap False) or at zero (swap True), ("equator", a)
    the unit-circle point of angle a/grid, and ("axis", line, sign) the
    point sign * u of the axis path, u the stored direction of the line.
    """

    rotation_order: int            # order of the orientation-preserving stabilizer
    corner: bool                   # lies on a reflection circle
    position: tuple


@dataclass
class BaseActionGroup:
    order: int
    signature: BaseSignature
    orbits: list                   # SingularOrbit entries, deterministic order
    mode: str                      # "circle" or "axis"
    # circle-mode payload: common angle denominator and per-element
    # integer rows (left jflag, right jflag, left angle, right angle)
    grid: Optional[int] = None
    rows: Optional[list] = None


def _check_chi(kind, cones, corners, order, signature):
    chi = Fraction(2 if kind == SPHERE else 1)
    chi -= sum(1 - Fraction(1, q) for q in cones)
    chi -= sum(Fraction(1, 2) * (1 - Fraction(1, q)) for q in corners)
    _require(chi * order == 2, f"quotient signature {signature} fails chi*order=2")


def _quotient_signature(has_reversing: bool, has_reflection: bool,
                        orbits, order: int) -> BaseSignature:
    """Quotient type from the reversing elements, cone points and corner
    reflectors from the singular orbits, checked by chi * order = 2."""
    if not has_reversing:
        kind = SPHERE
    elif has_reflection:
        kind = DISC
    else:
        kind = PROJECTIVE
    disc = kind == DISC
    cones = tuple(sorted(o.rotation_order for o in orbits
                         if not (disc and o.corner)))
    corners = tuple(sorted(o.rotation_order for o in orbits
                           if disc and o.corner))
    signature = BaseSignature(kind, cones, corners)
    _check_chi(kind, cones, corners, order, signature)
    return signature


def base_group(group: PairGroup) -> BaseActionGroup:
    """Deduplicated induced action on the base sphere and its quotient type.

    The quotient signature is read off the geometry: maximal cyclic
    stabilizers of orientation-preserving elements give cone points or
    corner reflectors, orientation-reversing elements with a fixed
    circle force a mirror boundary, free ones alone force a projective
    quotient, and incidence of reflection circles with rotation axes
    decides corner against interior cone.
    """
    for pair in group.elements:
        if not isinstance(pair.left, CircleJElement):
            raise NotHopfPreservingError(
                "left factor is not circle-type; the group moves the fibration")
    if all(isinstance(p.right, CircleJElement) for p in group.elements):
        return _base_group_circle(group)
    return _base_group_axis(group)


# ---------------------------------------------------------------------------
# exact path: both factors circle-type
# ---------------------------------------------------------------------------

ROT, FLIP, AROT, REFL = 0, 1, 2, 3


def _angle_grid(group: PairGroup):
    """Common denominator (a multiple of 4) and per-element integer rows
    (left jflag, right jflag, left angle, right angle) for a pair group
    whose factors are all circle-type."""
    grid = 4
    for pair in group.elements:
        grid = math.lcm(grid, pair.left.angle.denominator)
        grid = math.lcm(grid, pair.right.angle.denominator)
    rows = []
    for pair in group.elements:
        an, ad, jl = pair.left._key
        bn, bd, jr = pair.right._key
        rows.append((jl, jr, an * (grid // ad), bn * (grid // bd)))
    return grid, rows


def _pole_stab_vectors(rows, grid: int, swap: bool):
    """Translations of the stabilizer of a polar core; every plain
    rotation pair fixes both poles.  The core at zero is carried to the
    core at infinity by conjugation with (1, j), which inverts the right
    angle, i.e. swaps the two translation coordinates."""
    vectors = set()
    for jl, jr, a, b in rows:
        if jl or jr:
            continue
        u, v = (a - b) % grid, (a + b) % grid
        vectors.add((v, u) if swap else (u, v))
    return vectors


def _equator_stab_vectors(rows, grid: int, point: int):
    """Translations of the stabilizer of the fiber over the unit-circle
    point of angle point/grid, conjugated to the core at infinity.

    The conjugator is (1, w) with w = (e^(2 pi i point/grid) + j)/sqrt2.
    Plain rotation pairs survive only with right factor +-1 and are
    untouched; half-turn pairs whose axis passes through the point
    conjugate to right factor +-i, with the sign fixed by point + beta.
    """
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
            _require(beta_c in (quarter, 3 * quarter),
                     "half turn does not conjugate to +-i")
            vectors.add(((a - beta_c) % grid, (a + beta_c) % grid))
    return vectors


def _base_group_circle(group: PairGroup) -> BaseActionGroup:
    grid, rows = _angle_grid(group)
    half = grid // 2
    shapes = {ROT: set(), FLIP: set(), AROT: set(), REFL: set()}
    for jl, jr, _, b in rows:
        # induced map: rot lam -> e^(2 pi i c) lam, flip lam -> -e^(2 pi i c)/lam,
        # arot lam -> -e^(2 pi i c)/conj(lam), refl lam -> e^(2 pi i c) conj(lam)
        # with c = -2 beta
        shapes[2 * jl + jr].add((-2 * b) % grid)
    order = sum(len(cs) for cs in shapes.values())
    _require(phi_order(group) % order == 0, "base order does not divide |G|/2")

    rots, flips, arots, refls = (shapes[ROT], shapes[FLIP],
                                 shapes[AROT], shapes[REFL])
    _require(0 in rots, "no identity class")
    r0 = len(rots)

    orbits = []

    if r0 >= 2:
        poles_merge = bool(flips) or bool(arots)
        pole_on_mirror = bool(refls)   # every meridian mirror passes the poles
        pole_orbits = [False] if poles_merge else [False, True]
        for swap in pole_orbits:
            orbits.append(SingularOrbit(r0, pole_on_mirror, ("pole", swap)))

    if flips:
        # equatorial half-turn axes; flip(c) fixes the two unit-circle
        # points with 2a = c + half
        quarter = grid // 4
        points = set()
        for c in flips:
            a = (c // 2 + quarter) % grid
            points.add(a)
            points.add((a + half) % grid)
        # translations induced on the equator circle by the whole group
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

    # an antipode-rotation is a pure reflection (in the equator plane)
    # exactly when its angle parameter is a half turn
    signature = _quotient_signature(bool(arots) or bool(refls),
                                    bool(refls) or half in arots, orbits, order)
    return BaseActionGroup(order, signature, orbits, "circle", grid, rows)


# ---------------------------------------------------------------------------
# axis path: binary polyhedral right factors
# ---------------------------------------------------------------------------
#
# The fiber through h lies over the point h^-1 i h of the unit sphere in
# Im H.  A pair (l, r) moves that point P to r P r^-1, or to -r P r^-1
# when l is j-type.  For r = cos(pi t) + sin(pi t) u this is the rotation
# by 2 pi t about the line of u, composed with the antipode for j-type l.
# A point is kept as (line, sign): sign times the stored direction of a
# line, all in Q(sqrt2, sqrt5).

# Every element of T*, O* and I* has order 1-6, 8 or 10, so its real part
# is cos(pi t) for one of these t (Conway & Smith, On Quaternions and
# Octonions, 2003, ch. 3).
_HALF_ANGLE = {
    QuadFieldElement(1): Fraction(0),
    QF_HALF_TAU: Fraction(1, 5),                  # (1 + sqrt5)/4
    QF_HALF_SQRT2: Fraction(1, 4),
    QuadFieldElement(HALF): Fraction(1, 3),
    QF_HALF_TAU_INV: Fraction(2, 5),              # (sqrt5 - 1)/4
    QuadFieldElement(0): HALF,
    -QF_HALF_TAU_INV: Fraction(3, 5),
    QuadFieldElement(-HALF): Fraction(2, 3),
    -QF_HALF_SQRT2: Fraction(3, 4),
    -QF_HALF_TAU: Fraction(4, 5),
    QuadFieldElement(-1): Fraction(1),
}

# Memo tables of pure functions of the elements: what the oracle computes
# does not depend on which groups were seen before.
_LINES = {}              # direction with first nonzero coordinate 1 -> index
_LINE_DIRECTIONS = []    # index -> direction


@lru_cache(maxsize=None)
def _axis(r):
    """(t, line, sign) with r = cos(pi t) + sin(pi t) * sign * u / |u| for
    the stored direction u of the line; the line is None for r = +-1.

    Cached per element, since the field inverse that normalizes the
    direction costs far more than a dictionary lookup.
    """
    t = _HALF_ANGLE.get(r.w)
    _require(t is not None, f"real part of {r} is not a tabulated cos(pi t)")
    if t == 0 or t == 1:
        return t, None, 0
    v = (r.x, r.y, r.z)
    pivot = next(c for c in v if not c.is_zero())
    scale = pivot.inverse()
    direction = tuple(c * scale for c in v)
    line = _LINES.get(direction)
    if line is None:
        line = _LINES[direction] = len(_LINE_DIRECTIONS)
        _LINE_DIRECTIONS.append(direction)
    return t, line, pivot.sign()


@lru_cache(maxsize=None)
def _perpendicular(line_a: int, line_b: int) -> bool:
    u, v = _LINE_DIRECTIONS[line_a], _LINE_DIRECTIONS[line_b]
    return (u[0] * v[0] + u[1] * v[1] + u[2] * v[2]).is_zero()


def _rotation_key(r):
    """Exact key of r up to sign: r and -r induce the same rotation."""
    negated = tuple((-a, b, -c, d, -e, f, -g, h)
                    for a, b, c, d, e, f, g, h in r._key)
    return min(r._key, negated)


def _base_group_axis(group: PairGroup) -> BaseActionGroup:
    """Base action of a group whose right factors lie in T*, O* or I*.

    Singular points are the points on rotation axes.  The points whose
    rotation stabilizer has order q fall into orbits that orbit-stabilizer
    counting numbers: one orbit, whose representative can be any of the
    points, or two, separated by P and -P once no element is seen to
    carry P to -P.  Any other count is not resolved and raises.
    """
    classes = {}
    for pair in group.elements:
        key = (pair.left.jflag, _rotation_key(pair.right))
        if key not in classes:
            classes[key] = (pair.left.jflag,) + _axis(pair.right)
    order = len(classes)
    _require(phi_order(group) % order == 0, "base order does not divide |G|/2")

    stabilizer = {}          # rotation axis -> order of its rotation stabilizer
    half_turns = []          # axes of the rotation half turns
    reversing_lines = set()  # rotation axes of the reversing classes
    mirrors = []             # normals of the reflections
    for reversing, t, line, _ in classes.values():
        if reversing:
            # -R fixes no point unless R is a half turn, when it is the
            # reflection in the plane normal to the axis
            reversing_lines.add(line)
            if t == HALF:
                mirrors.append(line)
        elif line is not None:
            stabilizer[line] = stabilizer.get(line, 1) + 1
            if t == HALF:
                half_turns.append(line)

    lines_of_order = {}
    for line, q in stabilizer.items():
        lines_of_order.setdefault(q, []).append(line)
    orbits = []
    for q, lines in sorted(lines_of_order.items()):
        on_mirror = {line: any(_perpendicular(line, m) for m in mirrors)
                     for line in lines}
        # each line carries two points, whose stabilizer has order q,
        # doubled on a mirror; summing |Stab| / |G| counts the orbits
        count = Fraction(sum(2 * q * (1 + on_mirror[line]) for line in lines),
                         order)
        line = lines[0]
        if count == 1:
            signs = (1,)
        else:
            # P goes to -P under a rotation half turn about an axis normal
            # to P, or under the antipode composed with a rotation fixing P
            swapped = (None in reversing_lines or line in reversing_lines
                       or any(_perpendicular(line, h) for h in half_turns))
            _require(count == 2 and not swapped,
                     f"orbits of the order-{q} points are not resolved")
            signs = (1, -1)
        orbits.extend(SingularOrbit(q, on_mirror[line], ("axis", line, sign))
                      for sign in signs)

    signature = _quotient_signature(bool(reversing_lines), bool(mirrors),
                                    orbits, order)
    return BaseActionGroup(order, signature, orbits, "axis")


def euler_oracle(group: PairGroup, base: Optional[BaseActionGroup] = None) -> Fraction:
    """-(rotation order)/(base degree)^2: covering naturality applied to
    the Hopf fibration, whose own Euler number is -1."""
    if base is None:
        base = base_group(group)
    n = phi_order(group)
    return Fraction(-n, base.order * base.order)


# ---------------------------------------------------------------------------
# local invariants of the exceptional fibers
# ---------------------------------------------------------------------------

def _axis_stab_vectors(group: PairGroup, line: int, sign: int):
    """Exact torus translations of the stabilizer of the fiber over the
    axis-path point P = sign * u, conjugated to the core at infinity.

    A unit w with w P w^-1 = i carries that fiber to the core, and turns
    a right factor cos(pi t) + sin(pi t) v with v = +-P into
    cos(pi t) +- i sin(pi t), so beta = +-t/2 with the sign of v . P.
    Only orientation-preserving pairs enter: at a corner reflector the
    local invariant is by definition that of the index-two cyclic part.
    """
    vectors = set()
    for pair in group.elements:
        if pair.left.jflag:
            continue
        t, r_line, r_sign = _axis(pair.right)
        if r_line is None:
            beta = t / 2
        elif r_line == line:
            beta = r_sign * sign * t / 2
        else:
            continue
        alpha = pair.left.angle
        vectors.add(((alpha - beta) % 1, (alpha + beta) % 1))
    return vectors


def _orbit_invariant(group, base, orbit, location):
    kind, *where = orbit.position
    if kind == "axis":
        return _invariant_from_vectors(_axis_stab_vectors(group, *where),
                                       location)
    if kind == "pole":
        vectors = _pole_stab_vectors(base.rows, base.grid, where[0])
    else:
        vectors = _equator_stab_vectors(base.rows, base.grid, where[0])
    return _invariant_from_int_vectors(vectors, base.grid, location)


def exceptional_fibers_oracle(group: PairGroup,
                              base: Optional[BaseActionGroup] = None):
    """One local invariant per singular-point orbit of the base."""
    if base is None:
        base = base_group(group)
    disc = base.signature.kind == DISC
    invariants = []
    for orbit in base.orbits:
        location = CORNER if (disc and orbit.corner) else CONE
        inv = _orbit_invariant(group, base, orbit, location)
        _require(inv.den == orbit.rotation_order,
                 "invariant denominator must match the base cone index")
        invariants.append(inv)
    return invariants


# ---------------------------------------------------------------------------
# lens space of the abelian quotients
# ---------------------------------------------------------------------------

def _torus_translation_vectors(group: PairGroup):
    """Exact (z1, z2) rotation angles of every rotation-group element, as
    integer numerators over a common denominator."""
    for pair in group.elements:
        if not isinstance(pair.left, CircleJElement) or pair.left.jflag \
                or not isinstance(pair.right, CircleJElement) or pair.right.jflag:
            raise ValueError("lens assembly needs a diagonal torus group")
    grid, rows = _angle_grid(group)
    vectors = {((a - b) % grid, (a + b) % grid) for _, _, a, b in rows}
    _require(len(vectors) == phi_order(group), "torus translations repeat")
    return grid, vectors


def _core_fix_counts(vectors):
    k1 = sum(1 for u, v in vectors if v == 0)   # fix the z1 = 0 core pointwise
    k2 = sum(1 for u, v in vectors if u == 0)   # fix the z2 = 0 core pointwise
    return k1, k2


def lens_oracle(group: PairGroup) -> TopologyReport:
    """Underlying lens space of an abelian quotient from the two solid
    torus quotient matrices and the meridian/longitude exchange.

    After removing the subgroups with fixed points (which only change
    the cores' singularity indices) the residual action is free and
    cyclic; the quotient torus boundary map of the first solid torus
    plus the Hopf gluing (the meridian of one torus is the longitude of
    the other) express the second quotient meridian in the basis of the
    first, which is exactly the lens gluing class.
    """
    if group.spec.family not in ("1", "1p"):
        raise ValueError("the lens assembly applies to the abelian families")
    grid, vectors = _torus_translation_vectors(group)
    k1, k2 = _core_fix_counts(vectors)
    components = tuple(sorted(k for k in (k1, k2) if k > 1))
    residual = {((k1 * u) % grid, (k2 * v) % grid) for u, v in vectors}
    e = len(vectors) // (k1 * k2)
    _require(len(residual) == e, "fixed-point subgroups do not exhaust the overlap")
    if e == 1:
        return TopologyReport(THREE_SPHERE, singular_components=components)
    step = grid // e
    gen = next(((u, v) for u, v in residual
                if math.gcd(math.gcd(u, v), grid) == step), None)
    _require(gen is not None, "residual action is not cyclic")
    u0, v0 = gen
    _require(u0 % step == 0 and v0 % step == 0, "residual generator is not on the grid")
    g = u0 // step
    d = v0 // step
    _require(math.gcd(g, e) == 1 and math.gcd(d, e) == 1,
             "residual action is not free")
    d_bar = modinv_pos(d, e)
    # meridian of the second quotient torus = -(g*dbar) mu' + e lambda'
    return lens_report(e, (-g * d_bar) % e, components)


def lens_oracle_lattice(group: PairGroup) -> TopologyReport:
    """Same underlying space by pure lattice arithmetic (cross-check).

    The quotient of the boundary torus is R^2 / Lambda for the lattice
    Lambda generated by Z^2 and the translation vectors; the meridians
    of the two quotient solid tori are the primitive lattice vectors
    along the axes, and expressing one in a basis extending the other
    reads off the lens parameters.
    """
    denom, vectors = _torus_translation_vectors(group)
    k1, k2 = _core_fix_counts(vectors)
    components = tuple(sorted(k for k in (k1, k2) if k > 1))
    scaled = list(vectors) + [(denom, 0), (0, denom)]
    b1, b2 = _lattice_basis_2d(scaled)
    m1 = (denom // k1, 0)
    m2 = (0, denom // k2)
    x1, y1 = _solve_2d(b1, b2, m1)
    _require(math.gcd(x1, y1) == 1, "torus meridian is not primitive in the lattice")
    _, uu, vv = _ext_gcd(x1, y1)
    # (m1, w) is a lattice basis: the change matrix ((x1, -vv), (y1, uu))
    # from (b1, b2) has determinant x1*uu + y1*vv = 1
    w = (-vv * b1[0] + uu * b2[0], -vv * b1[1] + uu * b2[1])
    q, p = _solve_2d(m1, w, m2)
    if abs(p) == 1:
        return TopologyReport(THREE_SPHERE, singular_components=components)
    return lens_report(abs(p), q % abs(p), components)


def _lattice_basis_2d(vectors):
    """Basis of the sublattice of Z^2 generated by the vectors."""
    basis = []
    for vec in vectors:
        basis.append(vec)
        basis = _reduce_basis(basis)
    _require(len(basis) == 2, "vectors do not span a full lattice")
    return basis[0], basis[1]


def _reduce_basis(vecs):
    """Hermite-style reduction of up to three 2d integer vectors."""
    vecs = [v for v in vecs if v != (0, 0)]
    if len(vecs) <= 1:
        return vecs
    while True:
        vecs.sort(key=lambda v: (v[0] == 0, abs(v[0])))
        if len(vecs) >= 2 and vecs[0][0] != 0 and vecs[1][0] != 0:
            a, b = vecs[0], vecs[1]
            quo = b[0] // a[0]
            new = (b[0] - quo * a[0], b[1] - quo * a[1])
            vecs[1] = new
            vecs = [v for v in vecs if v != (0, 0)]
            continue
        break
    lead = [v for v in vecs if v[0] != 0]
    rest = [v for v in vecs if v[0] == 0]
    _require(len(lead) <= 1, "basis reduction left two leading vectors")
    if rest:
        g = 0
        for v in rest:
            g = math.gcd(g, abs(v[1]))
        rest = [(0, g)]
    return lead + rest


def _solve_2d(b1, b2, target):
    """Integer (x, y) with x*b1 + y*b2 = target."""
    det = b1[0] * b2[1] - b1[1] * b2[0]
    _require(det != 0, "lattice basis is degenerate")
    x_num = target[0] * b2[1] - target[1] * b2[0]
    y_num = b1[0] * target[1] - b1[1] * target[0]
    _require(x_num % det == 0 and y_num % det == 0, "target is not in the lattice")
    return x_num // det, y_num // det


# ---------------------------------------------------------------------------
# the full report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OracleReport:
    seifert: SeifertData
    topology: Optional[TopologyReport]
    base_order: int


def oracle_report(group: PairGroup) -> OracleReport:
    """Base orbifold, Euler number, local invariants and (for abelian
    families) the underlying space, all recomputed from the elements."""
    base = base_group(group)
    euler = euler_oracle(group, base)
    invariants = tuple(exceptional_fibers_oracle(group, base))
    xi = None
    if base.signature.kind == DISC:
        xi = derive_xi(base.signature, invariants, euler)
    seifert = SeifertData(base.signature, invariants, euler, xi)
    topology = None
    if group.spec.family in ("1", "1p"):
        topology = lens_oracle(group)
    return OracleReport(seifert, topology, base.order)
