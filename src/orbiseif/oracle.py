"""Brute-force recomputation of the quotient invariants from group data.

Nothing in this module reads the closed-form tables.  It reads only the
group data of a built group (`PairGroup.lattice`, or `PairGroup.gluing`
for T*, O* and I* right factors, over `PairGroup.grid`) and

* classifies the induced isometry group of the base 2-sphere and reads
  the quotient 2-orbifold off the fixed-point geometry,
* gets the Euler number from the covering degrees (the Hopf fibration
  itself has Euler number -1),
* conjugates each fiber to the core at infinity and reads its local
  invariant in closed form off the Hermite normal form (h11, h12, h22)
  of the stabilizer's torus translations,
* for a group with two cyclic factors, reads the underlying lens space
  L(h22/g, h12/g), g = gcd(h12, h22), off that normal form for the
  rotation group.

A group with two circle-type factors takes the lattice path: the induced
isometries fall into four shapes (rotation about the poles, half turn
about an equatorial axis, the antipode composed with a polar rotation,
and reflection in a meridian), each an arithmetic progression of angles,
and every stabilizer is a 2x2 integer lattice in Hermite normal form,
so no row is listed, and the base action costs the same at every group
order.  A group with a T*, O* or I* right factor takes the axis path,
exact in Q(sqrt2, sqrt5): a base point is a unit vector of Im H, kept
as an oriented line; r = cos(pi t/60) + sin(pi t/60) u rotates the base
by 2 pi t/60 about the line of u, with the integer t looked up from the
exact value of Re r, once per right coset tuple and process; every
coordinate of r is such a cosine, so the sign and reciprocal that orient
and scale u are table entries too.  Orbits and stabilizers follow from
incidences of those lines, in integers per left progression.  No float
and no numeric tolerance is used anywhere.
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
    LocalInvariant,
    SeifertData,
    TopologyReport,
    derive_xi,
    lens_report,
    modinv_pos,
)
from .exactfield import QF_HALF_SQRT2, QF_HALF_TAU, QF_HALF_TAU_INV, QuadFieldElement
from .groups import CosetGluing, PairGroup, _ext_gcd, _hnf, _require, phi_order
from .quaternions import NotHopfPreservingError


# ---------------------------------------------------------------------------
# local invariant of a fibered solid torus quotient
# ---------------------------------------------------------------------------

def _lattice_invariant(hnf, grid: int, location: str) -> LocalInvariant:
    """Local invariant of the core at infinity under a diagonal group.

    `hnf` is the Hermite normal form (h11, h12, h22) of the lattice of
    torus translations (u, v): an element rotates z1 by u/grid and z2 by
    v/grid, and the core is the z1 circle (z2 = 0).  The quotient by the
    k = grid/h22 translations (0, v) that fix the core pointwise
    multiplies the meridian by k, so the Hopf fiber (1, 1) becomes (k, 1).
    The residual group {(u, k*v)} is cyclic of order e = grid/h11, and
    its generator (h11, k*h12) turns the core by 1/e and the normal disc
    by t/e, t = k*h12/h11: it sends (p, q) to (p - t*q, e*q), the fiber
    to (k - t, e).  With c = gcd(k - t, e) and b = e/c the invariant is
    a/b, a*(k - t)/c = 1 mod b, both entries scaled by k, which keeps the
    singularity index.
    """
    h11, h12, h22 = hnf
    k, e = grid // h22, grid // h11
    _require(k * h12 % h11 == 0, "residual generator is not on the grid")
    num = k - k * h12 // h11
    c = math.gcd(num, e)
    b = e // c
    a = 0 if b == 1 else modinv_pos(num // c, b)
    return LocalInvariant(a * k, b * k, location)


# ---------------------------------------------------------------------------
# the induced action on the base sphere: common data model
# ---------------------------------------------------------------------------

@dataclass(slots=True, unsafe_hash=True)
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


@dataclass(slots=True)
class BaseActionGroup:
    order: int
    signature: BaseSignature
    orbits: list                   # SingularOrbit entries, deterministic order


def _check_chi(kind, cones, corners, order, signature):
    """chi * order = 2 with chi = chi(base) - sum(1 - 1/q) over the cones
    - sum((1 - 1/q)/2) over the corners, in integers: both sides times 2L,
    L the lcm of the cone and corner orders."""
    lcm = math.lcm(*cones, *corners)
    chi_2l = 2 * lcm * (2 if kind == SPHERE else 1)
    chi_2l -= sum([2 * (lcm - lcm // q) for q in cones])
    chi_2l -= sum([lcm - lcm // q for q in corners])
    _require(chi_2l * order == 4 * lcm,
             "quotient signature {} fails chi*order=2", signature)


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
    cones = tuple(sorted([o.rotation_order for o in orbits
                          if not (disc and o.corner)]))
    corners = tuple(sorted([o.rotation_order for o in orbits
                            if disc and o.corner]))
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
    if group.left.kind not in "CD":
        raise NotHopfPreservingError(
            "left factor is not circle-type; the group moves the fibration")
    if group.lattice is not None:
        return _circle_base(group, _circle_shapes(group))
    return _base_group_axis(group)


# ---------------------------------------------------------------------------
# exact path: both factors circle-type
# ---------------------------------------------------------------------------

ROT, FLIP, AROT, REFL = 0, 1, 2, 3


def _circle_shapes(group: PairGroup) -> dict:
    """Shape -> set of angle parameters c, as a progression over the grid.
    A pair (jl, jr, a, b) induces the shape 2*jl + jr with c = -2b; over a
    flag class x_f + Lambda, b runs through b_f + gcd(h12, h22)*Z, so c
    runs from -2*b_f in steps of s = gcd(grid, 2*gcd(h12, h22)), one even
    step for all four shapes, each starting below s."""
    lat, grid = group.lattice, group.grid
    step = math.gcd(grid, 2 * math.gcd(lat.h12, lat.h22))
    shapes = dict.fromkeys((ROT, FLIP, AROT, REFL), range(0))
    for jl, jr, _, b in lat.offsets:
        shapes[2 * jl + jr] = range((-2 * b) % step, grid, step)
    return shapes


def _pole_hnf(group: PairGroup, swap: bool):
    """Translations of the stabilizer of a polar core: every rotation pair
    (a, b) fixes both poles and translates the torus by T(a, b) =
    (a - b, a + b).  The core at zero is carried to the core at infinity
    by conjugation with (1, j), which inverts the right angle, i.e. swaps
    the two translation coordinates."""
    lat = group.lattice
    vectors = [(a - b, a + b) for a, b in ((lat.h11, lat.h12), (0, lat.h22))]
    return _hnf([(v, u) for u, v in vectors] if swap else vectors, group.grid)


def _equator_hnf(group: PairGroup, point: int):
    """Translations of the stabilizer of the fiber over the unit-circle
    point of angle point/grid, conjugated to the core at infinity.

    The conjugator is (1, w) with w = (e^(2 pi i point/grid) + j)/sqrt2.
    Rotation pairs survive only with right factor +-1, on Lambda_0 =
    Lambda with 2b = 0, and are untouched.  The half turns (False, True,
    a, b) through the point have beta = point + b = grid/4 mod grid/2;
    they conjugate to right factor +-i, translate by T(a, beta) and form
    one coset of Lambda_0, through one solution of that congruence.
    """
    lat, grid = group.lattice, group.grid
    h11, h12, h22 = lat.h11, lat.h12, lat.h22
    half = grid // 2
    # x*(h11, h12) + z*(0, h22) with x*h12 + z*h22 = 0 mod half: x must
    # be a multiple of x0, and z is then fixed mod half/g2
    g2 = math.gcd(h22, half)
    x0 = g2 // math.gcd(g2, h12)
    z0 = -x0 * h12 // g2 * pow(h22 // g2, -1, half // g2)
    kernel = [(x0 * h11, x0 * h12 + z0 * h22), (0, math.lcm(h22, half))]
    # the b of the (False, True) class run through b_f + g*Z; solve for
    # g*y = grid/4 - point - b_f mod half and move a by the same y
    _, _, a_f, b_f = [o for o in lat.offsets if not o[0] and o[1]][0]
    g, s, _ = _ext_gcd(h12, h22)
    target, g3 = grid // 4 - point - b_f, math.gcd(g, half)
    _require(target % g3 == 0, "no half turn fixes the equator point")
    y = target // g3 * pow(g // g3, -1, half // g3)
    alpha, beta = a_f + s * y * h11, point + b_f + g * y
    _require((beta - grid // 4) % half == 0, "half turn does not conjugate to +-i")
    return _hnf([(a - b, a + b) for a, b in kernel] + [(alpha - beta, alpha + beta)],
                grid)


def _circle_base(group: PairGroup, shapes: dict) -> BaseActionGroup:
    """Base action from the four shape progressions of a circle-type
    group, which share one step s (see _circle_shapes): a fixed number of
    integer operations, whatever the order of the group."""
    grid = group.grid
    half = grid // 2
    # induced map: rot lam -> e^(2 pi i c) lam, flip lam -> -e^(2 pi i c)/lam,
    # arot lam -> -e^(2 pi i c)/conj(lam), refl lam -> e^(2 pi i c) conj(lam)
    order = sum(map(len, shapes.values()))
    _require(phi_order(group) % order == 0, "base order does not divide |G|/2")

    rots, flips, arots, refls = (shapes[ROT], shapes[FLIP],
                                 shapes[AROT], shapes[REFL])
    _require(0 in rots, "no identity class")
    r0, s = len(rots), rots.step

    orbits = []

    if r0 >= 2:
        # flips and antipode-rotations swap the poles; every meridian
        # mirror passes through both
        for swap in [False] if flips or arots else [False, True]:
            orbits.append(SingularOrbit(r0, bool(refls), ("pole", swap)))

    if flips:
        # translations induced on the equator circle by the whole group:
        # s*Z, joined by shift + s*Z from the antipode-rotations, cyclic
        # exactly when shift is a multiple of their spacing
        shift = (arots.start + half) % s if arots else 0
        step = s // 2 if shift else s
        _require(shift % step == 0, "equator translations are not cyclic")
        # orientation-reversing maps of the equator, a -> kappa - a + step*Z
        kappa = min([(flips.start + half) % s, *refls[:1]])

        def orbit_key(a):
            return min(a % step, (kappa - a) % step)

        # equatorial half-turn axes; flip(c) fixes the two unit-circle
        # points with 2a = c + half, so the points are p0 + (s/2)*Z, and
        # an orbit's least point is one of the two below s
        p0 = (flips.start // 2 + grid // 4) % (s // 2)
        grouped = {}
        for a in range(p0, s, s // 2):
            grouped.setdefault(orbit_key(a), a)
        for key in sorted(grouped):
            a = grouped[key]
            mirrored = ((2 * a) % grid in refls) or (half in arots)
            orbits.append(SingularOrbit(2, mirrored, ("equator", a)))

    # an antipode-rotation is a pure reflection (in the equator plane)
    # exactly when its angle parameter is a half turn
    signature = _quotient_signature(bool(arots) or bool(refls),
                                    bool(refls) or half in arots, orbits, order)
    return BaseActionGroup(order, signature, orbits)


# ---------------------------------------------------------------------------
# axis path: binary polyhedral right factors
# ---------------------------------------------------------------------------
#
# The fiber through h lies over the point h^-1 i h of the unit sphere in
# Im H.  A pair (l, r) moves that point P to r P r^-1, or to -r P r^-1
# when l is j-type.  For r = cos(pi t/60) + sin(pi t/60) u this is the
# rotation by 2 pi t/60 about the line of u, composed with the antipode
# for j-type l.
# A point is kept as (line, sign): sign times the stored direction of a
# line, all in Q(sqrt2, sqrt5).

# Every element of T*, O* and I* has order 1-6, 8 or 10, so its real part
# is cos(pi t/60) for one of these integers t in [0, 60].  In the standard
# coordinates (Conway & Smith, On Quaternions and Octonions, 2003, ch. 3)
# so is every other coordinate: each is 0, +-1, +-1/2, +-sqrt2/2 or
# +-(sqrt5 +- 1)/4.  A nonzero coordinate cos(pi t/60) is positive
# exactly when t < 30, and _RECIPROCAL[t] is its exact reciprocal.
_HALF_ANGLE = {
    QuadFieldElement(1): 0,
    QF_HALF_TAU: 12,                              # (1 + sqrt5)/4
    QF_HALF_SQRT2: 15,
    QuadFieldElement(Fraction(1, 2)): 20,
    QF_HALF_TAU_INV: 24,                          # (sqrt5 - 1)/4
    QuadFieldElement(0): 30,
    -QF_HALF_TAU_INV: 36,
    QuadFieldElement(Fraction(-1, 2)): 40,
    -QF_HALF_SQRT2: 45,
    -QF_HALF_TAU: 48,
    QuadFieldElement(-1): 60,
}
_RECIPROCAL = {                                   # 1/cos(pi t/60) for t < 30
    0: QuadFieldElement(1),
    12: QuadFieldElement(-1, 0, 1),               # sqrt5 - 1
    15: QuadFieldElement(0, 1),                   # sqrt2
    20: QuadFieldElement(2),
    24: QuadFieldElement(1, 0, 1),                # sqrt5 + 1
}
_RECIPROCAL.update({60 - t: -x for t, x in _RECIPROCAL.items()})

# Memo tables of pure functions of the elements: what the oracle computes
# does not depend on which groups were seen before.
_LINES = {}              # direction with first nonzero coordinate 1 -> index
_LINE_DIRECTIONS = []    # index -> direction


@lru_cache(maxsize=None)
def _axis(r):
    """(t, line, sign) with r = cos(pi t/60) + sin(pi t/60) * sign * u / |u|
    for the stored direction u of the line; the line is None for r = +-1.

    The direction is the vector part of r divided by its first nonzero
    coordinate, the pivot, and sign is the sign of the pivot; both are
    read off the pivot's cosine table entry.  Cached per element, since
    the three field products cost far more than a dictionary lookup.
    """
    t = _HALF_ANGLE.get(r.w)
    _require(t is not None, "real part of {} is not a tabulated cos(pi t/60)", r)
    if t == 0 or t == 60:
        return t, None, 0
    v = (r.x, r.y, r.z)
    pivot = next(c for c in v if not c.is_zero())
    t_p = _HALF_ANGLE.get(pivot)
    _require(t_p is not None, "coordinate {} of {} is not a tabulated cosine", pivot, r)
    scale = _RECIPROCAL[t_p]
    direction = tuple(c * scale for c in v)
    line = _LINES.get(direction)
    if line is None:
        line = _LINES[direction] = len(_LINE_DIRECTIONS)
        _LINE_DIRECTIONS.append(direction)
    return t, line, 1 if t_p < 30 else -1


@lru_cache(maxsize=None)
def _perpendicular(line_a: int, line_b: int) -> bool:
    u, v = _LINE_DIRECTIONS[line_a], _LINE_DIRECTIONS[line_b]
    return (u[0] * v[0] + u[1] * v[1] + u[2] * v[2]).is_zero()


# id(right_cosets) -> (right_cosets, {id(coset): _CosetAxes}, {coset
# pattern: BaseActionGroup}).  The entry holds the coset tuple, so no
# other tuple can take its id; the catalog's gluings share the six coset
# tuples of groups._polyhedral_quotient, so each is read once per
# process, and each has a few patterns (see _base_group_axis).
_COSET_AXES = {}


@dataclass(slots=True)
class _CosetAxes:
    """The _axis data of one right coset.  `classes[jflag]` maps (jflag,
    line, sign * t mod 60) to the (jflag, t, line, sign) of its first
    element r: r and -r, which has 60 - t and -sign, induce the same
    rotation and share the key, and distinct rotations about one line get
    distinct keys.  `turns` maps None to the t of the elements +-1 and a
    line to the sign * t of the elements on it."""

    classes: tuple
    turns: dict


def _coset_axes(gluing: CosetGluing) -> tuple:
    """The _COSET_AXES entry of the right cosets of a gluing, its
    id(coset) -> _CosetAxes built once per coset tuple."""
    cosets = gluing.right_cosets
    entry = _COSET_AXES.get(id(cosets))
    if entry is None:
        by_coset = {}
        for coset in cosets:
            classes, turns = ({}, {}), {}
            for r in coset:
                t, line, sign = _axis(r)
                for jflag in (False, True):
                    classes[jflag].setdefault((jflag, line, sign * t % 60),
                                              (jflag, t, line, sign))
                turns.setdefault(line, []).append(t if line is None else sign * t)
            by_coset[id(coset)] = _CosetAxes(classes, turns)
        entry = _COSET_AXES[id(cosets)] = (cosets, by_coset, {})
    return entry


def _base_group_axis(group: PairGroup) -> BaseActionGroup:
    """Base action of a group whose right factors lie in T*, O* or I*,
    from the at most 2*|R| classes (left jflag, right factor up to sign),
    keyed as in _CosetAxes.

    The classes depend only on the coset pattern: the right coset tuple,
    whether L_K is binary dihedral, and the left jflag glued to each
    right coset.  So _axis_base runs once per pattern and process, and
    every group gets its own copy of the result after its own order
    check."""
    gluing = group.gluing
    _, axes, bases = _coset_axes(gluing)
    pattern = (gluing.dihedral, tuple([jflag for jflag, _ in gluing.offsets]))
    base = bases.get(pattern)
    if base is None:
        classes = {}
        for jflag, _, coset in gluing.parts():
            for key, axis in axes[id(coset)].classes[jflag].items():
                classes.setdefault(key, axis)
        base = bases[pattern] = _axis_base(group, classes)
    else:
        _require(phi_order(group) % base.order == 0, "base order does not divide |G|/2")
    return BaseActionGroup(base.order, base.signature,
                           [SingularOrbit(o.rotation_order, o.corner, o.position)
                            for o in base.orbits])


def _axis_base(group: PairGroup, classes: dict) -> BaseActionGroup:
    """Base action from the induced isometries, one (jflag, t, line,
    sign) per class of pairs that induce the same one (see _axis).

    Singular points are the points on rotation axes.  The points whose
    rotation stabilizer has order q fall into orbits that orbit-stabilizer
    counting numbers: one orbit, whose representative can be any of the
    points, or two, separated by P and -P once no element is seen to
    carry P to -P.  Any other count is not resolved and raises.
    """
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
            if t == 30:
                mirrors.append(line)
        elif line is not None:
            stabilizer[line] = stabilizer.get(line, 1) + 1
            if t == 30:
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
        count, rest = divmod(sum(2 * q * (1 + on_mirror[line]) for line in lines),
                             order)
        line = lines[0]
        if (count, rest) == (1, 0):
            signs = (1,)
        else:
            # P goes to -P under a rotation half turn about an axis normal
            # to P, or under the antipode composed with a rotation fixing P
            swapped = (None in reversing_lines or line in reversing_lines
                       or any(_perpendicular(line, h) for h in half_turns))
            _require((count, rest) == (2, 0) and not swapped,
                     "orbits of the order-{} points are not resolved", q)
            signs = (1, -1)
        orbits.extend(SingularOrbit(q, on_mirror[line], ("axis", line, sign))
                      for sign in signs)

    signature = _quotient_signature(bool(reversing_lines), bool(mirrors),
                                    orbits, order)
    return BaseActionGroup(order, signature, orbits)


def euler_oracle(group: PairGroup, base: BaseActionGroup) -> Fraction:
    """-(rotation order)/(base degree)^2: covering naturality applied to
    the Hopf fibration, whose own Euler number is -1."""
    n = phi_order(group)
    return Fraction(-n, base.order * base.order)


# ---------------------------------------------------------------------------
# local invariants of the exceptional fibers
# ---------------------------------------------------------------------------

def _axis_hnf(group: PairGroup, line: int, sign: int):
    """Common grid and Hermite normal form of the torus translations, as
    integer numerators over it, of the stabilizer of the fiber over the
    axis-path point P = sign * u, conjugated to the core at infinity.

    A unit w with w P w^-1 = i carries that fiber to the core, and turns
    a right factor cos(pi t/60) + sin(pi t/60) v with v = +-P into
    cos(pi t/60) +- i sin(pi t/60), so beta = +-t/120 with the sign of
    v . P, on the grid of 120ths, and the left angles are lifted from the
    group's grid.  An r on the line of P meets one left progression
    alpha + (grid/period)*Z per right coset, which translates by
    (alpha - beta, alpha + beta) and the kernel step.  The span of those
    is the stabilizer's translations when its index is half the pair
    count: (l, r), (-l, -r) act alike.  Only orientation-preserving
    pairs enter: at a corner reflector the local invariant is by
    definition that of the index-two cyclic part.
    """
    gluing = group.gluing
    grid = math.lcm(120, group.grid)
    lift, step, unit = grid // group.grid, grid // gluing.period, grid // 120
    axes = _coset_axes(gluing)[1]
    vectors = []
    for jflag, a, coset in gluing.parts():
        if jflag:
            continue
        turns = axes[id(coset)].turns
        alpha = a * lift
        for t in (*turns.get(None, ()), *[sign * t for t in turns.get(line, ())]):
            beta = t * unit
            vectors.append((alpha - beta, alpha + beta))
    h11, _, h22 = hnf = _hnf(vectors + [(step, step)], grid)
    _require(len(vectors) * gluing.period * h11 * h22 == 2 * grid * grid,
             "stabilizer translations do not form a group")
    return grid, hnf


def _orbit_hnf(group, orbit):
    """(grid, Hermite normal form) of the torus translations of the
    stabilizer of an orbit's representative fiber."""
    kind, *where = orbit.position
    if kind == "axis":
        return _axis_hnf(group, *where)
    if kind == "pole":
        return group.grid, _pole_hnf(group, where[0])
    return group.grid, _equator_hnf(group, where[0])


def _fiber_pass(group: PairGroup, base: BaseActionGroup):
    """One local invariant per singular-point orbit of the base, and the
    stabilizer HNF of the core at infinity when it heads an orbit (None
    otherwise), which the lens space reads too."""
    disc = base.signature.kind == DISC
    invariants, pole = [], None
    for orbit in base.orbits:
        location = CORNER if (disc and orbit.corner) else CONE
        grid, hnf = _orbit_hnf(group, orbit)
        if orbit.position == ("pole", False):
            pole = hnf
        inv = _lattice_invariant(hnf, grid, location)
        _require(inv.den == orbit.rotation_order,
                 "invariant denominator must match the base cone index")
        invariants.append(inv)
    return invariants, pole


def exceptional_fibers_oracle(group: PairGroup, base: BaseActionGroup):
    """One local invariant per singular-point orbit of the base."""
    return _fiber_pass(group, base)[0]


# ---------------------------------------------------------------------------
# lens space of the abelian quotients
# ---------------------------------------------------------------------------

def lens_oracle(group: PairGroup) -> TopologyReport:
    """Underlying lens space of an abelian quotient by lattice arithmetic.

    The quotient of the boundary torus is R^2 / M for the lattice M of
    torus translations of the rotation group, in Hermite normal form
    (h11, h12), (0, h22) over the grid (see _pole_hnf).  The meridians of
    the two quotient solid tori are the primitive vectors of M along the
    axes, m = (h11*h22/g, 0) = (h22/g)*(h11, h12) - (h12/g)*(0, h22) and
    (0, h22), g = gcd(h12, h22).  With x*h22/g - y*h12/g = 1, m and
    w = -y*(h11, h12) + x*(0, h22) are a basis of M, and (0, h22) =
    y*m + (h22/g)*w names L(h22/g, y) = L(h22/g, h12/g).  The (0, v)
    fix the z2 = 0 core and the (u, 0) the z1 = 0 core; their counts are
    the singular components.
    """
    if not _single_class_lattice(group):
        raise ValueError("the lens assembly applies to groups with two "
                         "cyclic factors")
    return _lens(group, _pole_hnf(group, False))


def _lens(group: PairGroup, hnf) -> TopologyReport:
    """lens_oracle's lens space from the normal form M of _pole_hnf."""
    grid = group.grid
    h11, h12, h22 = hnf
    _require(grid * grid // (h11 * h22) == phi_order(group), "torus translations repeat")
    g = math.gcd(h12, h22)
    components = tuple(sorted([k for k in (grid // (h11 * (h22 // g)), grid // h22)
                               if k > 1]))
    return lens_report(h22 // g, h12 // g, components)


def _single_class_lattice(group: PairGroup) -> bool:
    """Both factors cyclic: a lattice whose only flag class is the rotations."""
    return group.lattice is not None and len(group.lattice.offsets) == 1


# ---------------------------------------------------------------------------
# the full report
# ---------------------------------------------------------------------------

@dataclass(slots=True, unsafe_hash=True)
class OracleReport:
    seifert: SeifertData
    topology: Optional[TopologyReport]


def oracle_report(group: PairGroup) -> OracleReport:
    """Base orbifold, Euler number, local invariants and (for groups with
    two cyclic factors) the underlying space, all recomputed from the
    group data.  The lens space reuses the pole stabilizer of the fiber
    pass, or builds it when no pole is singular."""
    base = base_group(group)
    euler = euler_oracle(group, base)
    invariants, pole = _fiber_pass(group, base)
    xi = derive_xi(invariants, euler) if base.signature.kind == DISC else None
    seifert = SeifertData(base.signature, tuple(invariants), euler, xi)
    topology = None
    if _single_class_lattice(group):
        topology = _lens(group, pole or _pole_hnf(group, False))
    return OracleReport(seifert, topology)
