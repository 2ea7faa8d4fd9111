"""Brute-force recomputation of the quotient invariants from group data,
loaded with the first comparison (see verify) and not with the package.

Nothing in this module reads the closed-form tables.  It reads only the
group data of a built group (`PairGroup.lattice`, or `PairGroup.gluing`
for T*, O* and I* right factors, over `PairGroup.grid`) and

* classifies the induced isometry group of the base 2-sphere and reads
  the quotient 2-orbifold off the fixed-point geometry,
* gets the Euler number from the covering degrees (the Hopf fibration
  itself has Euler number -1),
* conjugates each fiber to the core at infinity and reads its local
  invariant in closed form off the Hermite normal form (h11, h12, h22)
  of the stabilizer's torus translations (one normal form serves both
  polar cores; each Bezout coefficient is a modular inverse),
* for a group with two cyclic factors, reads the underlying lens space
  L(h22/g, h12/g), g = gcd(h12, h22), off that normal form for the
  rotation group.

A group with two circle-type factors takes the lattice path: the induced
isometries fall into four shapes (rotation about the poles, half turn
about an equatorial axis, the antipode composed with a polar rotation,
and reflection in a meridian), each an arithmetic progression of angles,
and every stabilizer is a 2x2 integer lattice in Hermite normal form,
so no row is listed, and the base action costs the same at every group
order.  A group with a T*, O* or I* right factor takes the axis path
(see axis).  No float and no numeric tolerance is used anywhere.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import _OnFirstUse
from .build import PairGroup, _hnf, phi_order
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
from .groups import NotHopfPreservingError, _require
from .record import Record

_axis_path = _OnFirstUse(globals(), "_axis_path", "axis")


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

class SingularOrbit(Record):
    """One equivalence class of singular base points.

    `position` names one representative exactly: ("pole", swap) is the
    core at infinity (swap False) or at zero (swap True), ("equator", a)
    the unit-circle point of angle a/grid, and ("axis", line, sign) the
    point sign * u of the axis path, u the stored direction of the line.
    """

    __slots__ = ("rotation_order", "corner", "position")

    def __init__(self, rotation_order: int, corner: bool, position: tuple):
        # the order of the orientation-preserving stabilizer
        self.rotation_order = rotation_order
        self.corner = corner           # lies on a reflection circle
        self.position = position


class BaseActionGroup(Record):
    __slots__ = ("order", "signature", "orbits")
    __hash__ = None

    def __init__(self, order: int, signature: BaseSignature, orbits: list):
        self.order, self.signature = order, signature
        self.orbits = orbits           # SingularOrbit entries, deterministic order


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
    return _axis_path._base_group_axis(group)


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


def _pole_hnf(group: PairGroup):
    """Translations of the stabilizer of the core at infinity: every
    rotation pair (a, b) fixes both poles and translates the torus by
    T(a, b) = (a - b, a + b)."""
    lat = group.lattice
    return _hnf([(a - b, a + b) for a, b in ((lat.h11, lat.h12), (0, lat.h22))],
                group.grid)


def _swap_hnf(hnf):
    """The lattice `hnf` with its two coordinates swapped: conjugation with
    (1, j) inverts the right angle and takes the core at zero to the core
    at infinity.  With g = gcd(h12, h22), x*(h11, h12) + z*(0, h22) can be
    (x*h11, 0) iff h22/g divides x, and (x*h11, g) for x = (h12/g)^-1 mod h22/g."""
    h11, h12, h22 = hnf
    g = math.gcd(h12, h22)
    return g, pow(h12 // g, -1, h22 // g) * h11 % (h11 * h22 // g), h11 * h22 // g


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
    # g*y = grid/4 - point - b_f mod half and move a by s*y*h11, s*h12 = g
    _, _, a_f, b_f = [o for o in lat.offsets if not o[0] and o[1]][0]
    g = math.gcd(h12, h22)
    s = pow(h12 // g, -1, h22 // g)
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
    rots, flips, arots, refls = (shapes[ROT], shapes[FLIP],
                                 shapes[AROT], shapes[REFL])
    _require(0 in rots, "no identity class")
    # each nonempty progression has grid/s members, counted without len(),
    # which stops at sys.maxsize
    r0, s = grid // rots.step, rots.step
    order = r0 * sum(map(bool, shapes.values()))
    _require(phi_order(group) % order == 0, "base order does not divide |G|/2")

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


def euler_oracle(group: PairGroup, base: BaseActionGroup) -> Fraction:
    """-(rotation order)/(base degree)^2: covering naturality applied to
    the Hopf fibration, whose own Euler number is -1."""
    n = phi_order(group)
    return Fraction(-n, base.order * base.order)


# ---------------------------------------------------------------------------
# local invariants of the exceptional fibers
# ---------------------------------------------------------------------------

def _fiber_pass(group: PairGroup, base: BaseActionGroup):
    """One local invariant per singular-point orbit of the base, and the
    stabilizer HNF of the core at infinity when it heads an orbit (None
    otherwise), which the lens space reads too."""
    disc = base.signature.kind == DISC
    invariants, pole = [], None
    for orbit in base.orbits:
        location = CORNER if (disc and orbit.corner) else CONE
        kind, *where = orbit.position
        grid = group.grid
        if kind == "axis":
            grid, hnf = _axis_path._axis_hnf(group, *where)
        elif kind == "equator":
            hnf = _equator_hnf(group, where[0])
        elif where[0]:            # after ("pole", False), see _circle_base
            hnf = _swap_hnf(pole)
        else:
            hnf = pole = _pole_hnf(group)
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
    return _lens(group, _pole_hnf(group))[1]


def _lens(group: PairGroup, hnf):
    """(the raw pair (h22/g, h12/g), lens_oracle's lens space) from the
    normal form M of _pole_hnf."""
    grid = group.grid
    h11, h12, h22 = hnf
    _require(grid * grid // (h11 * h22) == phi_order(group), "torus translations repeat")
    g = math.gcd(h12, h22)
    components = tuple(sorted([k for k in (grid // (h11 * (h22 // g)), grid // h22)
                               if k > 1]))
    raw = h22 // g, h12 // g
    return raw, lens_report(*raw, components)


def _single_class_lattice(group: PairGroup) -> bool:
    """Both factors cyclic: a lattice whose only flag class is the rotations."""
    return group.lattice is not None and len(group.lattice.offsets) == 1


# ---------------------------------------------------------------------------
# the full report
# ---------------------------------------------------------------------------

class OracleReport(Record):
    """With two cyclic factors, `raw_lens` is the (p, q) of _lens before
    lens_report takes the least q of its class."""

    __slots__ = ("seifert", "topology", "raw_lens")

    def __init__(self, seifert: SeifertData, topology: TopologyReport | None,
                 raw_lens: tuple | None):
        self.seifert, self.topology, self.raw_lens = seifert, topology, raw_lens


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
    raw_lens = topology = None
    if _single_class_lattice(group):
        raw_lens, topology = _lens(group, pole or _pole_hnf(group))
    return OracleReport(seifert, topology, raw_lens)
