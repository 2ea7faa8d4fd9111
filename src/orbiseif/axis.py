"""The oracle's axis path for a T*, O* or I* right factor, loaded with
the first such group; exact in Q(sqrt2, sqrt5).

The fiber through h lies over the point P = h^-1 i h of the unit sphere
in Im H, and a pair (l, r) moves P to r P r^-1, or to -r P r^-1 when l
is j-type: for r = cos(pi t/60) + sin(pi t/60) u, the rotation by
2 pi t/60 about the line of u, composed with the antipode for j-type l.
A point is kept as (line, sign): sign times the stored direction of a
line.  Orbits and stabilizers follow from incidences of those lines."""

from __future__ import annotations

import math
from functools import lru_cache

from .build import CosetGluing, PairGroup, _hnf, phi_order
from .exactfield import (QF_HALF, QF_HALF_SQRT2, QF_HALF_TAU, QF_HALF_TAU_INV,
                         QuadFieldElement)
from .groups import _require
from .oracle import BaseActionGroup, SingularOrbit, _quotient_signature
from .record import Record


# Every element of T*, O* and I* has order 1-6, 8 or 10, so its real part
# is cos(pi t/60) for one of these integers t in [0, 60], and so is every
# other coordinate (see exactfield).  A nonzero coordinate cos(pi t/60) is
# positive exactly when t < 30, and _RECIPROCAL[t] is its exact reciprocal.
_HALF_ANGLE = {
    QuadFieldElement(1): 0,
    QF_HALF_TAU: 12,                              # (1 + sqrt5)/4
    QF_HALF_SQRT2: 15,
    QF_HALF: 20,
    QF_HALF_TAU_INV: 24,                          # (sqrt5 - 1)/4
    QuadFieldElement(0): 30,
    -QF_HALF_TAU_INV: 36,
    -QF_HALF: 40,
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
# tuples of polyhedral._polyhedral_quotient, so each is read once per
# process, and each has a few patterns (see _base_group_axis).
_COSET_AXES = {}


class _CosetAxes(Record):
    """The _axis data of one right coset.  `classes[jflag]` maps (jflag,
    line, sign * t mod 60) to the (jflag, t, line, sign) of its first
    element r: r and -r, which has 60 - t and -sign, induce the same
    rotation and share the key, and distinct rotations about one line get
    distinct keys.  `turns` maps None to the t of the elements +-1 and a
    line to the sign * t of the elements on it."""

    __slots__ = ("classes", "turns")
    __hash__ = None

    def __init__(self, classes: tuple, turns: dict):
        self.classes, self.turns = classes, turns


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
