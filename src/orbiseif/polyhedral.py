"""The group builder's T*, O* and I* layer, loaded with the first group
with such a right factor.  Products go through `groups.multiply` and
listings through `groups.standard_group`, read off that module."""

from __future__ import annotations

import math
from functools import cache

from . import groups
from .build import (CosetGluing, GoursatData, _check_circle_factor, _circle_period,
                    _circle_times, _on_circle_grid)
from .exactfield import (QF_HALF, QF_HALF_SQRT2, QF_HALF_TAU, QF_HALF_TAU_INV,
                         QuadFieldElement)
from .groups import StandardGroupId, _require
from .quaternions import AlgebraicQuaternion, element_negate, quat_rational
from .record import Record

OMEGA = AlgebraicQuaternion(QF_HALF, QF_HALF, QF_HALF, QF_HALF)
SIGMA = AlgebraicQuaternion(QF_HALF_SQRT2, QuadFieldElement(0),
                            QF_HALF_SQRT2, QuadFieldElement(0))
IOTA = AlgebraicQuaternion(QF_HALF_TAU_INV, QuadFieldElement(0),
                           QF_HALF_TAU, QF_HALF)


def _tetrahedral_elements():
    units = [quat_rational(*coords) for coords in (
        (1, 0, 0, 0), (-1, 0, 0, 0), (0, 1, 0, 0), (0, -1, 0, 0),
        (0, 0, 1, 0), (0, 0, -1, 0), (0, 0, 0, 1), (0, 0, 0, -1))]
    signed = (QF_HALF, -QF_HALF)
    halves = [AlgebraicQuaternion(w, x, y, z)
              for w in signed for x in signed for y in signed for z in signed]
    return units + halves


def _coset_union(base, multipliers):
    seen = {}
    for mult in multipliers:
        for el in base:
            prod = mult.multiply(el)
            seen.setdefault(prod, None)
    return list(seen)


# Listing I* takes 124 quaternion products, each about 30 us (a 2-vCPU
# Xeon VM, Python 3.11), so each of T*, O* and I* is listed once per
# process; there are three keys.
@cache
def _polyhedral_elements(kind: str) -> tuple:
    t = _tetrahedral_elements()
    if kind == "T":
        return tuple(t)
    if kind == "O":
        return tuple(_coset_union(t, [quat_rational(1, 0, 0, 0), SIGMA]))
    powers = [quat_rational(1, 0, 0, 0)]
    for _ in range(4):
        powers.append(IOTA.multiply(powers[-1]))
    return tuple(_coset_union(t, powers))


class _Quotient(Record):
    """A factor R of a Goursat 5-tuple with its kernel K, as coset data."""

    __slots__ = ("coset_of", "cosets", "table", "identity", "minus_one")

    def __init__(self, coset_of, cosets, table, identity, minus_one):
        self.coset_of = coset_of     # element of R -> index of its coset l*K
        self.cosets = cosets         # index -> members of the coset
        self.table = table           # table[a][b] = index of the coset product a*b
        self.identity = identity     # index of the kernel itself
        self.minus_one = minus_one   # index of the coset of -1


# Cached per (right, right_kernel): the coset data of a binary polyhedral
# right factor does not depend on the family parameters, and its cosets
# and table take up to 76 quaternion products of about 30 us each, so
# each is built once per process; the catalog has six keys.
@cache
def _polyhedral_quotient(group_id: StandardGroupId,
                         kernel_id: StandardGroupId) -> _Quotient:
    """Coset data of a T*, O* or I* factor, from its elements in
    quaternion coordinates; each coset is the tuple (l*k for k in K),
    the first one K itself."""
    elements = groups.algebraic_group(group_id)
    kernel = elements if kernel_id == group_id else groups.algebraic_group(kernel_id)
    members = set(elements)
    _require(all(k in members for k in kernel),
             "{} is not contained in {}", kernel_id, group_id)
    # the coset of an element of K is K, so it is not multiplied out
    index = dict.fromkeys(kernel, 0)
    cosets = [tuple(kernel)]
    for el in elements:
        if el in index:
            continue
        coset = tuple(groups.multiply(el, k) for k in kernel)
        for x in coset:
            index[x] = len(cosets)
        cosets.append(coset)
    _require(len(index) == len(elements), "kernel is not a subgroup of the group")
    identity = quat_rational(1, 0, 0, 0)
    _require(identity in index, "element list lacks the identity")
    reps = [coset[0] for coset in cosets]
    table = tuple(tuple(index[groups.multiply(a, b)] for b in reps) for a in reps)

    def coset_of(element):
        _require(element in index, "{} is not in {}", element, group_id)
        return index[element]

    return _Quotient(coset_of, tuple(cosets), table, index[identity],
                     index[element_negate(identity)])


def _coset_gluing(data: GoursatData):
    """(grid, coset data) of the group for a T*, O* or I* right factor,
    on grid = lcm(4, period(L)): the coset of L_K glued to each right
    coset of R_K.  Walking the right cosets from R_K, the product c*s
    of a coset c and a generator pair (l, s) is glued to t*l for the
    offset t of c, so the gluing is multiplicative along every generator
    edge, a homomorphism from R/R_K.  It inverts phi once it reaches
    every right coset and glues no left coset twice (the quotients have
    equal orders, checked by the caller)."""
    left_period, period = _circle_period(data.left), _circle_period(data.left_kernel)
    _check_circle_factor(data.left, data.left_kernel, left_period, period)
    grid = math.lcm(4, left_period)
    right = _polyhedral_quotient(data.right, data.right_kernel)
    dihedral = data.left_kernel.kind == "D"

    def reduced(jflag, a):
        # the offset of the coset of L_K through (jflag, a); grid/2 is a
        # multiple of the step, so a binary dihedral L_K joins the jflags
        return not dihedral and jflag, a % (grid // period)

    gens = [(_on_circle_grid(l, data.left, left_period, grid), right.coset_of(r))
            for l, r in data.phi_generators]
    offsets = {right.identity: (False, 0)}
    reached = [right.identity]
    for c in reached:             # grows while it is walked
        for x, s in gens:
            d = right.table[c][s]
            image = reduced(*_circle_times(offsets[c], x, grid))
            if d not in offsets:
                reached.append(d)
            _require(offsets.setdefault(d, image) == image,
                     "generator images do not extend to a homomorphism")
    _require(len(offsets) == len(right.cosets),
             "generator cosets do not span the quotient")
    _require(len(set(offsets.values())) == len(offsets),
             "gluing isomorphism is not injective")
    _require(offsets[right.minus_one] == reduced(False, grid // 2),
             "(-1, -1) must belong to every catalog group")
    return grid, CosetGluing(period, dihedral,
                             tuple([offsets[c] for c in range(len(offsets))]),
                             right.cosets)
