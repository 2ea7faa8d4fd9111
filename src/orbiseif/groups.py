"""Finite subgroups of S^3 x S^3 presented as explicit element lists.

A subgroup G of S^3 x S^3 containing (-1, -1) is determined by the
5-tuple (L, L_K, R, R_K, phi): the two projections L, R, the two kernels
L_K = {l : (l, 1) in G} and R_K, and the gluing isomorphism
phi : L/L_K -> R/R_K.  G is then the union over cosets C of L_K of
C x phi(C).

The catalog below lists the families by identifier (primed families use
the suffix "p", swapped families the suffix "bis").  For each family the
gluing isomorphism is pinned by explicit generator images; whenever
several choices of phi give conjugate groups, one fixed choice is made
here and all downstream invariants are insensitive to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .exactfield import QF_HALF_SQRT2, QF_HALF_TAU, QF_HALF_TAU_INV, QuadFieldElement
from .quaternions import (
    CIRCLE_J,
    AlgebraicQuaternion,
    CircleJElement,
    GroupElement,
    PairElement,
    circle_root,
    multiply,
    quat_rational,
)


# ---------------------------------------------------------------------------
# standard subgroups of S^3
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StandardGroupId:
    """C = cyclic, D = binary dihedral, T/O/I = binary polyhedral."""

    kind: str
    order: int

    def __post_init__(self):
        assert self.kind in "CDTOI"
        if self.kind == "D":
            # C_n u C_n j is closed only when -1 = j^2 lies in C_n, i.e. n even.
            assert self.order % 4 == 0
        if self.kind in "TOI":
            assert self.order == {"T": 24, "O": 48, "I": 120}[self.kind]

    def __str__(self):
        if self.kind == "C":
            return f"C{self.order}"
        if self.kind == "D":
            return f"D*{self.order}"
        return {"T": "T*", "O": "O*", "I": "I*"}[self.kind]


def cyclic(n: int) -> StandardGroupId:
    return StandardGroupId("C", n)


def binary_dihedral(order: int) -> StandardGroupId:
    return StandardGroupId("D", order)


BINARY_TETRAHEDRAL = StandardGroupId("T", 24)
BINARY_OCTAHEDRAL = StandardGroupId("O", 48)
BINARY_ICOSAHEDRAL = StandardGroupId("I", 120)

OMEGA = quat_rational(Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))
SIGMA = AlgebraicQuaternion(QF_HALF_SQRT2, QuadFieldElement(0),
                            QF_HALF_SQRT2, QuadFieldElement(0))
IOTA = AlgebraicQuaternion(QF_HALF_TAU_INV, QuadFieldElement(0),
                           QF_HALF_TAU, QuadFieldElement(Fraction(1, 2)))


def _tetrahedral_elements():
    half = Fraction(1, 2)
    units = [quat_rational(*coords) for coords in (
        (1, 0, 0, 0), (-1, 0, 0, 0), (0, 1, 0, 0), (0, -1, 0, 0),
        (0, 0, 1, 0), (0, 0, -1, 0), (0, 0, 0, 1), (0, 0, 0, -1))]
    halves = [quat_rational(sw * half, sx * half, sy * half, sz * half)
              for sw in (1, -1) for sx in (1, -1) for sy in (1, -1) for sz in (1, -1)]
    return units + halves


def _coset_union(base, multipliers):
    seen = {}
    for mult in multipliers:
        for el in base:
            prod = mult.multiply(el)
            seen.setdefault(prod, None)
    return list(seen)


def standard_group(group_id: StandardGroupId) -> list[GroupElement]:
    """Exact element list; circle representation for C and D* groups."""
    kind, order = group_id.kind, group_id.order
    if kind == "C":
        return [circle_root(order, k) for k in range(order)]
    if kind == "D":
        n = order // 2
        rotations = [circle_root(n, k) for k in range(n)]
        return rotations + [CircleJElement(Fraction(k, n), True) for k in range(n)]
    if kind == "T":
        return _tetrahedral_elements()
    if kind == "O":
        t = _tetrahedral_elements()
        return _coset_union(t, [quat_rational(1, 0, 0, 0), SIGMA])
    if kind == "I":
        t = _tetrahedral_elements()
        powers = [quat_rational(1, 0, 0, 0)]
        for _ in range(4):
            powers.append(IOTA.multiply(powers[-1]))
        return _coset_union(t, powers)
    raise ValueError(f"unknown group kind {kind}")


def algebraic_group(group_id: StandardGroupId) -> list[GroupElement]:
    """Element list in the quaternion-coordinate representation.

    Needed when a cyclic or binary dihedral group occurs as a kernel
    inside a binary polyhedral group; only groups whose coordinates lie
    in Q(sqrt2, sqrt5) are representable, which covers every kernel in
    the catalog (D*8 and T* itself).
    """
    kind, order = group_id.kind, group_id.order
    if kind in "TOI":
        return standard_group(group_id)
    if kind == "D" and order == 8:
        return [quat_rational(*coords) for coords in (
            (1, 0, 0, 0), (-1, 0, 0, 0), (0, 1, 0, 0), (0, -1, 0, 0),
            (0, 0, 1, 0), (0, 0, -1, 0), (0, 0, 0, 1), (0, 0, 0, -1))]
    raise ValueError(f"no algebraic representation wired for {group_id}")


# ---------------------------------------------------------------------------
# family specifications
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FamilySpec:
    family: str
    m: Optional[int] = None
    n: Optional[int] = None
    r: Optional[int] = None
    s: Optional[int] = None

    def params(self) -> dict:
        return {k: v for k, v in (("m", self.m), ("n", self.n),
                                  ("r", self.r), ("s", self.s)) if v is not None}

    def __str__(self):
        inner = ",".join(f"{k}={v}" for k, v in self.params().items())
        return f"{self.family}({inner})"


@dataclass(frozen=True)
class GoursatData:
    left: StandardGroupId
    left_kernel: StandardGroupId
    right: StandardGroupId
    right_kernel: StandardGroupId
    # generator coset images pinning phi; the identity coset maps to the
    # identity coset and the rest follows by multiplicativity
    phi_generators: tuple = ()
    algebraic_right: bool = False


@dataclass(frozen=True)
class Family:
    name: str
    params: tuple
    fibered: bool
    phi_order: Callable[[FamilySpec], int]
    conditions: Callable[[FamilySpec], list[str]] = lambda spec: []
    goursat: Optional[Callable[[FamilySpec], GoursatData]] = None
    label: str = ""


def _needs_odd(value: int, name: str) -> list[str]:
    return [] if value % 2 == 1 else [f"{name} must be odd"]


def _coprime(s: int, r: int) -> list[str]:
    return [] if math.gcd(s, r) == 1 else ["gcd(s,r)=1 fails"]


def _g(left, lk, right, rk, gens=(), algebraic_right=False):
    return GoursatData(left, lk, right, rk, tuple(gens), algebraic_right)


def _z(k, power=1):
    return circle_root(k, power)


FAMILIES: dict[str, Family] = {}


def _register(fam: Family):
    FAMILIES[fam.name] = fam


_register(Family(
    "1", ("m", "n", "r", "s"), True,
    lambda sp: 2 * sp.m * sp.n * sp.r,
    lambda sp: _coprime(sp.s, sp.r),
    lambda sp: _g(cyclic(2 * sp.m * sp.r), cyclic(2 * sp.m),
                  cyclic(2 * sp.n * sp.r), cyclic(2 * sp.n),
                  [(_z(2 * sp.m * sp.r), _z(2 * sp.n * sp.r, sp.s))]),
    "(C2mr/C2m, C2nr/C2n)_s"))

_register(Family(
    "1p", ("m", "n", "r", "s"), True,
    lambda sp: sp.m * sp.n * sp.r // 2,
    lambda sp: (_coprime(sp.s, sp.r) + _needs_odd(sp.m, "m")
                + _needs_odd(sp.n, "n")
                + ([] if sp.r % 2 == 0 else ["r must be even"])),
    lambda sp: _g(cyclic(sp.m * sp.r), cyclic(sp.m),
                  cyclic(sp.n * sp.r), cyclic(sp.n),
                  [(_z(sp.m * sp.r), _z(sp.n * sp.r, sp.s))]),
    "(Cmr/Cm, Cnr/Cn)_s"))

_register(Family(
    "2", ("m", "n"), True,
    lambda sp: 4 * sp.m * sp.n,
    goursat=lambda sp: _g(cyclic(2 * sp.m), cyclic(2 * sp.m),
                          binary_dihedral(4 * sp.n), binary_dihedral(4 * sp.n)),
    label="(C2m/C2m, D*4n/D*4n)"))

_register(Family(
    "3", ("m", "n"), True,
    lambda sp: 4 * sp.m * sp.n,
    goursat=lambda sp: _g(cyclic(4 * sp.m), cyclic(2 * sp.m),
                          binary_dihedral(4 * sp.n), cyclic(2 * sp.n),
                          [(_z(4 * sp.m), CIRCLE_J)]),
    label="(C4m/C2m, D*4n/C2n)"))

_register(Family(
    "4", ("m", "n"), True,
    lambda sp: 8 * sp.m * sp.n,
    goursat=lambda sp: _g(cyclic(4 * sp.m), cyclic(2 * sp.m),
                          binary_dihedral(8 * sp.n), binary_dihedral(4 * sp.n),
                          [(_z(4 * sp.m), _z(4 * sp.n))]),
    label="(C4m/C2m, D*8n/D*4n)"))

_register(Family(
    "5", ("m",), True,
    lambda sp: 24 * sp.m,
    goursat=lambda sp: _g(cyclic(2 * sp.m), cyclic(2 * sp.m),
                          BINARY_TETRAHEDRAL, BINARY_TETRAHEDRAL),
    label="(C2m/C2m, T*/T*)"))

_register(Family(
    "6", ("m",), True,
    lambda sp: 24 * sp.m,
    goursat=lambda sp: _g(cyclic(6 * sp.m), cyclic(2 * sp.m),
                          BINARY_TETRAHEDRAL, binary_dihedral(8),
                          [(_z(6 * sp.m), OMEGA)], algebraic_right=True),
    label="(C6m/C2m, T*/D*8)"))

_register(Family(
    "7", ("m",), True,
    lambda sp: 48 * sp.m,
    goursat=lambda sp: _g(cyclic(2 * sp.m), cyclic(2 * sp.m),
                          BINARY_OCTAHEDRAL, BINARY_OCTAHEDRAL),
    label="(C2m/C2m, O*/O*)"))

_register(Family(
    "8", ("m",), True,
    lambda sp: 48 * sp.m,
    goursat=lambda sp: _g(cyclic(4 * sp.m), cyclic(2 * sp.m),
                          BINARY_OCTAHEDRAL, BINARY_TETRAHEDRAL,
                          [(_z(4 * sp.m), SIGMA)], algebraic_right=True),
    label="(C4m/C2m, O*/T*)"))

_register(Family(
    "9", ("m",), True,
    lambda sp: 120 * sp.m,
    goursat=lambda sp: _g(cyclic(2 * sp.m), cyclic(2 * sp.m),
                          BINARY_ICOSAHEDRAL, BINARY_ICOSAHEDRAL),
    label="(C2m/C2m, I*/I*)"))

_register(Family(
    "10", ("m", "n"), True,
    lambda sp: 8 * sp.m * sp.n,
    goursat=lambda sp: _g(binary_dihedral(4 * sp.m), binary_dihedral(4 * sp.m),
                          binary_dihedral(4 * sp.n), binary_dihedral(4 * sp.n)),
    label="(D*4m/D*4m, D*4n/D*4n)"))

_register(Family(
    "11", ("m", "n", "r", "s"), True,
    lambda sp: 4 * sp.m * sp.n * sp.r,
    lambda sp: _coprime(sp.s, sp.r),
    lambda sp: _g(binary_dihedral(4 * sp.m * sp.r), cyclic(2 * sp.m),
                  binary_dihedral(4 * sp.n * sp.r), cyclic(2 * sp.n),
                  [(_z(2 * sp.m * sp.r), _z(2 * sp.n * sp.r, sp.s)),
                   (CIRCLE_J, CIRCLE_J)]),
    "(D*4mr/C2m, D*4nr/C2n)_s"))

_register(Family(
    "11p", ("m", "n", "r", "s"), True,
    lambda sp: sp.m * sp.n * sp.r,
    lambda sp: (_coprime(sp.s, sp.r) + _needs_odd(sp.m, "m")
                + _needs_odd(sp.n, "n")
                + ([] if sp.r % 2 == 0 else ["r must be even"])),
    lambda sp: _g(binary_dihedral(2 * sp.m * sp.r), cyclic(sp.m),
                  binary_dihedral(2 * sp.n * sp.r), cyclic(sp.n),
                  [(_z(sp.m * sp.r), _z(sp.n * sp.r, sp.s)),
                   (CIRCLE_J, CIRCLE_J)]),
    "(D*2mr/Cm, D*2nr/Cn)_s"))

_register(Family(
    "12", ("m", "n"), True,
    lambda sp: 16 * sp.m * sp.n,
    goursat=lambda sp: _g(binary_dihedral(8 * sp.m), binary_dihedral(4 * sp.m),
                          binary_dihedral(8 * sp.n), binary_dihedral(4 * sp.n),
                          [(_z(4 * sp.m), _z(4 * sp.n))]),
    label="(D*8m/D*4m, D*8n/D*4n)"))

_register(Family(
    "13", ("m", "n"), True,
    lambda sp: 8 * sp.m * sp.n,
    goursat=lambda sp: _g(binary_dihedral(8 * sp.m), binary_dihedral(4 * sp.m),
                          binary_dihedral(4 * sp.n), cyclic(2 * sp.n),
                          [(_z(4 * sp.m), CIRCLE_J)]),
    label="(D*8m/D*4m, D*4n/C2n)"))

_register(Family(
    "13bis", ("m", "n"), True,
    lambda sp: 8 * sp.m * sp.n,
    goursat=lambda sp: _g(binary_dihedral(4 * sp.m), cyclic(2 * sp.m),
                          binary_dihedral(8 * sp.n), binary_dihedral(4 * sp.n),
                          [(CIRCLE_J, _z(4 * sp.n))]),
    label="(D*4m/C2m, D*8n/D*4n)"))

_register(Family(
    "14", ("m",), True,
    lambda sp: 48 * sp.m,
    goursat=lambda sp: _g(binary_dihedral(4 * sp.m), binary_dihedral(4 * sp.m),
                          BINARY_TETRAHEDRAL, BINARY_TETRAHEDRAL),
    label="(D*4m/D*4m, T*/T*)"))

_register(Family(
    "15", ("m",), True,
    lambda sp: 96 * sp.m,
    goursat=lambda sp: _g(binary_dihedral(4 * sp.m), binary_dihedral(4 * sp.m),
                          BINARY_OCTAHEDRAL, BINARY_OCTAHEDRAL),
    label="(D*4m/D*4m, O*/O*)"))

_register(Family(
    "16", ("m",), True,
    lambda sp: 48 * sp.m,
    goursat=lambda sp: _g(binary_dihedral(4 * sp.m), cyclic(2 * sp.m),
                          BINARY_OCTAHEDRAL, BINARY_TETRAHEDRAL,
                          [(CIRCLE_J, SIGMA)], algebraic_right=True),
    label="(D*4m/C2m, O*/T*)"))

_register(Family(
    "17", ("m",), True,
    lambda sp: 96 * sp.m,
    goursat=lambda sp: _g(binary_dihedral(8 * sp.m), binary_dihedral(4 * sp.m),
                          BINARY_OCTAHEDRAL, BINARY_TETRAHEDRAL,
                          [(_z(4 * sp.m), SIGMA)], algebraic_right=True),
    label="(D*8m/D*4m, O*/T*)"))

_register(Family(
    "18", ("m",), True,
    lambda sp: 48 * sp.m,
    goursat=lambda sp: _g(binary_dihedral(12 * sp.m), cyclic(2 * sp.m),
                          BINARY_OCTAHEDRAL, binary_dihedral(8),
                          [(_z(6 * sp.m), OMEGA), (CIRCLE_J, SIGMA)],
                          algebraic_right=True),
    label="(D*12m/C2m, O*/D*8)"))

_register(Family(
    "19", ("m",), True,
    lambda sp: 240 * sp.m,
    goursat=lambda sp: _g(binary_dihedral(4 * sp.m), binary_dihedral(4 * sp.m),
                          BINARY_ICOSAHEDRAL, BINARY_ICOSAHEDRAL),
    label="(D*4m/D*4m, I*/I*)"))

_register(Family(
    "33", ("m", "n"), True,
    lambda sp: 8 * sp.m * sp.n,
    lambda sp: ([] if sp.m != 1 else ["m must differ from 1"])
    + ([] if sp.n != 1 else ["n must differ from 1"]),
    # the exceptional gluing swaps the rotation coset and the j coset
    lambda sp: _g(binary_dihedral(8 * sp.m), cyclic(2 * sp.m),
                  binary_dihedral(8 * sp.n), cyclic(2 * sp.n),
                  [(_z(4 * sp.m), CIRCLE_J), (CIRCLE_J, _z(4 * sp.n))]),
    "(D*8m/C2m, D*8n/C2n)_f"))

_register(Family(
    "33p", ("m", "n"), True,
    lambda sp: 4 * sp.m * sp.n,
    lambda sp: (_needs_odd(sp.m, "m") + _needs_odd(sp.n, "n")
                + ([] if sp.m != 1 else ["m must differ from 1"])
                + ([] if sp.n != 1 else ["n must differ from 1"])),
    lambda sp: _g(binary_dihedral(8 * sp.m), cyclic(sp.m),
                  binary_dihedral(8 * sp.n), cyclic(sp.n),
                  [(_z(4 * sp.m), CIRCLE_J), (CIRCLE_J, _z(4 * sp.n))]),
    "(D*8m/Cm, D*8n/Cn)_f"))

_register(Family(
    "34", ("m", "n"), True,
    lambda sp: 2 * sp.m * sp.n,
    lambda sp: _needs_odd(sp.m, "m") + _needs_odd(sp.n, "n"),
    lambda sp: _g(cyclic(4 * sp.m), cyclic(sp.m),
                  binary_dihedral(4 * sp.n), cyclic(sp.n),
                  [(_z(4 * sp.m), CIRCLE_J)]),
    "(C4m/Cm, D*4n/Cn)"))

_register(Family(
    "2bis", ("m", "n"), True,
    lambda sp: 4 * sp.m * sp.n,
    goursat=lambda sp: _g(binary_dihedral(4 * sp.m), binary_dihedral(4 * sp.m),
                          cyclic(2 * sp.n), cyclic(2 * sp.n)),
    label="(D*4m/D*4m, C2n/C2n)"))

_register(Family(
    "3bis", ("m", "n"), True,
    lambda sp: 4 * sp.m * sp.n,
    goursat=lambda sp: _g(binary_dihedral(4 * sp.m), cyclic(2 * sp.m),
                          cyclic(4 * sp.n), cyclic(2 * sp.n),
                          [(CIRCLE_J, _z(4 * sp.n))]),
    label="(D*4m/C2m, C4n/C2n)"))

_register(Family(
    "4bis", ("m", "n"), True,
    lambda sp: 8 * sp.m * sp.n,
    goursat=lambda sp: _g(binary_dihedral(8 * sp.m), binary_dihedral(4 * sp.m),
                          cyclic(4 * sp.n), cyclic(2 * sp.n),
                          [(_z(4 * sp.m), _z(4 * sp.n))]),
    label="(D*8m/D*4m, C4n/C2n)"))

_register(Family(
    "34bis", ("m", "n"), True,
    lambda sp: 2 * sp.m * sp.n,
    lambda sp: _needs_odd(sp.m, "m") + _needs_odd(sp.n, "n"),
    lambda sp: _g(binary_dihedral(4 * sp.m), cyclic(sp.m),
                  cyclic(4 * sp.n), cyclic(sp.n),
                  [(CIRCLE_J, _z(4 * sp.n))]),
    "(D*4m/Cm, C4n/Cn)"))

# Families with two binary polyhedral factors preserve no fibration of the
# 3-sphere; they are listed for enumeration only and cannot be built here.
_NON_FIBERED = [
    ("20", 288, "(T*/T*, T*/T*)"), ("21", 24, "(T*/C2, T*/C2)"),
    ("21p", 12, "(T*/C1, T*/C1)"), ("22", 96, "(T*/D*8, T*/D*8)"),
    ("23", 576, "(T*/T*, O*/O*)"), ("24", 1440, "(T*/T*, I*/I*)"),
    ("25", 1152, "(O*/O*, O*/O*)"), ("26", 48, "(O*/C2, O*/C2)"),
    ("26p", 24, "(O*/C1, O*/C1)_Id"), ("26pp", 24, "(O*/C1, O*/C1)_f"),
    ("27", 192, "(O*/D*8, O*/D*8)"), ("28", 576, "(O*/T*, O*/T*)"),
    ("29", 2880, "(O*/O*, I*/I*)"), ("30", 7200, "(I*/I*, I*/I*)"),
    ("31", 120, "(I*/C2, I*/C2)_Id"), ("31p", 60, "(I*/C1, I*/C1)_Id"),
    ("32", 120, "(I*/C2, I*/C2)_f"), ("32p", 60, "(I*/C1, I*/C1)_f"),
]
for _name, _order, _label in _NON_FIBERED:
    _register(Family(_name, (), False, lambda sp, o=_order: o, label=_label))

FAMILY_ORDER = ["1", "1p"] + [str(k) for k in range(2, 11)] + ["11", "11p"] \
    + [str(k) for k in range(12, 21)] + ["21", "21p", "22", "23", "24", "25",
    "26", "26p", "26pp", "27", "28", "29", "30", "31", "31p", "32", "32p",
    "33", "33p", "34", "2bis", "3bis", "4bis", "13bis", "34bis"]
assert set(FAMILY_ORDER) == set(FAMILIES)

TABLE4_FAMILIES = [str(k) for k in range(2, 11)] + [str(k) for k in range(12, 20)] \
    + ["33", "33p", "34", "2bis", "3bis", "4bis", "13bis", "34bis"]
ABELIAN_FAMILIES = ["1", "1p"]
DIHEDRAL_FAMILIES = ["11", "11p"]
FIBERED_FAMILIES = ABELIAN_FAMILIES + DIHEDRAL_FAMILIES + TABLE4_FAMILIES


class UnsupportedFamilyError(ValueError):
    pass


def get_family(name: str) -> Family:
    if name not in FAMILIES:
        raise UnsupportedFamilyError(f"unknown family identifier {name!r}")
    return FAMILIES[name]


def validate(spec: FamilySpec):
    """(violations, notes); empty violations means the spec is buildable.

    An even s for families 1 and 11 is not a violation: s and r-s give
    conjugate groups, so the odd representative r-s is reported as a
    note and used by the closed-form evaluator.
    """
    fam = get_family(spec.family)
    violations: list[str] = []
    notes: list[str] = []
    for p in fam.params:
        v = getattr(spec, p)
        if v is None:
            violations.append(f"family {spec.family} requires parameter {p}")
        elif v < 1:
            violations.append(f"parameter {p} must be a positive integer")
    for p in ("m", "n", "r", "s"):
        if p not in fam.params and getattr(spec, p) is not None:
            violations.append(f"family {spec.family} does not take parameter {p}")
    if violations:
        return violations, notes
    violations.extend(fam.conditions(spec))
    if not violations and spec.family in ("1", "11") and spec.s % 2 == 0:
        notes.append(f"s={spec.s} is even; the conjugate representative "
                     f"s={spec.r - spec.s} is used in closed forms")
    return violations, notes


def normalized_s(spec: FamilySpec) -> int:
    """Odd representative of s for families 1 and 11 (s -> r-s if even)."""
    if spec.family in ("1", "11") and spec.s % 2 == 0:
        return spec.r - spec.s
    return spec.s


# ---------------------------------------------------------------------------
# Goursat construction
# ---------------------------------------------------------------------------

@dataclass
class PairGroup:
    spec: FamilySpec
    elements: list[PairElement]
    left: StandardGroupId
    left_kernel: StandardGroupId
    right: StandardGroupId
    right_kernel: StandardGroupId

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def element_set(self):
        if not hasattr(self, "_element_set"):
            self._element_set = frozenset(self.elements)
        return self._element_set


def phi_order(group: PairGroup) -> int:
    """Order of the rotation group; the pair kernel is {(1,1), (-1,-1)}."""
    assert group.order % 2 == 0
    return group.order // 2


def _coset_partition(elements, kernel):
    """Coset representatives and element -> coset index for l*K cosets."""
    index = {}
    reps = []
    for el in elements:
        if el in index:
            continue
        idx = len(reps)
        reps.append(el)
        for k in kernel:
            index[multiply(el, k)] = idx
    assert len(index) == len(elements), "kernel is not a subgroup of the group"
    return reps, index


def _close_isomorphism(reps_l, index_l, reps_r, index_r, seed):
    """Total bijective homomorphism on coset indices extending the seed.

    The seed maps the identity coset and the generator cosets; the rest
    is forced by multiplicativity, spreading from the generators.
    Afterwards phi(g*x) = phi(g)*phi(x) is checked for every generator g
    against every coset x, which by induction on word length makes phi a
    homomorphism on the whole quotient.
    """
    phi = dict(seed)
    gens = [item for item in seed.items()]
    frontier = list(phi.items())
    while frontier:
        fresh = []
        for a, fa in frontier:
            for g, fg in gens:
                ga = index_l[multiply(reps_l[g], reps_l[a])]
                image = index_r[multiply(reps_r[fg], reps_r[fa])]
                known = phi.get(ga)
                if known is None:
                    phi[ga] = image
                    fresh.append((ga, image))
                elif known != image:
                    raise AssertionError(
                        "generator images do not extend to a homomorphism")
        frontier = fresh
    if len(phi) != len(reps_l):
        raise AssertionError("generator cosets do not span the quotient")
    if len(set(phi.values())) != len(phi):
        raise AssertionError("gluing isomorphism is not injective")
    for g, fg in gens:
        for a in range(len(reps_l)):
            left = index_l[multiply(reps_l[g], reps_l[a])]
            right = index_r[multiply(reps_r[fg], reps_r[phi[a]])]
            if phi[left] != right:
                raise AssertionError("gluing map is not multiplicative")
    return phi


def _goursat_grid(spec: FamilySpec) -> list:
    """Direct element grid for the cyclic and dihedral parameter families.

    The quotients are generated by the rotation coset (and j for the
    dihedral rows, glued by j -> j), so the c-th rotation coset of the
    left kernel pairs with the (c*s)-th on the right, and the j cosets
    pair likewise.  This produces exactly the same element set as the
    generic coset construction, just without computing any products.
    """
    m, n, r, s = spec.m, spec.n, spec.r, spec.s
    half = 1 if spec.family in ("1p", "11p") else 2
    dihedral = spec.family in ("11", "11p")
    left_den = half * m * r
    right_den = half * n * r
    pairs = []
    flags = (False, True) if dihedral else (False,)
    for flag in flags:
        for c in range(r):
            rights = [CircleJElement(Fraction(c * s + r * u, right_den), flag)
                      for u in range(half * n)]
            for t in range(half * m):
                left = CircleJElement(Fraction(c + r * t, left_den), flag)
                for right in rights:
                    pairs.append(PairElement(left, right))
    return pairs


def goursat_group(spec: FamilySpec) -> PairGroup:
    """Element list of the group {(l, r) : phi(l L_K) = r R_K}."""
    fam = get_family(spec.family)
    if not fam.fibered or fam.goursat is None:
        raise UnsupportedFamilyError(
            f"family {spec.family} preserves no fibration and is not built")
    violations, _ = validate(spec)
    if violations:
        raise ValueError(f"invalid {spec}: " + "; ".join(violations))

    data = fam.goursat(spec)
    if spec.family in ("1", "1p", "11", "11p"):
        pairs = _goursat_grid(spec)
        group = PairGroup(spec, pairs, data.left, data.left_kernel,
                          data.right, data.right_kernel)
        assert group.order == data.left.order * data.right_kernel.order
        return group
    return _goursat_generic(spec, data)


def _goursat_generic(spec: FamilySpec, data: GoursatData) -> PairGroup:
    """Coset-by-coset construction from the 5-tuple and the gluing seed."""
    left_elements = standard_group(data.left)
    left_kernel = standard_group(data.left_kernel)
    right_elements = (algebraic_group(data.right) if data.algebraic_right
                      else standard_group(data.right))
    right_kernel = (algebraic_group(data.right_kernel) if data.algebraic_right
                    else standard_group(data.right_kernel))

    left_set = set(left_elements)
    right_set = set(right_elements)
    assert all(k in left_set for k in left_kernel)
    assert all(k in right_set for k in right_kernel)

    reps_l, index_l = _coset_partition(left_elements, left_kernel)
    reps_r, index_r = _coset_partition(right_elements, right_kernel)
    assert len(reps_l) == len(reps_r), "quotients have different orders"

    identity_l = index_l[left_elements[_identity_position(left_elements)]]
    identity_r = index_r[right_elements[_identity_position(right_elements)]]

    seed = {identity_l: identity_r}
    for gen_l, gen_r in data.phi_generators:
        seed[index_l[gen_l]] = index_r[gen_r]
    phi = _close_isomorphism(reps_l, index_l, reps_r, index_r, seed)

    pairs = []
    for coset, rep_l in enumerate(reps_l):
        rep_r = reps_r[phi[coset]]
        rights = [multiply(rep_r, k2) for k2 in right_kernel]
        for k1 in left_kernel:
            l = multiply(rep_l, k1)
            for right in rights:
                pairs.append(PairElement(l, right))

    group = PairGroup(spec, pairs, data.left, data.left_kernel,
                      data.right, data.right_kernel)
    assert group.order == data.left.order * data.right_kernel.order
    ident = PairElement(left_elements[_identity_position(left_elements)],
                        right_elements[_identity_position(right_elements)])
    assert ident in group.element_set
    assert ident.negate() in group.element_set, \
        "(-1, -1) must belong to every catalog group"
    return group


def _identity_position(elements) -> int:
    for i, el in enumerate(elements):
        if el.is_identity():
            return i
    raise AssertionError("element list lacks the identity")


# ---------------------------------------------------------------------------
# enumeration below an order bound
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EnumeratedSpec:
    spec: FamilySpec
    phi_order: int
    fibered: bool
    label: str


def _param_candidates(fam: Family, max_order: int):
    """All parameter tuples of the family with rotation order <= max_order."""
    if not fam.params:
        sp = FamilySpec(fam.name)
        if fam.phi_order(sp) <= max_order:
            yield sp
        return

    def order_of(**kw):
        return fam.phi_order(FamilySpec(fam.name, **kw))

    if fam.params == ("m",):
        m = 1
        while order_of(m=m) <= max_order:
            yield FamilySpec(fam.name, m=m)
            m += 1
        return

    if fam.params == ("m", "n"):
        m = 1
        while order_of(m=m, n=1) <= max_order:
            n = 1
            while order_of(m=m, n=n) <= max_order:
                yield FamilySpec(fam.name, m=m, n=n)
                n += 1
            m += 1
        return

    assert fam.params == ("m", "n", "r", "s")
    m = 1
    while order_of(m=m, n=1, r=1, s=1) <= max_order:
        n = 1
        while order_of(m=m, n=n, r=1, s=1) <= max_order:
            r = 1
            while order_of(m=m, n=n, r=r, s=1) <= max_order:
                for s in range(1, r + 1):
                    if math.gcd(s, r) == 1:
                        yield FamilySpec(fam.name, m=m, n=n, r=r, s=s)
                r += 1
            n += 1
        m += 1


def enumerate_specs(max_order: int, families=None) -> list[EnumeratedSpec]:
    """Every valid spec with |Phi(G)| <= max_order, in catalog order."""
    if max_order < 1:
        raise ValueError("order bound must be at least 1")
    names = FAMILY_ORDER if families is None else list(families)
    rows = []
    for name in names:
        fam = get_family(name)
        for sp in _param_candidates(fam, max_order):
            violations, _ = validate(sp)
            if violations:
                continue
            rows.append(EnumeratedSpec(sp, fam.phi_order(sp), fam.fibered,
                                       fam.label))
    return rows
