"""Finite subgroups of S^3 x S^3, kept as Goursat coset structure.

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

When both factors are cyclic or binary dihedral, the group is kept as
a lattice (RotationLattice): its rotation pairs, as integer angle pairs,
in Hermite normal form, and one coset of it per class of j-flags, all
from the catalog generators closed by Schreier generators.  With a T*,
O* or I* right factor it is kept as coset data (CosetGluing): one left
progression of integer angles per right coset of R_K, found by walking
the right cosets along the generators.  The right cosets are built from
the elements once per process, keyed by (right, right kernel), since
they do not depend on the family parameters.  Circle angles are
numerators over a common grid (see PairGroup), and the integer rows and
explicit elements of every group are views built on demand.
Self-checks raise InternalInconsistencyError, so python -O keeps them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Optional

from .exactfield import QF_HALF_SQRT2, QF_HALF_TAU, QF_HALF_TAU_INV, QuadFieldElement
from .quaternions import (
    CIRCLE_J,
    AlgebraicQuaternion,
    GroupElement,
    PairElement,
    _circle,
    circle_root,
    element_negate,
    multiply,
    quat_rational,
)


class InternalInconsistencyError(ArithmeticError):
    """A self-check failed: a derived quantity is not integral, or a built
    group or quotient is not what its construction promises."""


def _require(condition: bool, message: str) -> None:
    """Self-check that, unlike assert, survives python -O."""
    if not condition:
        raise InternalInconsistencyError(message)


# ---------------------------------------------------------------------------
# standard subgroups of S^3
# ---------------------------------------------------------------------------

_POLYHEDRAL_ORDERS = {"T": 24, "O": 48, "I": 120}


@dataclass(frozen=True)
class StandardGroupId:
    """C = cyclic, D = binary dihedral, T/O/I = binary polyhedral."""

    kind: str
    order: int

    def __post_init__(self):
        if self.kind not in ("C", "D", "T", "O", "I"):
            raise ValueError("group kind must be one of C, D, T, O, I")
        # C_n u C_n j is closed only when -1 = j^2 lies in C_n, i.e. n even.
        if self.kind == "D" and self.order % 4 != 0:
            raise ValueError("binary dihedral order must be a multiple of 4")
        if self.kind in _POLYHEDRAL_ORDERS and \
                self.order != _POLYHEDRAL_ORDERS[self.kind]:
            raise ValueError("T*, O* and I* have orders 24, 48 and 120")

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
        return [_circle(k, order, False) for k in range(order)]
    if kind == "D":
        n = order // 2
        rotations = [_circle(k, n, False) for k in range(n)]
        return rotations + [_circle(k, n, True) for k in range(n)]
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
        # +-1, +-i, +-j, +-k lead T*, in the order the coset data follow
        return _tetrahedral_elements()[:8]
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


def _g(left, lk, right, rk, gens=()):
    return GoursatData(left, lk, right, rk, tuple(gens))


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
                          [(_z(6 * sp.m), OMEGA)]),
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
                          [(_z(4 * sp.m), SIGMA)]),
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
                          [(CIRCLE_J, SIGMA)]),
    label="(D*4m/C2m, O*/T*)"))

_register(Family(
    "17", ("m",), True,
    lambda sp: 96 * sp.m,
    goursat=lambda sp: _g(binary_dihedral(8 * sp.m), binary_dihedral(4 * sp.m),
                          BINARY_OCTAHEDRAL, BINARY_TETRAHEDRAL,
                          [(_z(4 * sp.m), SIGMA)]),
    label="(D*8m/D*4m, O*/T*)"))

_register(Family(
    "18", ("m",), True,
    lambda sp: 48 * sp.m,
    goursat=lambda sp: _g(binary_dihedral(12 * sp.m), cyclic(2 * sp.m),
                          BINARY_OCTAHEDRAL, binary_dihedral(8),
                          [(_z(6 * sp.m), OMEGA), (CIRCLE_J, SIGMA)]),
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
if set(FAMILY_ORDER) != set(FAMILIES):
    raise ValueError("FAMILY_ORDER must list exactly the registered families")

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

def _ext_gcd(a, b):
    """(g, u, v) with u*a + v*b = g = gcd(a, b)."""
    u, v, u1, v1 = 1, 0, 0, 1
    while b:
        quo = a // b
        a, b, u, v, u1, v1 = b, a - quo * b, u1, v1, u - quo * u1, v - quo * v1
    return (a, u, v) if a >= 0 else (-a, -u, -v)


def _hnf(vectors, grid: int):
    """Hermite normal form (h11, h12, h22) of the lattice spanned by the
    integer vectors and grid*Z^2: the basis (h11, h12), (0, h22), h11 and
    h22 dividing grid, 0 <= h12 < h22 (H. Cohen, A Course in Computational
    Algebraic Number Theory, 1993, section 2.4.2).  Each vector (x, y)
    meets the first row through the unimodular ((s, t), (-x/g, h11/g)),
    s*h11 + t*x = g."""
    h11, h12, h22 = grid, 0, grid
    for x, y in vectors:
        g, s, t = _ext_gcd(h11, x)
        h22 = math.gcd(h22, (h11 * y - x * h12) // g)
        h11, h12 = g, (s * h12 + t * y) % h22
    return h11, h12, h22


@dataclass(frozen=True)
class RotationLattice:
    """A group with two circle-type factors, as integer lattice data.

    Its rotation pairs (a, b), both factors plain rotations by a/grid and
    b/grid, form a lattice Lambda of Z^2 that contains grid*Z^2, kept as
    its Hermite normal form (see _hnf).  Each flag class (left jflag, right
    jflag) is one coset x_f + Lambda, as a rotation keeps the flags of what
    it multiplies; `offsets` holds one reduced (jl, jr, a, b) per class
    (see reduce), the rotation class (False, False, 0, 0) first.
    """

    h11: int
    h12: int
    h22: int
    offsets: tuple

    def reduce(self, a: int, b: int):
        """The representative of (a, b) + Lambda with 0 <= a < h11,
        0 <= b < h22; it is (0, 0) exactly on Lambda."""
        x = a // self.h11
        return a - x * self.h11, (b - x * self.h12) % self.h22

    def points(self, grid: int):
        """Lambda modulo grid, as (a, b) pairs with 0 <= a, b < grid."""
        h11, h12, h22 = self.h11, self.h12, self.h22
        return [(x * h11, b) for x in range(grid // h11)
                for b in range(x * h12 % h22, grid, h22)]


@dataclass(frozen=True)
class CosetGluing:
    """A group with a T*, O* or I* right factor, as Goursat coset data:
    the cosets r*R_K (`right_cosets`, tuples of quaternions) and, one per
    right coset in `offsets`, the reduced offset (jflag, a) of the coset
    of L_K glued to it, (jflag, a + (grid/period)*Z) with period the angle
    period of L_K, joined by the other jflag when L_K is binary dihedral."""

    period: int
    dihedral: bool
    offsets: tuple
    right_cosets: tuple

    def parts(self):
        """(jflag, a, right coset) per left progression."""
        for (jl, a), coset in zip(self.offsets, self.right_cosets):
            for jflag in (False, True) if self.dihedral else (jl,):
                yield jflag, a, coset

    def rows(self, grid: int):
        """Every pair as a row (left jflag, left angle, r)."""
        return [(jflag, x, r) for jflag, a, coset in self.parts()
                for x in range(a, grid, grid // self.period) for r in coset]


@dataclass
class PairGroup:
    """A built group, one integer row per pair (l, r) on demand.

    Circle angles are numerators over `grid`.  With a circle-type right
    factor the group is `lattice`, and a row is (left jflag, right jflag,
    left angle, right angle); with a T*, O* or I* right factor the group
    is `gluing`, and a row is (left jflag, left angle, r).  `rows` and
    `elements` are views built on first access; `order` builds neither.
    """

    spec: FamilySpec
    grid: int
    left: StandardGroupId
    left_kernel: StandardGroupId
    right: StandardGroupId
    right_kernel: StandardGroupId
    lattice: Optional[RotationLattice] = None
    gluing: Optional[CosetGluing] = None

    @property
    def order(self) -> int:
        lat, glue = self.lattice, self.gluing
        if lat is None:
            return (sum(map(len, glue.right_cosets)) * glue.period
                    * (1 + glue.dihedral))
        return self.grid ** 2 // (lat.h11 * lat.h22) * len(lat.offsets)

    @cached_property
    def rows(self) -> list:
        """Every pair as an integer row, built on first access."""
        if self.lattice is None:
            return self.gluing.rows(self.grid)
        grid, points = self.grid, self.lattice.points(self.grid)
        return [(jl, jr, (a + x) % grid, (b + y) % grid)
                for jl, jr, a, b in self.lattice.offsets for x, y in points]

    @cached_property
    def elements(self) -> list[PairElement]:
        """The rows as explicit pairs, built on first access."""
        grid = self.grid
        if self.lattice is None:
            return [PairElement(_circle(a, grid, jl), r) for jl, a, r in self.rows]
        return [PairElement(_circle(a, grid, jl), _circle(b, grid, jr))
                for jl, jr, a, b in self.rows]


def phi_order(group: PairGroup) -> int:
    """Order of the rotation group; the pair kernel is {(1,1), (-1,-1)}."""
    _require(group.order % 2 == 0, "pair group has odd order")
    return group.order // 2


@dataclass(frozen=True)
class _Quotient:
    """A factor R of a Goursat 5-tuple with its kernel K, as coset data."""

    coset_of: Callable   # element of R -> index of its coset l*K
    cosets: tuple        # index -> members of the coset
    table: tuple         # table[a][b] = index of the coset product a*b
    identity: int        # index of the kernel itself
    minus_one: int       # index of the coset of -1


def _circle_period(group_id: StandardGroupId) -> int:
    """Least common denominator of the angles of a C or D* group."""
    return group_id.order if group_id.kind == "C" else group_id.order // 2


def _check_circle_factor(group: StandardGroupId, kernel: StandardGroupId):
    """The period of a C or D* factor: even, so that -1 lies in it, and a
    multiple of its kernel's, whose j-type elements it must have."""
    period, k = _circle_period(group), _circle_period(kernel)
    if period % k or (kernel.kind == "D" and group.kind != "D"):
        raise InternalInconsistencyError(f"{kernel} is not contained in {group}")
    if period % 2:
        raise InternalInconsistencyError(f"-1 is not in {group}")
    return period


def _on_circle_grid(element, group: StandardGroupId, grid: int):
    """(jflag, angle numerator over grid) of a circle element of group."""
    num, den, jflag = element._key
    if _circle_period(group) % den or (jflag and group.kind != "D"):
        raise InternalInconsistencyError(f"{element} is not in {group}")
    return jflag, num * (grid // den)


def _circle_times(x, y, grid: int):
    """Product of (jflag, angle) parts over grid, by the rule of
    CircleJElement.multiply: j*e^(2 pi i b) = e^(-2 pi i b)*j, j*j = -1."""
    (xj, a), (yj, b) = x, y
    if not xj:
        return yj, (a + b) % grid
    return not yj, (a - b + (grid // 2 if yj else 0)) % grid


# (right, right_kernel) -> _Quotient for the binary polyhedral right
# factors, filled on first use.  They do not depend on the family
# parameters, and a Q(sqrt2, sqrt5) product costs about a millisecond, so
# each is built once per process: the catalog has six keys.
_FIXED_FACTORS: dict = {}


def _polyhedral_quotient(group_id: StandardGroupId,
                         kernel_id: StandardGroupId) -> _Quotient:
    """Coset data of a T*, O* or I* factor, from its elements in
    quaternion coordinates; each coset is the tuple (l*k for k in K)."""
    key = (group_id, kernel_id)
    quotient = _FIXED_FACTORS.get(key)
    if quotient is not None:
        return quotient
    elements = algebraic_group(group_id)
    kernel = elements if kernel_id == group_id else algebraic_group(kernel_id)
    members = set(elements)
    _require(all(k in members for k in kernel),
             f"{kernel_id} is not contained in {group_id}")
    index = {}
    cosets = []
    for el in elements:
        if el in index:
            continue
        coset = tuple(multiply(el, k) for k in kernel)
        for x in coset:
            index[x] = len(cosets)
        cosets.append(coset)
    _require(len(index) == len(elements), "kernel is not a subgroup of the group")
    identity = quat_rational(1, 0, 0, 0)
    _require(identity in index, "element list lacks the identity")
    reps = [coset[0] for coset in cosets]
    table = tuple(tuple(index[multiply(a, b)] for b in reps) for a in reps)

    def coset_of(element):
        _require(element in index, f"{element} is not in {group_id}")
        return index[element]

    quotient = _FIXED_FACTORS[key] = _Quotient(
        coset_of, tuple(cosets), table, index[identity],
        index[element_negate(identity)])
    return quotient


def _circle_lattice(data: GoursatData, grid: int) -> RotationLattice:
    """The group generated by L_K x 1, 1 x R_K and the generator pairs of
    phi, as lattice data.  Walking the flag classes from the rotation
    class, each product t*s of a class representative t and a generator s
    opens a class or gives the rotation pair t*s*rep(t*s)^-1; by
    Schreier's lemma those pairs span Lambda.  The closure is the Goursat
    group exactly when its kernels are L_K and R_K and its order is
    |L|*|R_K| (checked by the caller): a larger right kernel means the
    images do not extend to a homomorphism, a larger left one that phi is
    not injective."""
    for group, kernel in ((data.left, data.left_kernel),
                          (data.right, data.right_kernel)):
        _check_circle_factor(group, kernel)
    one = (False, 0)

    def kernel_gens(kernel):
        rotation = (False, grid // _circle_period(kernel))
        return (rotation, (True, 0)) if kernel.kind == "D" else (rotation,)

    gens = [(x, one) for x in kernel_gens(data.left_kernel)]
    gens += [(one, y) for y in kernel_gens(data.right_kernel)]
    gens += [(_on_circle_grid(l, data.left, grid), _on_circle_grid(r, data.right, grid))
             for l, r in data.phi_generators]

    reps = {(False, False): (0, 0)}
    flags = [(False, False)]
    vectors = []
    for jl, jr in flags:          # grows while it is walked
        a, b = reps[jl, jr]
        for x, y in gens:
            (kl, c), (kr, d) = (_circle_times((jl, a), x, grid),
                                _circle_times((jr, b), y, grid))
            if (kl, kr) not in reps:
                flags.append((kl, kr))
            # t*s*rep(t*s)^-1 has the angles of t*s minus those of the rep
            rep = reps.setdefault((kl, kr), (c, d))
            vectors.append((c - rep[0], d - rep[1]))
    h11, h12, h22 = _hnf(vectors, grid)
    lattice = RotationLattice(h11, h12, h22, ())
    offsets = tuple((jl, jr) + lattice.reduce(*reps[jl, jr]) for jl, jr in flags)
    lattice = RotationLattice(h11, h12, h22, offsets)
    _require(lattice.reduce(grid // 2, grid // 2) == (0, 0),
             "(-1, -1) must belong to every catalog group")

    # (1, r) for rotations r: b in h22*Z; (l, 1): a in h11*h22/gcd(h12, h22)*Z.
    # A j-type class adds a kernel coset when its a (resp. b) can reach 0.
    g = math.gcd(h12, h22)
    right_kernel = grid // h22 * (1 + any(
        not jl and jr and a == 0 for jl, jr, a, _ in offsets))
    left_kernel = grid // (h11 * (h22 // g)) * (1 + any(
        jl and not jr and b % g == 0 for jl, jr, _, b in offsets))
    _require(right_kernel == data.right_kernel.order,
             "generator images do not extend to a homomorphism")
    _require(left_kernel == data.left_kernel.order,
             "gluing isomorphism is not injective")
    return lattice


def _coset_gluing(data: GoursatData, grid: int) -> CosetGluing:
    """The coset of L_K glued to each right coset of R_K, for a T*, O* or
    I* right factor.  Walking the right cosets from R_K, the product c*s
    of a coset c and a generator pair (l, s) is glued to t*l for the
    offset t of c, so the gluing is multiplicative along every generator
    edge, a homomorphism from R/R_K.  It inverts phi once it reaches
    every right coset and glues no left coset twice (the quotients have
    equal orders, checked by the caller)."""
    _check_circle_factor(data.left, data.left_kernel)
    right = _polyhedral_quotient(data.right, data.right_kernel)
    period = _circle_period(data.left_kernel)
    dihedral = data.left_kernel.kind == "D"

    def reduced(jflag, a):
        # the offset of the coset of L_K through (jflag, a); grid/2 is a
        # multiple of the step, so a binary dihedral L_K joins the jflags
        return not dihedral and jflag, a % (grid // period)

    gens = [(_on_circle_grid(l, data.left, grid), right.coset_of(r))
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
    return CosetGluing(period, dihedral,
                       tuple(offsets[c] for c in range(len(offsets))), right.cosets)


def goursat_group(spec: FamilySpec) -> PairGroup:
    """The group {(l, r) : phi(l L_K) = r R_K}, as lattice data when both
    factors are circle-type and as coset data otherwise."""
    fam = get_family(spec.family)
    if not fam.fibered or fam.goursat is None:
        raise UnsupportedFamilyError(
            f"family {spec.family} preserves no fibration and is not built")
    violations, _ = validate(spec)
    if violations:
        raise ValueError(f"invalid {spec}: " + "; ".join(violations))

    data = fam.goursat(spec)
    _require(data.left.order * data.right_kernel.order
             == data.right.order * data.left_kernel.order,
             "quotients have different orders")
    polyhedral = data.right.kind in "TOI"
    grid = math.lcm(4, _circle_period(data.left),
                    1 if polyhedral else _circle_period(data.right))
    group = PairGroup(spec, grid, data.left, data.left_kernel, data.right,
                      data.right_kernel)
    if polyhedral:
        group.gluing = _coset_gluing(data, grid)
    else:
        group.lattice = _circle_lattice(data, grid)
    if group.order != data.left.order * data.right_kernel.order:
        raise InternalInconsistencyError(
            f"{spec} has {group.order} elements, not |L| * |R_K|")
    return group


# ---------------------------------------------------------------------------
# enumeration below an order bound
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EnumeratedSpec:
    spec: FamilySpec
    phi_order: int
    fibered: bool


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

    if fam.params != ("m", "n", "r", "s"):
        raise ValueError("family parameters must be (), (m,), (m, n) or (m, n, r, s)")
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
            rows.append(EnumeratedSpec(sp, fam.phi_order(sp), fam.fibered))
    return rows
