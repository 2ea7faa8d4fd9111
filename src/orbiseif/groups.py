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
here and all downstream invariants are insensitive to it.  Each family
declares which parameters must be odd, even or above one (a family with
the signature (m, n, r, s) also needs gcd(s, r) = 1); `validate` words
its violations from these declarations, and `enumerate_specs` reads the
same declarations to start each parameter at its least allowed value and
step it over the allowed parity, so it produces only valid specs.

When both factors are cyclic or binary dihedral, the group is kept as
a lattice (RotationLattice): its rotation pairs, as integer angle pairs,
in Hermite normal form, and one coset of it per class of j-flags, all
from the catalog generators closed by Schreier generators.  With a T*,
O* or I* right factor it is kept as coset data (CosetGluing): one left
progression of integer angles per right coset of R_K, found by walking
the right cosets along the generators.  The right cosets are built from
the elements once per process, keyed by (right, right kernel), since
they do not depend on the family parameters.  A circle element
e^(2 pi i num/den), times j when jflag is set, is the integer triple
(jflag, num, den) in the catalog and (jflag, numerator over a common
grid) in a built group (see PairGroup).  A built group is its lattice or
its coset data and nothing else: it lists no pairs.
Self-checks raise InternalInconsistencyError, so python -O keeps them.
"""

from __future__ import annotations

import math
from functools import cache

from .exactfield import (QF_HALF, QF_HALF_SQRT2, QF_HALF_TAU, QF_HALF_TAU_INV,
                         QuadFieldElement)
from .quaternions import AlgebraicQuaternion, element_negate, multiply, quat_rational
from .record import Record


class InternalInconsistencyError(ArithmeticError):
    """A self-check failed: a derived quantity is not integral, or a built
    group or quotient is not what its construction promises."""


def _require(condition: bool, message: str, *args) -> None:
    """Self-check that, unlike assert, survives python -O.  With `args`
    the message is `message.format(*args)`, built only when the check
    fails."""
    if not condition:
        raise InternalInconsistencyError(message.format(*args) if args else message)


# ---------------------------------------------------------------------------
# standard subgroups of S^3
# ---------------------------------------------------------------------------

_POLYHEDRAL_ORDERS = {"T": 24, "O": 48, "I": 120}


class StandardGroupId(Record):
    """C = cyclic, D = binary dihedral, T/O/I = binary polyhedral."""

    __slots__ = ("kind", "order")

    def __init__(self, kind: str, order: int):
        if kind not in ("C", "D", "T", "O", "I"):
            raise ValueError("group kind must be one of C, D, T, O, I")
        # C_n u C_n j is closed only when -1 = j^2 lies in C_n, i.e. n even.
        if kind == "D" and order % 4 != 0:
            raise ValueError("binary dihedral order must be a multiple of 4")
        if kind in _POLYHEDRAL_ORDERS and order != _POLYHEDRAL_ORDERS[kind]:
            raise ValueError("T*, O* and I* have orders 24, 48 and 120")
        self.kind, self.order = kind, order

    def __str__(self):
        if self.kind == "C":
            return f"C{self.order}"
        if self.kind == "D":
            return f"D*{self.order}"
        return {"T": "T*", "O": "O*", "I": "I*"}[self.kind]


# One shared id per argument: catalog constants, bounded by the distinct
# orders a process builds, like the keys of _polyhedral_quotient.  An id
# is checked when it is first built, and a malformed one is not cached,
# so it raises on every call.
@cache
def cyclic(n: int) -> StandardGroupId:
    return StandardGroupId("C", n)


@cache
def binary_dihedral(order: int) -> StandardGroupId:
    return StandardGroupId("D", order)


BINARY_TETRAHEDRAL = StandardGroupId("T", 24)
BINARY_OCTAHEDRAL = StandardGroupId("O", 48)
BINARY_ICOSAHEDRAL = StandardGroupId("I", 120)

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


def standard_group(group_id: StandardGroupId) -> list[AlgebraicQuaternion]:
    """Exact element list of T*, O* or I*, a fresh list on every call.
    Cyclic and binary dihedral groups are never listed: their elements
    are integer angle data."""
    if group_id.kind not in _POLYHEDRAL_ORDERS:
        raise ValueError(f"standard_group lists T*, O* and I* only, not {group_id}")
    return list(_polyhedral_elements(group_id.kind))


def algebraic_group(group_id: StandardGroupId) -> list[AlgebraicQuaternion]:
    """Element list in quaternion coordinates: T*, O* or I*, or D*8, the
    one binary dihedral right kernel in the catalog (families 6 and 18).
    """
    kind, order = group_id.kind, group_id.order
    if kind in "TOI":
        return standard_group(group_id)
    if kind == "D" and order == 8:
        # +-1, +-i, +-j, +-k lead T*, in the order the coset data follow
        return standard_group(BINARY_TETRAHEDRAL)[:8]
    raise ValueError(f"no algebraic representation wired for {group_id}")


# ---------------------------------------------------------------------------
# family specifications
# ---------------------------------------------------------------------------

class FamilySpec(Record):
    __slots__ = ("family", "m", "n", "r", "s")

    def __init__(self, family: str, m: int | None = None, n: int | None = None,
                 r: int | None = None, s: int | None = None):
        self.family = family
        self.m = m
        self.n = n
        self.r = r
        self.s = s

    def params(self) -> dict:
        return {k: v for k, v in (("m", self.m), ("n", self.n),
                                  ("r", self.r), ("s", self.s)) if v is not None}

    def __str__(self):
        inner = ",".join(f"{k}={v}" for k, v in self.params().items())
        return f"{self.family}({inner})"


class GoursatData(Record):
    __slots__ = ("left", "left_kernel", "right", "right_kernel", "phi_generators")

    def __init__(self, left: StandardGroupId, left_kernel: StandardGroupId,
                 right: StandardGroupId, right_kernel: StandardGroupId,
                 phi_generators: tuple = ()):
        self.left, self.left_kernel = left, left_kernel
        self.right, self.right_kernel = right, right_kernel
        # generator coset images pinning phi; the identity coset maps to the
        # identity coset and the rest follows by multiplicativity
        self.phi_generators = phi_generators


class Family(Record):
    """One catalog family and the declared constraints on its parameters.

    `params` is (), (m,), (m, n) or (m, n, r, s).  Every parameter is a
    positive integer; those named in `odd` must be odd, those in `even`
    even and those in `above_one` at least 2, each tuple listing
    parameters other than s in signature order.  The signature
    (m, n, r, s) also requires gcd(s, r) = 1.  `phi_order` increases in
    each parameter and does not depend on s.  Exactly the fibered families
    have a `goursat` builder, and `fibered` says whether it has one.
    """

    __slots__ = ("name", "params", "phi_order", "goursat", "label", "odd",
                 "even", "above_one", "fibered")

    def __init__(self, name: str, params: tuple, phi_order, goursat=None,
                 label: str = "", odd: tuple = (), even: tuple = (),
                 above_one: tuple = ()):
        self.name, self.params, self.phi_order = name, params, phi_order
        self.goursat, self.label = goursat, label
        self.odd, self.even, self.above_one = odd, even, above_one
        self.fibered = goursat is not None

    def start(self, p: str) -> int:
        """Least allowed value of parameter p."""
        if p in self.above_one:
            return 3 if p in self.odd else 2
        return 2 if p in self.even else 1

    def step(self, p: str) -> int:
        """Distance between consecutive allowed values of parameter p."""
        return 2 if p in self.odd or p in self.even else 1


# the signature whose last parameter s runs over the units mod r
_WITH_UNITS = ("m", "n", "r", "s")


def _g(left, lk, right, rk, gens=()):
    return GoursatData(left, lk, right, rk, tuple(gens))


def _z(k, power=1):
    """e^(2*pi*i*power/k) as the circle triple (jflag, num, den)."""
    return False, power, k


CIRCLE_J = (True, 0, 1)


# registered in catalog order, which FAMILY_ORDER and enumeration follow
FAMILIES: dict[str, Family] = {}


def _register(fam: Family):
    FAMILIES[fam.name] = fam


_register(Family(
    "1", ("m", "n", "r", "s"),
    lambda sp: 2 * sp.m * sp.n * sp.r,
    lambda sp: _g(cyclic(2 * sp.m * sp.r), cyclic(2 * sp.m),
                  cyclic(2 * sp.n * sp.r), cyclic(2 * sp.n),
                  [(_z(2 * sp.m * sp.r), _z(2 * sp.n * sp.r, sp.s))]),
    "(C2mr/C2m, C2nr/C2n)_s"))

_register(Family(
    "1p", ("m", "n", "r", "s"),
    lambda sp: sp.m * sp.n * sp.r // 2,
    lambda sp: _g(cyclic(sp.m * sp.r), cyclic(sp.m),
                  cyclic(sp.n * sp.r), cyclic(sp.n),
                  [(_z(sp.m * sp.r), _z(sp.n * sp.r, sp.s))]),
    "(Cmr/Cm, Cnr/Cn)_s", odd=("m", "n"), even=("r",)))

_register(Family(
    "2", ("m", "n"),
    lambda sp: 4 * sp.m * sp.n,
    goursat=lambda sp: _g(cyclic(2 * sp.m), cyclic(2 * sp.m),
                          binary_dihedral(4 * sp.n), binary_dihedral(4 * sp.n)),
    label="(C2m/C2m, D*4n/D*4n)"))

_register(Family(
    "3", ("m", "n"),
    lambda sp: 4 * sp.m * sp.n,
    goursat=lambda sp: _g(cyclic(4 * sp.m), cyclic(2 * sp.m),
                          binary_dihedral(4 * sp.n), cyclic(2 * sp.n),
                          [(_z(4 * sp.m), CIRCLE_J)]),
    label="(C4m/C2m, D*4n/C2n)"))

_register(Family(
    "4", ("m", "n"),
    lambda sp: 8 * sp.m * sp.n,
    goursat=lambda sp: _g(cyclic(4 * sp.m), cyclic(2 * sp.m),
                          binary_dihedral(8 * sp.n), binary_dihedral(4 * sp.n),
                          [(_z(4 * sp.m), _z(4 * sp.n))]),
    label="(C4m/C2m, D*8n/D*4n)"))

_register(Family(
    "5", ("m",),
    lambda sp: 24 * sp.m,
    goursat=lambda sp: _g(cyclic(2 * sp.m), cyclic(2 * sp.m),
                          BINARY_TETRAHEDRAL, BINARY_TETRAHEDRAL),
    label="(C2m/C2m, T*/T*)"))

_register(Family(
    "6", ("m",),
    lambda sp: 24 * sp.m,
    goursat=lambda sp: _g(cyclic(6 * sp.m), cyclic(2 * sp.m),
                          BINARY_TETRAHEDRAL, binary_dihedral(8),
                          [(_z(6 * sp.m), OMEGA)]),
    label="(C6m/C2m, T*/D*8)"))

_register(Family(
    "7", ("m",),
    lambda sp: 48 * sp.m,
    goursat=lambda sp: _g(cyclic(2 * sp.m), cyclic(2 * sp.m),
                          BINARY_OCTAHEDRAL, BINARY_OCTAHEDRAL),
    label="(C2m/C2m, O*/O*)"))

_register(Family(
    "8", ("m",),
    lambda sp: 48 * sp.m,
    goursat=lambda sp: _g(cyclic(4 * sp.m), cyclic(2 * sp.m),
                          BINARY_OCTAHEDRAL, BINARY_TETRAHEDRAL,
                          [(_z(4 * sp.m), SIGMA)]),
    label="(C4m/C2m, O*/T*)"))

_register(Family(
    "9", ("m",),
    lambda sp: 120 * sp.m,
    goursat=lambda sp: _g(cyclic(2 * sp.m), cyclic(2 * sp.m),
                          BINARY_ICOSAHEDRAL, BINARY_ICOSAHEDRAL),
    label="(C2m/C2m, I*/I*)"))

_register(Family(
    "10", ("m", "n"),
    lambda sp: 8 * sp.m * sp.n,
    goursat=lambda sp: _g(binary_dihedral(4 * sp.m), binary_dihedral(4 * sp.m),
                          binary_dihedral(4 * sp.n), binary_dihedral(4 * sp.n)),
    label="(D*4m/D*4m, D*4n/D*4n)"))

_register(Family(
    "11", ("m", "n", "r", "s"),
    lambda sp: 4 * sp.m * sp.n * sp.r,
    lambda sp: _g(binary_dihedral(4 * sp.m * sp.r), cyclic(2 * sp.m),
                  binary_dihedral(4 * sp.n * sp.r), cyclic(2 * sp.n),
                  [(_z(2 * sp.m * sp.r), _z(2 * sp.n * sp.r, sp.s)),
                   (CIRCLE_J, CIRCLE_J)]),
    "(D*4mr/C2m, D*4nr/C2n)_s"))

_register(Family(
    "11p", ("m", "n", "r", "s"),
    lambda sp: sp.m * sp.n * sp.r,
    lambda sp: _g(binary_dihedral(2 * sp.m * sp.r), cyclic(sp.m),
                  binary_dihedral(2 * sp.n * sp.r), cyclic(sp.n),
                  [(_z(sp.m * sp.r), _z(sp.n * sp.r, sp.s)),
                   (CIRCLE_J, CIRCLE_J)]),
    "(D*2mr/Cm, D*2nr/Cn)_s", odd=("m", "n"), even=("r",)))

_register(Family(
    "12", ("m", "n"),
    lambda sp: 16 * sp.m * sp.n,
    goursat=lambda sp: _g(binary_dihedral(8 * sp.m), binary_dihedral(4 * sp.m),
                          binary_dihedral(8 * sp.n), binary_dihedral(4 * sp.n),
                          [(_z(4 * sp.m), _z(4 * sp.n))]),
    label="(D*8m/D*4m, D*8n/D*4n)"))

_register(Family(
    "13", ("m", "n"),
    lambda sp: 8 * sp.m * sp.n,
    goursat=lambda sp: _g(binary_dihedral(8 * sp.m), binary_dihedral(4 * sp.m),
                          binary_dihedral(4 * sp.n), cyclic(2 * sp.n),
                          [(_z(4 * sp.m), CIRCLE_J)]),
    label="(D*8m/D*4m, D*4n/C2n)"))

_register(Family(
    "14", ("m",),
    lambda sp: 48 * sp.m,
    goursat=lambda sp: _g(binary_dihedral(4 * sp.m), binary_dihedral(4 * sp.m),
                          BINARY_TETRAHEDRAL, BINARY_TETRAHEDRAL),
    label="(D*4m/D*4m, T*/T*)"))

_register(Family(
    "15", ("m",),
    lambda sp: 96 * sp.m,
    goursat=lambda sp: _g(binary_dihedral(4 * sp.m), binary_dihedral(4 * sp.m),
                          BINARY_OCTAHEDRAL, BINARY_OCTAHEDRAL),
    label="(D*4m/D*4m, O*/O*)"))

_register(Family(
    "16", ("m",),
    lambda sp: 48 * sp.m,
    goursat=lambda sp: _g(binary_dihedral(4 * sp.m), cyclic(2 * sp.m),
                          BINARY_OCTAHEDRAL, BINARY_TETRAHEDRAL,
                          [(CIRCLE_J, SIGMA)]),
    label="(D*4m/C2m, O*/T*)"))

_register(Family(
    "17", ("m",),
    lambda sp: 96 * sp.m,
    goursat=lambda sp: _g(binary_dihedral(8 * sp.m), binary_dihedral(4 * sp.m),
                          BINARY_OCTAHEDRAL, BINARY_TETRAHEDRAL,
                          [(_z(4 * sp.m), SIGMA)]),
    label="(D*8m/D*4m, O*/T*)"))

_register(Family(
    "18", ("m",),
    lambda sp: 48 * sp.m,
    goursat=lambda sp: _g(binary_dihedral(12 * sp.m), cyclic(2 * sp.m),
                          BINARY_OCTAHEDRAL, binary_dihedral(8),
                          [(_z(6 * sp.m), OMEGA), (CIRCLE_J, SIGMA)]),
    label="(D*12m/C2m, O*/D*8)"))

_register(Family(
    "19", ("m",),
    lambda sp: 240 * sp.m,
    goursat=lambda sp: _g(binary_dihedral(4 * sp.m), binary_dihedral(4 * sp.m),
                          BINARY_ICOSAHEDRAL, BINARY_ICOSAHEDRAL),
    label="(D*4m/D*4m, I*/I*)"))

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
    _register(Family(_name, (), lambda sp, o=_order: o, label=_label))

_register(Family(
    "33", ("m", "n"),
    lambda sp: 8 * sp.m * sp.n,
    # the exceptional gluing swaps the rotation coset and the j coset
    lambda sp: _g(binary_dihedral(8 * sp.m), cyclic(2 * sp.m),
                  binary_dihedral(8 * sp.n), cyclic(2 * sp.n),
                  [(_z(4 * sp.m), CIRCLE_J), (CIRCLE_J, _z(4 * sp.n))]),
    "(D*8m/C2m, D*8n/C2n)_f", above_one=("m", "n")))

_register(Family(
    "33p", ("m", "n"),
    lambda sp: 4 * sp.m * sp.n,
    lambda sp: _g(binary_dihedral(8 * sp.m), cyclic(sp.m),
                  binary_dihedral(8 * sp.n), cyclic(sp.n),
                  [(_z(4 * sp.m), CIRCLE_J), (CIRCLE_J, _z(4 * sp.n))]),
    "(D*8m/Cm, D*8n/Cn)_f", odd=("m", "n"), above_one=("m", "n")))

_register(Family(
    "34", ("m", "n"),
    lambda sp: 2 * sp.m * sp.n,
    lambda sp: _g(cyclic(4 * sp.m), cyclic(sp.m),
                  binary_dihedral(4 * sp.n), cyclic(sp.n),
                  [(_z(4 * sp.m), CIRCLE_J)]),
    "(C4m/Cm, D*4n/Cn)", odd=("m", "n")))

_register(Family(
    "2bis", ("m", "n"),
    lambda sp: 4 * sp.m * sp.n,
    goursat=lambda sp: _g(binary_dihedral(4 * sp.m), binary_dihedral(4 * sp.m),
                          cyclic(2 * sp.n), cyclic(2 * sp.n)),
    label="(D*4m/D*4m, C2n/C2n)"))

_register(Family(
    "3bis", ("m", "n"),
    lambda sp: 4 * sp.m * sp.n,
    goursat=lambda sp: _g(binary_dihedral(4 * sp.m), cyclic(2 * sp.m),
                          cyclic(4 * sp.n), cyclic(2 * sp.n),
                          [(CIRCLE_J, _z(4 * sp.n))]),
    label="(D*4m/C2m, C4n/C2n)"))

_register(Family(
    "4bis", ("m", "n"),
    lambda sp: 8 * sp.m * sp.n,
    goursat=lambda sp: _g(binary_dihedral(8 * sp.m), binary_dihedral(4 * sp.m),
                          cyclic(4 * sp.n), cyclic(2 * sp.n),
                          [(_z(4 * sp.m), _z(4 * sp.n))]),
    label="(D*8m/D*4m, C4n/C2n)"))

_register(Family(
    "13bis", ("m", "n"),
    lambda sp: 8 * sp.m * sp.n,
    goursat=lambda sp: _g(binary_dihedral(4 * sp.m), cyclic(2 * sp.m),
                          binary_dihedral(8 * sp.n), binary_dihedral(4 * sp.n),
                          [(CIRCLE_J, _z(4 * sp.n))]),
    label="(D*4m/C2m, D*8n/D*4n)"))

_register(Family(
    "34bis", ("m", "n"),
    lambda sp: 2 * sp.m * sp.n,
    lambda sp: _g(binary_dihedral(4 * sp.m), cyclic(sp.m),
                  cyclic(4 * sp.n), cyclic(sp.n),
                  [(CIRCLE_J, _z(4 * sp.n))]),
    "(D*4m/Cm, C4n/Cn)", odd=("m", "n")))

FAMILY_ORDER = list(FAMILIES)

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
    violations = _violations(spec, get_family(spec.family))
    if violations or spec.family not in ("1", "11") or spec.s % 2:
        return violations, []
    return violations, [f"s={spec.s} is even; the conjugate representative "
                        f"s={spec.r - spec.s} is used in closed forms"]


def _violations(spec: FamilySpec, fam: Family) -> list:
    """The violations of `validate`, for the family `fam` of the spec."""
    values = (spec.m, spec.n, spec.r, spec.s)
    # every signature is a prefix of _WITH_UNITS, so one pass in that
    # order lists the missing or nonpositive parameters before the extras
    declared = len(fam.params)
    violations: list[str] = []
    for i, v in enumerate(values):
        if i >= declared:
            if v is not None:
                violations.append(f"family {spec.family} does not take "
                                  f"parameter {_WITH_UNITS[i]}")
        elif v is None:
            violations.append(f"family {spec.family} requires parameter "
                              f"{_WITH_UNITS[i]}")
        elif v < 1:
            violations.append(f"parameter {_WITH_UNITS[i]} must be a positive integer")
    if violations:
        return violations
    if declared == 4 and math.gcd(spec.s, spec.r) != 1:
        violations.append("gcd(s,r)=1 fails")
    if declared == 4 and spec.s >= max(spec.r, 2):    # the catalog's range
        violations.append(f"s must lie in 1..{max(spec.r - 1, 1)}")
    for p in fam.odd:
        if getattr(spec, p) % 2 == 0:
            violations.append(f"{p} must be odd")
    for p in fam.even:
        if getattr(spec, p) % 2 == 1:
            violations.append(f"{p} must be even")
    for p in fam.above_one:
        if getattr(spec, p) == 1:
            violations.append(f"{p} must differ from 1")
    return violations


def fibered_family(name: str) -> Family:
    """The family of a fibered identifier: an UnsupportedFamilyError for
    an unknown or non-fibered one."""
    fam = get_family(name)
    if not fam.fibered:
        raise UnsupportedFamilyError(f"family {name} preserves no fibration")
    return fam


def require_fibered(spec: FamilySpec) -> Family:
    """The family of a spec the engine and the group builder take: an
    UnsupportedFamilyError for an unknown or non-fibered family, a
    ValueError naming the violations for an invalid spec."""
    fam = fibered_family(spec.family)
    violations = _violations(spec, fam)
    if violations:
        raise ValueError(f"invalid {spec}: " + "; ".join(violations))
    return fam


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


def _hnf_reduce(hnf, a: int, b: int):
    """The representative of (a, b) + Lambda with 0 <= a < h11,
    0 <= b < h22, Lambda the lattice of the normal form `hnf`; it is
    (0, 0) exactly on Lambda."""
    h11, h12, h22 = hnf
    x = a // h11
    return a - x * h11, (b - x * h12) % h22


class RotationLattice(Record):
    """A group with two circle-type factors, as integer lattice data.

    Its rotation pairs (a, b), both factors plain rotations by a/grid and
    b/grid, form a lattice Lambda of Z^2 that contains grid*Z^2, kept as
    its Hermite normal form (see _hnf).  Each flag class (left jflag, right
    jflag) is one coset x_f + Lambda, as a rotation keeps the flags of what
    it multiplies; `offsets` holds one reduced (jl, jr, a, b) per class
    (see _hnf_reduce), the rotation class (False, False, 0, 0) first.
    """

    __slots__ = ("h11", "h12", "h22", "offsets")

    def __init__(self, h11: int, h12: int, h22: int, offsets: tuple):
        self.h11 = h11
        self.h12 = h12
        self.h22 = h22
        self.offsets = offsets


class CosetGluing(Record):
    """A group with a T*, O* or I* right factor, as Goursat coset data:
    the cosets r*R_K (`right_cosets`, tuples of quaternions) and, one per
    right coset in `offsets`, the reduced offset (jflag, a) of the coset
    of L_K glued to it, (jflag, a + (grid/period)*Z) with period the angle
    period of L_K, joined by the other jflag when L_K is binary dihedral."""

    __slots__ = ("period", "dihedral", "offsets", "right_cosets")

    def __init__(self, period: int, dihedral: bool, offsets: tuple,
                 right_cosets: tuple):
        self.period, self.dihedral = period, dihedral
        self.offsets, self.right_cosets = offsets, right_cosets

    def parts(self):
        """(jflag, a, right coset) per left progression."""
        for (jl, a), coset in zip(self.offsets, self.right_cosets):
            for jflag in (False, True) if self.dihedral else (jl,):
                yield jflag, a, coset


class PairGroup(Record):
    """A built group: its factor ids and, on a grid of circle angle
    numerators, its structure.  With a circle-type right factor that is
    `lattice`, with a T*, O* or I* right factor `gluing`; the other is
    None.  `order` is read off that structure, and checked to be even,
    when the group is made.
    """

    __slots__ = ("spec", "grid", "left", "left_kernel", "right", "right_kernel",
                 "lattice", "gluing", "order")
    __hash__ = None

    def __init__(self, spec: FamilySpec, grid: int, left: StandardGroupId,
                 left_kernel: StandardGroupId, right: StandardGroupId,
                 right_kernel: StandardGroupId,
                 lattice: RotationLattice | None = None,
                 gluing: CosetGluing | None = None):
        self.spec, self.grid = spec, grid
        self.left, self.left_kernel = left, left_kernel
        self.right, self.right_kernel = right, right_kernel
        self.lattice, self.gluing = lattice, gluing
        if lattice is None:
            self.order = (sum(map(len, gluing.right_cosets)) * gluing.period
                          * (1 + gluing.dihedral))
        else:
            self.order = grid ** 2 // (lattice.h11 * lattice.h22) * len(lattice.offsets)
        if self.order % 2:
            raise InternalInconsistencyError("pair group has odd order")


def phi_order(group: PairGroup) -> int:
    """Order of the rotation group; the pair kernel is {(1,1), (-1,-1)}."""
    return group.order // 2


class _Quotient(Record):
    """A factor R of a Goursat 5-tuple with its kernel K, as coset data."""

    __slots__ = ("coset_of", "cosets", "table", "identity", "minus_one")

    def __init__(self, coset_of, cosets, table, identity, minus_one):
        self.coset_of = coset_of     # element of R -> index of its coset l*K
        self.cosets = cosets         # index -> members of the coset
        self.table = table           # table[a][b] = index of the coset product a*b
        self.identity = identity     # index of the kernel itself
        self.minus_one = minus_one   # index of the coset of -1


def _circle_period(group_id: StandardGroupId) -> int:
    """Least common denominator of the angles of a C or D* group."""
    return group_id.order if group_id.kind == "C" else group_id.order // 2


def _check_circle_factor(group: StandardGroupId, kernel: StandardGroupId,
                         period: int, kernel_period: int) -> None:
    """A C or D* factor of period `period` over a kernel of period
    `kernel_period`: the period is even, so that -1 lies in the factor,
    and a multiple of its kernel's, whose j-type elements it must have."""
    if period % kernel_period or (kernel.kind == "D" and group.kind != "D"):
        raise InternalInconsistencyError(f"{kernel} is not contained in {group}")
    if period % 2:
        raise InternalInconsistencyError(f"-1 is not in {group}")


def _on_circle_grid(element, group: StandardGroupId, period: int, grid: int):
    """(jflag, angle numerator over grid) of a circle triple of group,
    whose period is `period`."""
    jflag, num, den = element
    if period % den or (jflag and group.kind != "D"):
        raise InternalInconsistencyError(f"{element} is not in {group}")
    return jflag, num * (grid // den)


def _circle_times(x, y, grid: int):
    """Product of (jflag, angle) parts over grid.  A rotation x adds its
    angle and keeps y's flag; as j*e^(2 pi i b) = e^(-2 pi i b)*j, a
    j-type x subtracts b and flips the flag, and as j*j = -1 it adds half
    a turn when y is j-type too."""
    (xj, a), (yj, b) = x, y
    if not xj:
        return yj, (a + b) % grid
    return not yj, (a - b + (grid // 2 if yj else 0)) % grid


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
    elements = algebraic_group(group_id)
    kernel = elements if kernel_id == group_id else algebraic_group(kernel_id)
    members = set(elements)
    _require(all(k in members for k in kernel),
             "{} is not contained in {}", kernel_id, group_id)
    # the coset of an element of K is K, so it is not multiplied out
    index = dict.fromkeys(kernel, 0)
    cosets = [tuple(kernel)]
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
        _require(element in index, "{} is not in {}", element, group_id)
        return index[element]

    return _Quotient(coset_of, tuple(cosets), table, index[identity],
                     index[element_negate(identity)])


def _circle_lattice(data: GoursatData):
    """(grid, lattice data) of the group generated by L_K x 1, 1 x R_K
    and the generator pairs of phi, on grid = lcm(4, period(L),
    period(R)); each of the four factor periods is read once.  A kernel
    rotation keeps every flag class and gives the rotation pair +-(its
    angle) in each, so the rotations of L_K x 1 and 1 x R_K enter Lambda
    once, as (grid/period(L_K), 0) and (0, grid/period(R_K)).  Walking
    the flag classes from the rotation class along the j-type kernel
    generators and the generator pairs, each product t*s of a class
    representative t and a generator s opens a class or gives the
    rotation pair t*s*rep(t*s)^-1; by Schreier's lemma those pairs and
    the kernel rotations span Lambda.  The closure is the Goursat group
    exactly when its kernels are L_K and R_K and its order is |L|*|R_K|
    (checked by the caller): a larger right kernel means the images do
    not extend to a homomorphism, a larger left one that phi is not
    injective."""
    left, right = data.left, data.right
    left_period, right_period = _circle_period(left), _circle_period(right)
    left_k = _circle_period(data.left_kernel)
    right_k = _circle_period(data.right_kernel)
    _check_circle_factor(left, data.left_kernel, left_period, left_k)
    _check_circle_factor(right, data.right_kernel, right_period, right_k)
    grid = math.lcm(4, left_period, right_period)
    one, j = (False, 0), (True, 0)
    gens = [(j, one)] if data.left_kernel.kind == "D" else []
    if data.right_kernel.kind == "D":
        gens.append((one, j))
    gens += [(_on_circle_grid(l, left, left_period, grid),
              _on_circle_grid(r, right, right_period, grid))
             for l, r in data.phi_generators]

    reps = {(False, False): (0, 0)}
    flags = [(False, False)]
    vectors = {(grid // left_k, 0), (0, grid // right_k)}
    for jl, jr in flags:          # grows while it is walked
        a, b = reps[jl, jr]
        for x, y in gens:
            (kl, c), (kr, d) = (_circle_times((jl, a), x, grid),
                                _circle_times((jr, b), y, grid))
            if (kl, kr) not in reps:
                flags.append((kl, kr))
            # t*s*rep(t*s)^-1 has the angles of t*s minus those of the rep
            rep = reps.setdefault((kl, kr), (c, d))
            vectors.add((c - rep[0], d - rep[1]))
    vectors.discard((0, 0))
    hnf = h11, h12, h22 = _hnf(vectors, grid)
    offsets = tuple([(jl, jr) + _hnf_reduce(hnf, *reps[jl, jr]) for jl, jr in flags])
    _require(_hnf_reduce(hnf, grid // 2, grid // 2) == (0, 0),
             "(-1, -1) must belong to every catalog group")

    # (1, r) for rotations r: b in h22*Z; (l, 1): a in h11*h22/gcd(h12, h22)*Z.
    # A j-type class adds a kernel coset when its a (resp. b) can reach 0.
    g = math.gcd(h12, h22)
    right_kernel = grid // h22 * (1 + any([
        not jl and jr and a == 0 for jl, jr, a, _ in offsets]))
    left_kernel = grid // (h11 * (h22 // g)) * (1 + any([
        jl and not jr and b % g == 0 for jl, jr, _, b in offsets]))
    _require(right_kernel == data.right_kernel.order,
             "generator images do not extend to a homomorphism")
    _require(left_kernel == data.left_kernel.order,
             "gluing isomorphism is not injective")
    return grid, RotationLattice(h11, h12, h22, offsets)


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


def goursat_group(spec: FamilySpec) -> PairGroup:
    """The group {(l, r) : phi(l L_K) = r R_K}, as lattice data when both
    factors are circle-type and as coset data otherwise."""
    data = require_fibered(spec).goursat(spec)
    _require(data.left.order * data.right_kernel.order
             == data.right.order * data.left_kernel.order,
             "quotients have different orders")
    lattice = gluing = None
    if data.right.kind in "TOI":
        grid, gluing = _coset_gluing(data)
    else:
        grid, lattice = _circle_lattice(data)
    group = PairGroup(spec, grid, data.left, data.left_kernel, data.right,
                      data.right_kernel, lattice, gluing)
    if group.order != data.left.order * data.right_kernel.order:
        raise InternalInconsistencyError(
            f"{spec} has {group.order} elements, not |L| * |R_K|")
    return group


# ---------------------------------------------------------------------------
# enumeration below an order bound
# ---------------------------------------------------------------------------

class EnumeratedSpec(Record):
    __slots__ = ("spec", "phi_order", "fibered")

    def __init__(self, spec: FamilySpec, phi_order: int, fibered: bool):
        self.spec, self.phi_order, self.fibered = spec, phi_order, fibered


def _family_rows(fam: Family, max_order: int, rows: list) -> None:
    """Append the family's valid specs with rotation order <= max_order.

    The parameters other than s run like an odometer, each from
    fam.start(p) in steps of fam.step(p), and s runs over the units mod r.
    Since phi_order increases in every parameter, a tuple above the bound
    ends the innermost loop, and if the innermost parameter was at its
    start, the loop around it ends too, and so on outwards.
    """
    name, order, fibered = fam.name, fam.phi_order, fam.fibered
    if not fam.params:
        spec = FamilySpec(name)
        k = order(spec)
        if k <= max_order:
            rows.append(EnumeratedSpec(spec, k, fibered))
        return
    units = fam.params == _WITH_UNITS
    names = fam.params[:3] if units else fam.params
    starts = [fam.start(p) for p in names]
    steps = [fam.step(p) for p in names]
    values = starts.copy()
    last = len(values) - 1
    while True:
        spec = FamilySpec(name, *values, 1) if units else FamilySpec(name, *values)
        k = order(spec)
        if k <= max_order:
            rows.append(EnumeratedSpec(spec, k, fibered))
            if units:
                m, n, r = values
                for s in range(2, r):
                    if math.gcd(s, r) == 1:
                        rows.append(EnumeratedSpec(FamilySpec(name, m, n, r, s),
                                                   k, fibered))
            values[last] += steps[last]
            continue
        i = last
        while i >= 0 and values[i] == starts[i]:
            i -= 1
        if i <= 0:
            return
        values[i - 1] += steps[i - 1]
        values[i:] = starts[i:]


def enumerate_specs(max_order: int, families=None) -> list[EnumeratedSpec]:
    """Every valid spec with |Phi(G)| <= max_order, in catalog order."""
    if max_order < 1:
        raise ValueError("order bound must be at least 1")
    names = FAMILY_ORDER if families is None else list(families)
    rows = []
    for name in names:
        _family_rows(get_family(name), max_order, rows)
    return rows
