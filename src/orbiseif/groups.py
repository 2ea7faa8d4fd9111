"""The catalog of finite subgroups of S^3 x S^3: family specs, their
rotation orders and the standard subgroups of S^3 they are made of.

A subgroup G of S^3 x S^3 containing (-1, -1) is determined by the
Goursat 5-tuple (L, L_K, R, R_K, phi): the two projections L, R, the two
kernels L_K = {l : (l, 1) in G} and R_K, and the gluing isomorphism
phi : L/L_K -> R/R_K.  G is then the union over cosets C of L_K of
C x phi(C).

The catalog below lists the families by identifier (primed families use
the suffix "p", swapped families the suffix "bis"), each with its
rotation order, its label and whether it preserves the Hopf fibration.
Each family declares which parameters must be odd, even or above one
(a family with the signature (m, n, r, s) also needs gcd(s, r) = 1);
`validate` words its violations from these declarations, and
`enumerate_specs` reads the same declarations to start each parameter
at its least allowed value and step it over the allowed parity, so it
produces only valid specs.

The 5-tuple of each fibered family lives in `build`, which turns a spec
into its group and loads with the first comparison; `polyhedral`, the
T*, O* and I* elements and quotients, loads on the first read of
`_polyhedral`.  Self-checks raise InternalInconsistencyError, so
python -O keeps them.
"""

from __future__ import annotations

import math
from functools import cache

from . import _OnFirstUse
from .record import Record

_polyhedral = _OnFirstUse(globals(), "_polyhedral", "polyhedral")


class InternalInconsistencyError(ArithmeticError):
    """A self-check failed: a derived quantity is not integral, or a built
    group or quotient is not what its construction promises."""


class NotHopfPreservingError(ValueError):
    """Pair whose left factor is not circle-type; it moves the fibration."""


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
# orders a process builds, like the keys of the polyhedral quotients.  An
# id is checked when it is first built, and a malformed one is not
# cached, so it raises on every call.
@cache
def cyclic(n: int) -> StandardGroupId:
    return StandardGroupId("C", n)


@cache
def binary_dihedral(order: int) -> StandardGroupId:
    return StandardGroupId("D", order)


BINARY_TETRAHEDRAL = StandardGroupId("T", 24)
BINARY_OCTAHEDRAL = StandardGroupId("O", 48)
BINARY_ICOSAHEDRAL = StandardGroupId("I", 120)


def multiply(a, b):
    """Exact quaternion product."""
    return a.multiply(b)


def standard_group(group_id: StandardGroupId) -> list:
    """Exact element list of T*, O* or I*, a fresh list on every call.
    Cyclic and binary dihedral groups are never listed: their elements
    are integer angle data."""
    if group_id.kind not in _POLYHEDRAL_ORDERS:
        raise ValueError(f"standard_group lists T*, O* and I* only, not {group_id}")
    return list(_polyhedral._polyhedral_elements(group_id.kind))


def algebraic_group(group_id: StandardGroupId) -> list:
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


class Family(Record):
    """One catalog family and the declared constraints on its parameters.

    `params` is (), (m,), (m, n) or (m, n, r, s).  Every parameter is a
    positive integer; those named in `odd` must be odd, those in `even`
    even and those in `above_one` at least 2, each tuple listing
    parameters other than s in signature order.  The signature
    (m, n, r, s) also requires gcd(s, r) = 1.  `phi_order` increases in
    each parameter and does not depend on s.  `fibered` says whether the
    family preserves the Hopf fibration; exactly those families have a
    Goursat builder in `build`.
    """

    __slots__ = ("name", "params", "phi_order", "label", "odd", "even",
                 "above_one", "fibered")

    def __init__(self, name: str, params: tuple, phi_order, label: str = "",
                 odd: tuple = (), even: tuple = (), above_one: tuple = (),
                 fibered: bool = True):
        self.name, self.params, self.phi_order = name, params, phi_order
        self.label, self.odd, self.even = label, odd, even
        self.above_one, self.fibered = above_one, fibered

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


# registered in catalog order, which FAMILY_ORDER and enumeration follow
FAMILIES: dict[str, Family] = {}


def _register(fam: Family):
    FAMILIES[fam.name] = fam


_register(Family("1", ("m", "n", "r", "s"), lambda sp: 2 * sp.m * sp.n * sp.r,
                 "(C2mr/C2m, C2nr/C2n)_s"))
_register(Family("1p", ("m", "n", "r", "s"), lambda sp: sp.m * sp.n * sp.r // 2,
                 "(Cmr/Cm, Cnr/Cn)_s", odd=("m", "n"), even=("r",)))
_register(Family("2", ("m", "n"), lambda sp: 4 * sp.m * sp.n,
                 "(C2m/C2m, D*4n/D*4n)"))
_register(Family("3", ("m", "n"), lambda sp: 4 * sp.m * sp.n,
                 "(C4m/C2m, D*4n/C2n)"))
_register(Family("4", ("m", "n"), lambda sp: 8 * sp.m * sp.n,
                 "(C4m/C2m, D*8n/D*4n)"))
_register(Family("5", ("m",), lambda sp: 24 * sp.m, "(C2m/C2m, T*/T*)"))
_register(Family("6", ("m",), lambda sp: 24 * sp.m, "(C6m/C2m, T*/D*8)"))
_register(Family("7", ("m",), lambda sp: 48 * sp.m, "(C2m/C2m, O*/O*)"))
_register(Family("8", ("m",), lambda sp: 48 * sp.m, "(C4m/C2m, O*/T*)"))
_register(Family("9", ("m",), lambda sp: 120 * sp.m, "(C2m/C2m, I*/I*)"))
_register(Family("10", ("m", "n"), lambda sp: 8 * sp.m * sp.n,
                 "(D*4m/D*4m, D*4n/D*4n)"))
_register(Family("11", ("m", "n", "r", "s"), lambda sp: 4 * sp.m * sp.n * sp.r,
                 "(D*4mr/C2m, D*4nr/C2n)_s"))
_register(Family("11p", ("m", "n", "r", "s"), lambda sp: sp.m * sp.n * sp.r,
                 "(D*2mr/Cm, D*2nr/Cn)_s", odd=("m", "n"), even=("r",)))
_register(Family("12", ("m", "n"), lambda sp: 16 * sp.m * sp.n,
                 "(D*8m/D*4m, D*8n/D*4n)"))
_register(Family("13", ("m", "n"), lambda sp: 8 * sp.m * sp.n,
                 "(D*8m/D*4m, D*4n/C2n)"))
_register(Family("14", ("m",), lambda sp: 48 * sp.m, "(D*4m/D*4m, T*/T*)"))
_register(Family("15", ("m",), lambda sp: 96 * sp.m, "(D*4m/D*4m, O*/O*)"))
_register(Family("16", ("m",), lambda sp: 48 * sp.m, "(D*4m/C2m, O*/T*)"))
_register(Family("17", ("m",), lambda sp: 96 * sp.m, "(D*8m/D*4m, O*/T*)"))
_register(Family("18", ("m",), lambda sp: 48 * sp.m, "(D*12m/C2m, O*/D*8)"))
_register(Family("19", ("m",), lambda sp: 240 * sp.m, "(D*4m/D*4m, I*/I*)"))

# Families with two binary polyhedral factors preserve no fibration of the
# 3-sphere; they are listed for enumeration only and cannot be built.
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
    _register(Family(_name, (), lambda sp, o=_order: o, _label, fibered=False))

_register(Family("33", ("m", "n"), lambda sp: 8 * sp.m * sp.n,
                 "(D*8m/C2m, D*8n/C2n)_f", above_one=("m", "n")))
_register(Family("33p", ("m", "n"), lambda sp: 4 * sp.m * sp.n,
                 "(D*8m/Cm, D*8n/Cn)_f", odd=("m", "n"), above_one=("m", "n")))
_register(Family("34", ("m", "n"), lambda sp: 2 * sp.m * sp.n,
                 "(C4m/Cm, D*4n/Cn)", odd=("m", "n")))
_register(Family("2bis", ("m", "n"), lambda sp: 4 * sp.m * sp.n,
                 "(D*4m/D*4m, C2n/C2n)"))
_register(Family("3bis", ("m", "n"), lambda sp: 4 * sp.m * sp.n,
                 "(D*4m/C2m, C4n/C2n)"))
_register(Family("4bis", ("m", "n"), lambda sp: 8 * sp.m * sp.n,
                 "(D*8m/D*4m, C4n/C2n)"))
_register(Family("13bis", ("m", "n"), lambda sp: 8 * sp.m * sp.n,
                 "(D*4m/C2m, D*8n/D*4n)"))
_register(Family("34bis", ("m", "n"), lambda sp: 2 * sp.m * sp.n,
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
