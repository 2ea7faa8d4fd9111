"""Closed-form Seifert invariants of the quotient orbifolds.

Every supported family has an exact formula for the data of the
fibration that the Hopf fibration induces on the quotient: the base
2-orbifold, the local invariants of the exceptional fibers (kept in
non-normalized form, so their numerator/denominator pair also encodes
the singularity index gcd(p, q)), the boundary invariant xi when the
base has a mirror boundary, the Euler number, and, where known, the
underlying 3-manifold.

The abelian and dihedral families go through a box of derived integer
quantities (a, b1, b2, nu, d, g, e and the modular inverse fbar); all
remaining families are straight table rows with parity branches.  Every
row lists its Euler number and invariants once and hands them to `_row`,
the one builder of SeifertData, which also builds `normalize`,
`flip_orientation` and the JSON reader's data: it puts the invariants in
document order, a cone point or corner reflector of the base at the
denominator of each invariant, and derives xi on a disc from the sum
congruence.  The underlying 3-manifold and the singular set are read off
the Seifert data alone, by one rule for every row.  Everything here is
exact integer/rational arithmetic; the independent geometric
recomputation lives in the oracle module, which assembles its own data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from .groups import (
    ABELIAN_FAMILIES,
    DIHEDRAL_FAMILIES,
    FIBERED_FAMILIES,
    FamilySpec,
    InternalInconsistencyError,
    normalized_s,
    require_fibered,
)


def modinv_pos(x: int, modulus: int) -> int:
    """Least positive inverse of x modulo modulus (1 when modulus is 1)."""
    if modulus == 1:
        return 1
    if math.gcd(x, modulus) != 1:
        raise InternalInconsistencyError(f"{x} is not invertible mod {modulus}")
    return pow(x % modulus, -1, modulus)


def _exact_div(num: int, den: int, what: str) -> int:
    if num % den != 0:
        raise InternalInconsistencyError(f"{what} = {num}/{den} is not an integer")
    return num // den


# ---------------------------------------------------------------------------
# data model
# ---------------------------------------------------------------------------

SPHERE = "sphere"
DISC = "disc"
PROJECTIVE = "projective"

CONE = "cone"
CORNER = "corner"


# Result records are slotted dataclasses, equal and hashed by value, and
# no code assigns a field after construction (an AST scan in the tests
# holds that); frozen=True would enforce it at run time at about 1 us a
# record.  The specs are slotted the same way; the group ids stay frozen
# because they key caches.
@dataclass(slots=True, unsafe_hash=True)
class BaseSignature:
    kind: str
    cones: tuple = ()
    corners: tuple = ()

    def __post_init__(self):
        if self.kind not in (SPHERE, DISC, PROJECTIVE):
            raise ValueError("base kind must be sphere, disc or projective")
        if self.corners and self.kind != DISC:
            raise ValueError("only a disc base has corner reflectors")

    def canonical(self) -> tuple:
        """(kind, cones, corners), indices sorted, index-1 cone points and
        corner reflectors dropped: the data of normalized(), unbuilt."""
        return (self.kind, tuple(sorted([c for c in self.cones if c > 1])),
                tuple(sorted([c for c in self.corners if c > 1])))

    def normalized(self) -> "BaseSignature":
        """Indices sorted, index-1 cone points and corner reflectors dropped."""
        return BaseSignature(*self.canonical())

    def __str__(self):
        cones = ",".join(str(c) for c in self.cones)
        if self.kind == SPHERE:
            return f"S2({cones})"
        if self.kind == PROJECTIVE:
            return f"P2({cones})"
        corners = ",".join(str(c) for c in self.corners)
        return f"D2({cones};{corners})"


@dataclass(slots=True, unsafe_hash=True)
class LocalInvariant:
    """Non-normalized local invariant num/den of one exceptional fiber.

    The denominator equals the index of the underlying cone point or
    corner reflector; the singularity index of the fiber itself is
    gcd(num mod den, den), so an invariant like 0/5 records a singular
    fiber of index 5 with a trivially fibered neighborhood.
    """

    num: int
    den: int
    location: str = CONE

    def __post_init__(self):
        if self.den < 1:
            raise ValueError("invariant denominator must be at least 1")
        if self.location not in (CONE, CORNER):
            raise ValueError("invariant location must be cone or corner")

    @property
    def normalized_num(self) -> int:
        return self.num % self.den

    @property
    def index(self) -> int:
        return math.gcd(self.normalized_num, self.den)

    def __str__(self):
        return f"{self.num}/{self.den}"


@dataclass(slots=True, unsafe_hash=True)
class SeifertData:
    base: BaseSignature
    invariants: tuple
    euler: Fraction
    xi: Optional[int] = None

    def __post_init__(self):
        if (self.xi is not None) != (self.base.kind == DISC):
            raise ValueError("xi is given exactly for a disc base")
        if self.xi is not None and self.xi not in (0, 1):
            raise ValueError("xi must be 0 or 1")


@dataclass(slots=True, unsafe_hash=True)
class DerivedQuantities:
    """The integer box shared by the abelian and dihedral families; the
    parity factors e1 and e2 of family 1 are 1 in family 1p."""

    h: int
    m_prime: int
    n_prime: int
    a: int
    b1: int
    b2: int
    nu: int
    d: int
    g: int
    e: int
    f_bar: int
    e1: int = 1
    e2: int = 1


THREE_SPHERE = "S3"
LENS = "lens"
NOT_COMPUTED = "not-computed"


@dataclass(slots=True, unsafe_hash=True)
class TopologyReport:
    underlying: str
    p: Optional[int] = None
    q: Optional[int] = None
    reason: Optional[str] = None
    singular_components: tuple = ()

    def __str__(self):
        if self.underlying == THREE_SPHERE:
            return "S3"
        if self.underlying == LENS:
            return f"L({self.p},{self.q})"
        return f"not computed ({self.reason})"


def lens_report(p: int, q: int, components=()) -> TopologyReport:
    """L(p, q) up to homeomorphism, q taken minimal in {+-q^+-1} mod p;
    the 3-sphere for p = +-1."""
    p = abs(p)
    if p == 0:
        raise ValueError("lens parameter p must be nonzero")
    if p == 1:
        return TopologyReport(THREE_SPHERE, singular_components=tuple(components))
    q %= p
    if math.gcd(q, p) != 1:
        raise ValueError("lens parameters p and q must be coprime")
    qinv = pow(q, -1, p)
    return TopologyReport(LENS, p, min(q, p - q, qinv, p - qinv),
                          singular_components=tuple(components))


# ---------------------------------------------------------------------------
# derived quantities for the abelian/dihedral box
# ---------------------------------------------------------------------------

def _minimal_nu(a: int, bound: int, coprime_to: int) -> int:
    """Least nu >= 1 with a*nu | bound and gcd(bound/(a*nu), coprime_to) = 1:
    the part of bound/a made of the primes it shares with coprime_to."""
    if bound % a:
        raise InternalInconsistencyError(f"{a} does not divide {bound}")
    rest = bound // a
    while (shared := math.gcd(rest, coprime_to)) > 1:
        rest //= shared
    return bound // a // rest


# Computed afresh on every call: a sweep meets most boxes once, so a
# cache held megabytes for few hits.  maxsize=0 caches nothing and counts
# each call as a miss; the name and its cache_info and cache_clear stay
# because the benchmark reads them on every pass.
@lru_cache(maxsize=0)
def _derived_quantities_cached(spec: FamilySpec) -> DerivedQuantities:
    """The integer box of a valid family-1, 1p, 11 or 11p spec (s made
    odd for 1 and 11); families 11 and 11p share the box of 1 and 1p.

    a = gcd(n'+s*m', n'-s*m', (2)m'n'r), the factor 2 for families 1 and
    11, and b1, b2 are the gcds of (n'-s*m')/a and (n'+s*m')/a with
    (2)m'n'r/a.
    """
    m, n, r = spec.m, spec.n, spec.r
    s = normalized_s(spec)
    primed = spec.family in ("1p", "11p")
    h = math.gcd(m, n)
    mp, np_ = m // h, n // h
    double = 1 if primed else 2
    big = double * mp * np_ * r
    a = math.gcd(np_ + s * mp, np_ - s * mp, big)
    b1 = math.gcd((np_ - s * mp) // a, big // a)
    b2 = math.gcd((np_ + s * mp) // a, big // a)

    e1 = e2 = 1
    if primed:
        nu = _minimal_nu(a, 2 * np_, a // 2)
    elif (mp * np_) % 2 == 0:
        nu = _minimal_nu(a, np_, a)
    else:
        nu = _minimal_nu(a, 2 * np_, a // 2)
        for which, b in (("1", b1), ("2", b2)):
            if r % b != 0:
                raise InternalInconsistencyError(f"b{which} does not divide r")
        e1 = 2 if (r // b1) % 2 == 0 else 1
        e2 = 2 if (r // b2) % 2 == 0 else 1
    # family 1p divides d, g and e as family 1 does with e1 = e2 = 2
    k1, k2 = (2, 2) if primed else (e1, e2)
    d = _exact_div(nu * nu * a * (np_ + s * mp) + 2 * np_ * mp * r,
                   k2 * a * nu * b2, "d")
    g = _exact_div(nu * nu * a * (np_ - s * mp) - 2 * np_ * mp * r,
                   k1 * a * nu * b1, "g")
    e = _exact_div(2 * mp * np_ * r, k1 * k2 * b1 * b2, "e")

    f_bar = modinv_pos(nu * s + r * (2 * np_ // (a * nu)), np_ * r)
    return DerivedQuantities(h, mp, np_, a, b1, b2, nu, d, g, e, f_bar, e1, e2)


# ---------------------------------------------------------------------------
# family evaluators
# ---------------------------------------------------------------------------

def _row(kind, euler, triples) -> SeifertData:
    """The one builder of SeifertData, from the base kind, the Euler
    number and (num, den, location) triples: invariants in document order
    (location, den, normalized num, num), a cone point or corner
    reflector at the denominator of each invariant, by location, and xi
    from the sum congruence on a disc."""
    invariants, cones, corners = [], [], []
    for loc, den, _, num in sorted([(loc, den, num % den, num)
                                    for num, den, loc in triples]):
        invariants.append(LocalInvariant(num, den, loc))
        (cones if loc == CONE else corners).append(den)
    xi = derive_xi(invariants, euler) if kind == DISC else None
    return SeifertData(BaseSignature(kind, tuple(cones), tuple(corners)),
                       tuple(invariants), euler, xi)


def seifert_box(spec: FamilySpec, dq: DerivedQuantities) -> SeifertData:
    """Families 1 and 1p: two exceptional fibers over a football base.

    Families 11 and 11p, whose box `dq` is that of the family-1 or 1p
    spec of the same parameters, fold it along a mirror circle: the same
    invariants sit at two corner reflectors of a disc, the Euler number
    halves, and xi makes the invariant-sum congruence integral.
    """
    m, n, r = spec.m, spec.n, spec.r
    den = n * r // 2 if spec.family in ("1p", "11p") else n * r
    a = dq.d * dq.f_bar * dq.e2 * dq.b2 * dq.h
    b = -dq.g * dq.f_bar * dq.e1 * dq.b1 * dq.h
    if spec.family in ("1", "1p"):
        return _row(SPHERE, Fraction(-2 * m, n * r), [(a, den, CONE), (b, den, CONE)])
    return _row(DISC, Fraction(-m, n * r), [(a, den, CORNER), (b, den, CORNER)])


def seifert_polyhedral(spec: FamilySpec) -> SeifertData:
    """The table row of a valid spec of the remaining families."""
    fam, m, n = spec.family, spec.m, spec.n
    if fam == "2":
        return _row(SPHERE, Fraction(-m, n),
                    [(m, n, CONE), (m, 2, CONE), (m, 2, CONE)])
    if fam == "3":
        return _row(SPHERE, Fraction(-m, n),
                    [(m, n, CONE), (m + 1, 2, CONE), (m + 1, 2, CONE)])
    if fam == "4":
        return _row(SPHERE, Fraction(-m, 2 * n),
                    [(m + n, 2 * n, CONE), (m, 2, CONE), (m + 1, 2, CONE)])
    if fam == "34":
        # (m+n)/2 is exact: both parameters are odd in this family
        return _row(SPHERE, Fraction(-m, 2 * n),
                    [((m + n) // 2, n, CONE), (m, 2, CONE), (m + 1, 2, CONE)])
    if fam == "5":
        return _row(SPHERE, Fraction(-m, 6),
                    [(m, 2, CONE), (m, 3, CONE), (m, 3, CONE)])
    if fam == "6":
        return _row(SPHERE, Fraction(-m, 6),
                    [(m, 2, CONE), (m + 1, 3, CONE), (m + 2, 3, CONE)])
    if fam == "7":
        return _row(SPHERE, Fraction(-m, 12),
                    [(m, 2, CONE), (m, 3, CONE), (m, 4, CONE)])
    if fam == "8":
        return _row(SPHERE, Fraction(-m, 12),
                    [(m + 1, 2, CONE), (m, 3, CONE), (m + 2, 4, CONE)])
    if fam == "9":
        return _row(SPHERE, Fraction(-m, 30),
                    [(m, 2, CONE), (m, 3, CONE), (m, 5, CONE)])
    if fam == "10":
        if n % 2 == 0:
            return _row(DISC, Fraction(-m, 2 * n),
                        [(m, n, CORNER), (m, 2, CORNER), (m, 2, CORNER)])
        return _row(DISC, Fraction(-m, 2 * n), [(m, 2, CONE), (m, n, CORNER)])
    if fam == "13bis":
        if n % 2 == 1:
            return _row(DISC, Fraction(-m, 2 * n),
                        [(m, n, CORNER), (m, 2, CORNER), (m, 2, CORNER)])
        return _row(DISC, Fraction(-m, 2 * n), [(m, 2, CONE), (m, n, CORNER)])
    if fam == "13":
        if n % 2 == 0:
            return _row(DISC, Fraction(-m, 2 * n),
                        [(m, n, CORNER), (m + 1, 2, CORNER), (m + 1, 2, CORNER)])
        return _row(DISC, Fraction(-m, 2 * n), [(m + 1, 2, CONE), (m, n, CORNER)])
    if fam == "33":
        if n % 2 == 1:
            return _row(DISC, Fraction(-m, 2 * n),
                        [(m, n, CORNER), (m + 1, 2, CORNER), (m + 1, 2, CORNER)])
        return _row(DISC, Fraction(-m, 2 * n), [(m + 1, 2, CONE), (m, n, CORNER)])
    if fam == "12":
        return _row(DISC, Fraction(-m, 4 * n),
                    [(m + n, 2 * n, CORNER), (m, 2, CORNER), (m + 1, 2, CORNER)])
    if fam == "33p":
        return _row(DISC, Fraction(-m, 4 * n),
                    [((m + n) // 2, n, CORNER), (m, 2, CORNER), (m + 1, 2, CORNER)])
    if fam == "14":
        return _row(DISC, Fraction(-m, 12), [(m, 3, CONE), (m, 2, CORNER)])
    if fam == "16":
        return _row(DISC, Fraction(-m, 12),
                    [(m, 2, CORNER), (m, 3, CORNER), (m, 3, CORNER)])
    if fam == "18":
        return _row(DISC, Fraction(-m, 12),
                    [(m, 2, CORNER), (m + 1, 3, CORNER), (m + 2, 3, CORNER)])
    if fam == "15":
        return _row(DISC, Fraction(-m, 24),
                    [(m, 2, CORNER), (m, 3, CORNER), (m, 4, CORNER)])
    if fam == "17":
        return _row(DISC, Fraction(-m, 24),
                    [(m + 1, 2, CORNER), (m, 3, CORNER), (m + 2, 4, CORNER)])
    if fam == "19":
        return _row(DISC, Fraction(-m, 60),
                    [(m, 2, CORNER), (m, 3, CORNER), (m, 5, CORNER)])
    if fam == "2bis":
        return _row(DISC if n % 2 == 0 else PROJECTIVE, Fraction(-m, n),
                    [(m, n, CONE)])
    if fam == "3bis":
        return _row(DISC if n % 2 == 1 else PROJECTIVE, Fraction(-m, n),
                    [(m, n, CONE)])
    if fam == "4bis":
        return _row(DISC, Fraction(-m, 2 * n), [(m + n, 2 * n, CONE)])
    if fam == "34bis":
        return _row(DISC, Fraction(-m, 2 * n), [((m + n) // 2, n, CONE)])
    raise ValueError(f"family {fam} has no table row")


# ---------------------------------------------------------------------------
# generic operations on SeifertData
# ---------------------------------------------------------------------------

def _fiber_sum(euler, invariants, xi=0):
    """Euler number + cone invariants + half the normalized corner ones
    + xi/2, as the integer pair (total, 2L) of the sum total/(2L), L the
    lcm of the denominators."""
    lcm = math.lcm(euler.denominator, *[v.den for v in invariants])
    total = 2 * euler.numerator * (lcm // euler.denominator) + xi * lcm
    for v in invariants:
        total += (2 * v.num if v.location == CONE else v.num % v.den) * (lcm // v.den)
    return total, 2 * lcm


def derive_xi(invariants, euler) -> int:
    """The boundary invariant forced by integrality of the invariant sum."""
    total, den = _fiber_sum(euler, invariants)
    den //= math.gcd(total, den)
    if den > 2:
        raise InternalInconsistencyError("no xi in {0,1} makes the sum integral")
    return den - 1


def somma_residue(d: SeifertData) -> Fraction:
    """Euler number + cone invariants + half the corner invariants + xi/2.

    Cone entries enter with their printed values, corner entries with
    their normalized representatives: a corner numerator shifted by its
    denominator would move the half-weighted sum by a half-integer, so
    only the normalized form gives a residue that is well defined mod 1.
    The result must be an integer for every valid family.
    """
    return Fraction(*_fiber_sum(d.euler, d.invariants, d.xi or 0))


def normalize(d: SeifertData) -> SeifertData:
    """Invariants replaced by representatives in [0, den); trivial entries
    (denominator 1, which mark fibers over smooth base points) dropped,
    with their index-1 points of the base."""
    return _row(d.base.kind, d.euler,
                [(v.num % v.den, v.den, v.location) for v in d.invariants
                 if v.den > 1])


def flip_orientation(d: SeifertData) -> SeifertData:
    """Mirror data of normalize(d): Euler number negated, p/q -> (q-p)/q.

    xi is re-derived from the congruence, so the flip is an involution
    on normalized data.
    """
    return _row(d.base.kind, -d.euler,
                [(-v.num % v.den, v.den, v.location) for v in d.invariants
                 if v.den > 1])


# ---------------------------------------------------------------------------
# underlying manifold and singular set
# ---------------------------------------------------------------------------

def _two_fiber_lens(pairs, euler):
    """Lens space of a two-exceptional-fiber fibration over the 2-sphere.

    The two solid torus pieces have meridians alpha*S + beta*F and
    alpha'*S - beta''*F in the fiber/section basis of the splitting
    torus, where beta'' absorbs the integer part of the Euler number;
    eliminating the section class gives the gluing image of the second
    meridian in the basis of the first piece.
    """
    (a1, b1), (a2, b2) = pairs
    # euler + b1/a1 + b2/a2 = total/den, an integer that beta'' absorbs
    den = euler.denominator * a1 * a2
    total = euler.numerator * a1 * a2 + (b1 * a2 + b2 * a1) * euler.denominator
    if total % den:
        raise InternalInconsistencyError("Euler number inconsistent with invariants")
    b2p = b2 - total // den * a2
    p = b1 * a2 + a1 * b2p
    # y0, x0 with b1*y0 - a1*x0 = 1 exist since the pair is reduced
    if math.gcd(b1, a1) != 1:
        raise InternalInconsistencyError(f"invariant pair ({a1}, {b1}) is not reduced")
    y0 = pow(b1, -1, a1)
    x0 = (b1 * y0 - 1) // a1
    q = -(b2p * y0 + a2 * x0)
    if p == 0:
        raise InternalInconsistencyError("two-fiber gluing gives p = 0")
    return p, q


def underlying_space(d: SeifertData) -> TopologyReport:
    """Underlying 3-manifold, where a two-solid-torus rule applies.

    One rule for every row, read off the Seifert data alone: each
    invariant num/den leaves an exceptional fiber of multiplicity
    den/gcd(num, den) in the underlying manifold.  A disc base has at
    most one cone point, and a disc with a cone point of multiplicity p
    gives a lens space of order p (the 3-sphere when p = 1 or there is
    no cone point); a 2-sphere with at most two exceptional fibers is two
    solid tori glued along their boundary, hence a lens space (P. Orlik,
    Seifert Manifolds, LNM 291, 1972).  Projective bases and three or
    more fibers are reported as not computed.
    """
    # LocalInvariant.index of each, as gcd(num, den) = gcd(num mod den, den),
    # and the reduced (multiplicity, numerator) of each nontrivial one
    components, pairs = [], []
    for v in d.invariants:
        g = math.gcd(v.num, v.den)
        if g > 1:
            components.append(g)
        if num := v.num % v.den:
            pairs.append((v.den // g, num // g))
    components = tuple(sorted(components))
    if d.base.kind == PROJECTIVE:
        return TopologyReport(NOT_COMPUTED, reason="projective base",
                              singular_components=components)
    if d.base.kind == DISC:
        # document order puts the one cone point's invariant first; the
        # meridian of the complementary solid torus is a (x, p) curve for
        # x the inverse of the reduced numerator, and L(p, x) = L(p, 1/x)
        if not d.base.cones:
            return lens_report(1, 0, components)
        v = d.invariants[0]
        g = math.gcd(v.num, v.den)
        return lens_report(v.den // g, v.num // g, components)

    if len(pairs) > 2:
        return TopologyReport(NOT_COMPUTED, reason="more than two exceptional "
                              "fibers in the underlying manifold",
                              singular_components=components)
    pairs += [(1, 0)] * (2 - len(pairs))
    return lens_report(*_two_fiber_lens(pairs, d.euler), components)


# ---------------------------------------------------------------------------
# one-stop evaluation
# ---------------------------------------------------------------------------

@dataclass(slots=True, unsafe_hash=True)
class EngineReport:
    spec: FamilySpec
    seifert: SeifertData
    topology: TopologyReport
    provenance: str


_BOX_FAMILIES = (*ABELIAN_FAMILIES, *DIHEDRAL_FAMILIES)
_PROVENANCE = {
    **{f: f"invariant table row {f}" for f in FIBERED_FAMILIES},
    **{f: f"abelian box, family {f}" for f in ABELIAN_FAMILIES},
    **{f: f"dihedral fold of the abelian box, family {f}"
       for f in DIHEDRAL_FAMILIES},
}


def evaluate(spec: FamilySpec) -> EngineReport:
    """The report of a fibered spec, from one `require_fibered` and, for
    families 1, 1p, 11 and 11p, one box computation."""
    require_fibered(spec)
    if spec.family in _BOX_FAMILIES:
        seifert = seifert_box(spec, _derived_quantities_cached(spec))
    else:
        seifert = seifert_polyhedral(spec)
    return EngineReport(spec, seifert, underlying_space(seifert),
                        _PROVENANCE[spec.family])
