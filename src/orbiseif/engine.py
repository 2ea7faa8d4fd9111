"""Closed-form Seifert invariants of the quotient orbifolds.

Every supported family has an exact formula for the data of the
fibration that the Hopf fibration induces on the quotient: the base
2-orbifold, the local invariants of the exceptional fibers (kept in
non-normalized form, so their numerator/denominator pair also encodes
the singularity index gcd(p, q)), the boundary invariant xi when the
base has a mirror boundary, the Euler number, and, where known, the
underlying 3-manifold.

The abelian and dihedral families go through a box of derived integer
quantities (a, b1, b2, nu, d, g, e and the modular inverses gbar, fbar);
all remaining families are straight table rows with parity branches.
Everything here is exact integer/rational arithmetic; the independent
geometric recomputation lives in the oracle module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from .groups import (
    FamilySpec,
    InternalInconsistencyError,
    _ext_gcd,
    get_family,
    normalized_s,
    validate,
)


def modinv_pos(x: int, modulus: int) -> int:
    """Least positive inverse of x modulo modulus (1 when modulus is 1)."""
    if modulus == 1:
        return 1
    if math.gcd(x, modulus) != 1:
        raise InternalInconsistencyError(f"{x} is not invertible mod {modulus}")
    r = pow(x % modulus, -1, modulus)
    return r if r > 0 else r + modulus


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


@dataclass(frozen=True)
class BaseSignature:
    kind: str
    cones: tuple = ()
    corners: tuple = ()

    def __post_init__(self):
        if self.kind not in (SPHERE, DISC, PROJECTIVE):
            raise ValueError("base kind must be sphere, disc or projective")
        if self.corners and self.kind != DISC:
            raise ValueError("only a disc base has corner reflectors")

    def normalized(self) -> "BaseSignature":
        """Indices sorted, index-1 cone points and corner reflectors dropped."""
        return BaseSignature(self.kind,
                             tuple(sorted(c for c in self.cones if c > 1)),
                             tuple(sorted(c for c in self.corners if c > 1)))

    def __str__(self):
        cones = ",".join(str(c) for c in self.cones)
        if self.kind == SPHERE:
            return f"S2({cones})"
        if self.kind == PROJECTIVE:
            return f"P2({cones})"
        corners = ",".join(str(c) for c in self.corners)
        return f"D2({cones};{corners})"


@dataclass(frozen=True)
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

    @property
    def value(self) -> Fraction:
        return Fraction(self.num, self.den)

    def normalized(self) -> "LocalInvariant":
        return LocalInvariant(self.normalized_num, self.den, self.location)

    def __str__(self):
        return f"{self.num}/{self.den}"


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class DerivedQuantities:
    """The integer box shared by the abelian and dihedral families."""

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
    g_bar: int
    f_bar: int
    e1: int = 1
    e2: int = 1


THREE_SPHERE = "S3"
LENS = "lens"
NOT_COMPUTED = "not-computed"


@dataclass(frozen=True)
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


def canonical_lens(p: int, q: int):
    """Lens parameters up to homeomorphism: q taken minimal in {+-q^+-1}.

    Returns (THREE_SPHERE, None, None) for p = 1.
    """
    p = abs(p)
    if p == 0:
        raise ValueError("lens parameter p must be nonzero")
    if p == 1:
        return THREE_SPHERE, None, None
    q %= p
    if math.gcd(q, p) != 1:
        raise ValueError("lens parameters p and q must be coprime")
    qinv = modinv_pos(q, p)
    q_min = min(q, (-q) % p, qinv % p, (-qinv) % p)
    return LENS, p, q_min


def lens_report(p: int, q: int, components=()) -> TopologyReport:
    kind, cp, cq = canonical_lens(p, q)
    return TopologyReport(kind, cp, cq, singular_components=tuple(components))


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


def derived_quantities(spec: FamilySpec) -> DerivedQuantities:
    """The integer box for families 1 and 1p (s already made odd for 1).

    a = gcd(n'+s*m', n'-s*m', (2)m'n'r), the factor 2 for family 1, and
    b1, b2 are the gcds of (n'-s*m')/a and (n'+s*m')/a with (2)m'n'r/a.
    """
    return _derived_quantities_cached(spec)


@lru_cache(maxsize=8192)
def _derived_quantities_cached(spec: FamilySpec) -> DerivedQuantities:
    if spec.family not in ("1", "1p"):
        raise ValueError("derived quantities exist only for families 1 and 1p")
    violations, _ = validate(spec)
    if violations:
        raise ValueError("; ".join(violations))
    m, n, r = spec.m, spec.n, spec.r
    s = normalized_s(spec)
    h = math.gcd(m, n)
    mp, np_ = m // h, n // h
    double = 2 if spec.family == "1" else 1
    big = double * mp * np_ * r
    a = math.gcd(np_ + s * mp, np_ - s * mp, big)
    b1 = math.gcd((np_ - s * mp) // a, big // a)
    b2 = math.gcd((np_ + s * mp) // a, big // a)

    e1 = e2 = 1
    if spec.family == "1p":
        nu = _minimal_nu(a, 2 * np_, a // 2)
        d = _exact_div(nu * nu * a * (np_ + s * mp) + 2 * np_ * mp * r,
                       2 * a * nu * b2, "d")
        g = _exact_div(nu * nu * a * (np_ - s * mp) - 2 * np_ * mp * r,
                       2 * a * nu * b1, "g")
        e = _exact_div(mp * np_ * r, 2 * b1 * b2, "e")
    else:
        if (mp * np_) % 2 == 0:
            nu = _minimal_nu(a, np_, a)
        else:
            nu = _minimal_nu(a, 2 * np_, a // 2)
            for which, b in (("1", b1), ("2", b2)):
                if r % b != 0:
                    raise InternalInconsistencyError(f"b{which} does not divide r")
            e1 = 2 if (r // b1) % 2 == 0 else 1
            e2 = 2 if (r // b2) % 2 == 0 else 1
        d = _exact_div(nu * nu * a * (np_ + s * mp) + 2 * np_ * mp * r,
                       e2 * a * nu * b2, "d")
        g = _exact_div(nu * nu * a * (np_ - s * mp) - 2 * np_ * mp * r,
                       e1 * a * nu * b1, "g")
        e = _exact_div(2 * mp * np_ * r, e1 * e2 * b1 * b2, "e")

    g_bar = modinv_pos(g, e)
    f_bar = modinv_pos(nu * s + r * (2 * np_ // (a * nu)), np_ * r)
    return DerivedQuantities(h, mp, np_, a, b1, b2, nu, d, g, e, g_bar, f_bar,
                             e1, e2)


# ---------------------------------------------------------------------------
# family evaluators
# ---------------------------------------------------------------------------

def seifert_abelian(spec: FamilySpec) -> SeifertData:
    """Families 1 and 1p: two exceptional fibers over a football base."""
    dq = derived_quantities(spec)
    m, n, r = spec.m, spec.n, spec.r
    if spec.family == "1p":
        den = n * r // 2
        nums = (dq.d * dq.f_bar * dq.b2 * dq.h,
                -dq.g * dq.f_bar * dq.b1 * dq.h)
    else:
        den = n * r
        nums = (dq.d * dq.f_bar * dq.e2 * dq.b2 * dq.h,
                -dq.g * dq.f_bar * dq.e1 * dq.b1 * dq.h)
    base = BaseSignature(SPHERE, (den, den))
    invariants = tuple(LocalInvariant(num, den, CONE) for num in nums)
    return SeifertData(base, invariants, Fraction(-2 * m, n * r))


def seifert_dihedral(spec: FamilySpec) -> SeifertData:
    """Families 11 and 11p: the same data folded along a mirror circle.

    The base becomes a disc whose two corner reflectors carry the cone
    indices of the abelian quotient, the local invariants move to the
    corners unchanged, the Euler number halves, and xi is whatever value
    makes the invariant-sum congruence integral.
    """
    abelian_spec = replace(spec, family={"11": "1", "11p": "1p"}[spec.family])
    ab = seifert_abelian(abelian_spec)
    base = BaseSignature(DISC, (), ab.base.cones)
    invariants = tuple(LocalInvariant(v.num, v.den, CORNER) for v in ab.invariants)
    euler = ab.euler / 2
    xi = derive_xi(base, invariants, euler)
    return SeifertData(base, invariants, euler, xi)


def _row(euler, base, triples):
    invariants = tuple(LocalInvariant(num, den, loc) for num, den, loc in triples)
    return euler, base, invariants


def _table4_row(spec: FamilySpec):
    """Euler number, base and invariant list of the remaining families."""
    fam, m, n = spec.family, spec.m, spec.n

    def sphere(*cones):
        return BaseSignature(SPHERE, cones)

    def disc(cones, corners):
        return BaseSignature(DISC, tuple(cones), tuple(corners))

    def projective(*cones):
        return BaseSignature(PROJECTIVE, cones)

    if fam == "2":
        return _row(Fraction(-m, n), sphere(2, 2, n),
                    [(m, n, CONE), (m, 2, CONE), (m, 2, CONE)])
    if fam == "3":
        return _row(Fraction(-m, n), sphere(2, 2, n),
                    [(m, n, CONE), (m + 1, 2, CONE), (m + 1, 2, CONE)])
    if fam == "4":
        return _row(Fraction(-m, 2 * n), sphere(2, 2, 2 * n),
                    [(m + n, 2 * n, CONE), (m, 2, CONE), (m + 1, 2, CONE)])
    if fam == "34":
        # (m+n)/2 is exact: both parameters are odd in this family
        return _row(Fraction(-m, 2 * n), sphere(2, 2, n),
                    [((m + n) // 2, n, CONE), (m, 2, CONE), (m + 1, 2, CONE)])
    if fam == "5":
        return _row(Fraction(-m, 6), sphere(2, 3, 3),
                    [(m, 2, CONE), (m, 3, CONE), (m, 3, CONE)])
    if fam == "6":
        return _row(Fraction(-m, 6), sphere(2, 3, 3),
                    [(m, 2, CONE), (m + 1, 3, CONE), (m + 2, 3, CONE)])
    if fam == "7":
        return _row(Fraction(-m, 12), sphere(2, 3, 4),
                    [(m, 2, CONE), (m, 3, CONE), (m, 4, CONE)])
    if fam == "8":
        return _row(Fraction(-m, 12), sphere(2, 3, 4),
                    [(m + 1, 2, CONE), (m, 3, CONE), (m + 2, 4, CONE)])
    if fam == "9":
        return _row(Fraction(-m, 30), sphere(2, 3, 5),
                    [(m, 2, CONE), (m, 3, CONE), (m, 5, CONE)])
    if fam == "10":
        if n % 2 == 0:
            return _row(Fraction(-m, 2 * n), disc((), (2, 2, n)),
                        [(m, n, CORNER), (m, 2, CORNER), (m, 2, CORNER)])
        return _row(Fraction(-m, 2 * n), disc((2,), (n,)),
                    [(m, 2, CONE), (m, n, CORNER)])
    if fam == "13bis":
        if n % 2 == 1:
            return _row(Fraction(-m, 2 * n), disc((), (2, 2, n)),
                        [(m, n, CORNER), (m, 2, CORNER), (m, 2, CORNER)])
        return _row(Fraction(-m, 2 * n), disc((2,), (n,)),
                    [(m, 2, CONE), (m, n, CORNER)])
    if fam == "13":
        if n % 2 == 0:
            return _row(Fraction(-m, 2 * n), disc((), (2, 2, n)),
                        [(m, n, CORNER), (m + 1, 2, CORNER), (m + 1, 2, CORNER)])
        return _row(Fraction(-m, 2 * n), disc((2,), (n,)),
                    [(m + 1, 2, CONE), (m, n, CORNER)])
    if fam == "33":
        if n % 2 == 1:
            return _row(Fraction(-m, 2 * n), disc((), (2, 2, n)),
                        [(m, n, CORNER), (m + 1, 2, CORNER), (m + 1, 2, CORNER)])
        return _row(Fraction(-m, 2 * n), disc((2,), (n,)),
                    [(m + 1, 2, CONE), (m, n, CORNER)])
    if fam == "12":
        return _row(Fraction(-m, 4 * n), disc((), (2, 2, 2 * n)),
                    [(m + n, 2 * n, CORNER), (m, 2, CORNER), (m + 1, 2, CORNER)])
    if fam == "33p":
        return _row(Fraction(-m, 4 * n), disc((), (2, 2, n)),
                    [((m + n) // 2, n, CORNER), (m, 2, CORNER), (m + 1, 2, CORNER)])
    if fam == "14":
        return _row(Fraction(-m, 12), disc((3,), (2,)),
                    [(m, 3, CONE), (m, 2, CORNER)])
    if fam == "16":
        return _row(Fraction(-m, 12), disc((), (2, 3, 3)),
                    [(m, 2, CORNER), (m, 3, CORNER), (m, 3, CORNER)])
    if fam == "18":
        return _row(Fraction(-m, 12), disc((), (2, 3, 3)),
                    [(m, 2, CORNER), (m + 1, 3, CORNER), (m + 2, 3, CORNER)])
    if fam == "15":
        return _row(Fraction(-m, 24), disc((), (2, 3, 4)),
                    [(m, 2, CORNER), (m, 3, CORNER), (m, 4, CORNER)])
    if fam == "17":
        return _row(Fraction(-m, 24), disc((), (2, 3, 4)),
                    [(m + 1, 2, CORNER), (m, 3, CORNER), (m + 2, 4, CORNER)])
    if fam == "19":
        return _row(Fraction(-m, 60), disc((), (2, 3, 5)),
                    [(m, 2, CORNER), (m, 3, CORNER), (m, 5, CORNER)])
    if fam == "2bis":
        base = disc((n,), ()) if n % 2 == 0 else projective(n)
        return _row(Fraction(-m, n), base, [(m, n, CONE)])
    if fam == "3bis":
        base = disc((n,), ()) if n % 2 == 1 else projective(n)
        return _row(Fraction(-m, n), base, [(m, n, CONE)])
    if fam == "4bis":
        return _row(Fraction(-m, 2 * n), disc((2 * n,), ()),
                    [(m + n, 2 * n, CONE)])
    if fam == "34bis":
        return _row(Fraction(-m, 2 * n), disc((n,), ()),
                    [((m + n) // 2, n, CONE)])
    raise ValueError(f"family {fam} has no table row")


def seifert_polyhedral(spec: FamilySpec) -> SeifertData:
    violations, _ = validate(spec)
    if violations:
        raise ValueError("; ".join(violations))
    euler, base, invariants = _table4_row(spec)
    xi = derive_xi(base, invariants, euler) if base.kind == DISC else None
    return SeifertData(base, invariants, euler, xi)


# ---------------------------------------------------------------------------
# generic operations on SeifertData
# ---------------------------------------------------------------------------

def _fiber_sum(euler, invariants, xi=0) -> Fraction:
    """Euler number + cone invariants + half the normalized corner ones
    + xi/2, summed as integers over 2L, L the lcm of the denominators."""
    lcm = math.lcm(euler.denominator, *(v.den for v in invariants))
    total = 2 * euler.numerator * (lcm // euler.denominator) + xi * lcm
    for v in invariants:
        total += (2 * v.num if v.location == CONE else v.normalized_num) * (lcm // v.den)
    return Fraction(total, 2 * lcm)


def derive_xi(base, invariants, euler) -> int:
    """The boundary invariant forced by integrality of the invariant sum."""
    den = _fiber_sum(euler, invariants).denominator
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
    return _fiber_sum(d.euler, d.invariants, d.xi or 0)


def _sort_invariants(invariants):
    return tuple(sorted(invariants, key=lambda v: (v.location, v.den, v.num)))


def normalize(d: SeifertData) -> SeifertData:
    """Invariants replaced by representatives in [0, den); trivial entries
    (denominator 1, which mark fibers over smooth base points) dropped,
    matching the index-1 drop in the base signature."""
    invariants = _sort_invariants(v.normalized() for v in d.invariants
                                  if v.den > 1)
    return SeifertData(d.base.normalized(), invariants, d.euler, d.xi)


def flip_orientation(d: SeifertData) -> SeifertData:
    """Mirror data: Euler number negated, normalized p/q -> (q-p)/q.

    xi is re-derived from the congruence, so the flip is an involution
    on normalized data.
    """
    nd = normalize(d)
    invariants = _sort_invariants(
        LocalInvariant((-v.num) % v.den, v.den, v.location)
        for v in nd.invariants)
    euler = -nd.euler
    xi = derive_xi(nd.base, invariants, euler) if nd.base.kind == DISC else None
    return SeifertData(nd.base, invariants, euler, xi)


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
    b_int = -(euler + Fraction(b1, a1) + Fraction(b2, a2))
    if b_int.denominator != 1:
        raise InternalInconsistencyError("Euler number inconsistent with invariants")
    b2p = b2 + int(b_int) * a2
    p = b1 * a2 + a1 * b2p
    # x0, y0 with b1*y0 - a1*x0 = 1 exist since the pair is reduced
    gcd, y0, x0neg = _ext_gcd(b1, a1)
    if gcd != 1:
        raise InternalInconsistencyError(f"invariant pair ({a1}, {b1}) is not reduced")
    x0 = -x0neg
    q = -(b2p * y0 + a2 * x0)
    if p == 0:
        raise InternalInconsistencyError("two-fiber gluing gives p = 0")
    return p, q


def underlying_space(d: SeifertData, spec: FamilySpec) -> TopologyReport:
    """Underlying 3-manifold, where a closed-form rule exists.

    Abelian families have an explicit lens space; dihedral bases with no
    cone point give the 3-sphere; a disc with one cone point and a
    2-sphere with at most two effective exceptional fibers are built
    from two solid tori, hence lens spaces.  Everything else is
    reported as not computed.
    """
    components = tuple(singular_set(d, spec))
    if spec.family in ("1", "1p"):
        dq = derived_quantities(spec)
        return lens_report(dq.e, (dq.d * dq.g_bar) % dq.e if dq.e > 1 else 0,
                           components)
    if spec.family in ("11", "11p"):
        return TopologyReport(THREE_SPHERE, singular_components=components)

    nd = normalize(d)
    if nd.base.kind == PROJECTIVE:
        return TopologyReport(NOT_COMPUTED, reason="projective base",
                              singular_components=components)
    if nd.base.kind == DISC:
        cone_invs = [v for v in d.invariants if v.location == CONE and v.den > 1]
        if not cone_invs:
            return TopologyReport(THREE_SPHERE, singular_components=components)
        if len(cone_invs) > 1:
            return TopologyReport(NOT_COMPUTED, reason="several cone points "
                                  "on a mirror-boundary base",
                                  singular_components=components)
        v = cone_invs[0]
        g = math.gcd(v.num, v.den)
        p = v.den // g
        if p == 1:
            return TopologyReport(THREE_SPHERE, singular_components=components)
        # meridian of the complementary solid torus is a (x, p) curve for
        # x the inverse of the reduced numerator
        return lens_report(p, modinv_pos((v.num // g) % p, p), components)

    # sphere base: the underlying manifold is Seifert fibered with one
    # exceptional fiber per nonvanishing normalized invariant
    nonzero = [v for v in nd.invariants if v.normalized_num != 0]
    if len(nonzero) > 2:
        return TopologyReport(NOT_COMPUTED, reason="more than two exceptional "
                              "fibers in the underlying manifold",
                              singular_components=components)
    pairs = []
    for v in nonzero:
        g = math.gcd(v.normalized_num, v.den)
        pairs.append((v.den // g, v.normalized_num // g))
    while len(pairs) < 2:
        pairs.append((1, 0))
    p, q = _two_fiber_lens(pairs, d.euler)
    return lens_report(p, q, components)


def singular_set(d: SeifertData, spec: FamilySpec) -> list:
    """Singularity indices of the exceptional fibers (index 1 dropped)."""
    if spec.family in ("1", "1p"):
        dq = derived_quantities(spec)
        if spec.family == "1p":
            indices = [dq.b2 * dq.h, dq.b1 * dq.h]
        else:
            indices = [dq.e2 * dq.b2 * dq.h, dq.e1 * dq.b1 * dq.h]
        return sorted(i for i in indices if i > 1)
    return sorted(v.index for v in d.invariants if v.index > 1)


# ---------------------------------------------------------------------------
# one-stop evaluation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EngineReport:
    spec: FamilySpec
    seifert: SeifertData
    topology: TopologyReport
    provenance: str


def evaluate(spec: FamilySpec) -> EngineReport:
    fam = get_family(spec.family)
    if not fam.fibered:
        raise ValueError(f"family {spec.family} preserves no fibration")
    if spec.family in ("1", "1p"):
        seifert = seifert_abelian(spec)
        provenance = f"abelian box, family {spec.family}"
    elif spec.family in ("11", "11p"):
        seifert = seifert_dihedral(spec)
        provenance = f"dihedral fold of the abelian box, family {spec.family}"
    else:
        seifert = seifert_polyhedral(spec)
        provenance = f"invariant table row {spec.family}"
    topology = underlying_space(seifert, spec)
    return EngineReport(spec, seifert, topology, provenance)
