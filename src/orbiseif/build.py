"""The group builder: each fibered family's Goursat data and a spec's
group as integer data, loaded with the first comparison (see verify)
and not with the package.

For each fibered family of the catalog (see groups) the gluing
isomorphism is pinned by explicit generator images; whenever several
choices of phi give conjugate groups, one fixed choice is made here and
all downstream invariants are insensitive to it.  A circle element
e^(2 pi i num/den), times j when jflag is set, is the integer triple
(jflag, num, den) in that data.

With two circle-type factors a group is a lattice (RotationLattice): its
rotation pairs as integer angle pairs in Hermite normal form, and one
coset of it per class of j-flags, from the catalog generators closed by
Schreier generators.  With a T*, O* or I* right factor it is coset data
(CosetGluing): one left progression of integer angles per right coset of
R_K, from `polyhedral`, which loads on the first read of `_polyhedral`.
A circle element is (jflag, numerator over a common grid) in a built
group (see PairGroup), which is its lattice or its coset data and lists
no pairs.
"""

from __future__ import annotations

import math

from . import _OnFirstUse
from .groups import (BINARY_ICOSAHEDRAL, BINARY_OCTAHEDRAL, BINARY_TETRAHEDRAL,
                     FamilySpec, InternalInconsistencyError, StandardGroupId,
                     _require, binary_dihedral, cyclic, require_fibered)
from .record import Record

_polyhedral = _OnFirstUse(globals(), "_polyhedral", "polyhedral")


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


def _g(left, lk, right, rk, gens=()):
    return GoursatData(left, lk, right, rk, tuple(gens))


def _z(k, power=1):
    """e^(2*pi*i*power/k) as the circle triple (jflag, num, den)."""
    return False, power, k


CIRCLE_J = (True, 0, 1)

# The Goursat data of each fibered family of the catalog, by identifier.
GOURSAT_BUILDERS = {
    "1": lambda sp: _g(cyclic(2 * sp.m * sp.r), cyclic(2 * sp.m),
                       cyclic(2 * sp.n * sp.r), cyclic(2 * sp.n),
                       [(_z(2 * sp.m * sp.r), _z(2 * sp.n * sp.r, sp.s))]),
    "1p": lambda sp: _g(cyclic(sp.m * sp.r), cyclic(sp.m),
                        cyclic(sp.n * sp.r), cyclic(sp.n),
                        [(_z(sp.m * sp.r), _z(sp.n * sp.r, sp.s))]),
    "2": lambda sp: _g(cyclic(2 * sp.m), cyclic(2 * sp.m),
                       binary_dihedral(4 * sp.n), binary_dihedral(4 * sp.n)),
    "3": lambda sp: _g(cyclic(4 * sp.m), cyclic(2 * sp.m),
                       binary_dihedral(4 * sp.n), cyclic(2 * sp.n),
                       [(_z(4 * sp.m), CIRCLE_J)]),
    "4": lambda sp: _g(cyclic(4 * sp.m), cyclic(2 * sp.m),
                       binary_dihedral(8 * sp.n), binary_dihedral(4 * sp.n),
                       [(_z(4 * sp.m), _z(4 * sp.n))]),
    "5": lambda sp: _g(cyclic(2 * sp.m), cyclic(2 * sp.m),
                       BINARY_TETRAHEDRAL, BINARY_TETRAHEDRAL),
    "6": lambda sp: _g(cyclic(6 * sp.m), cyclic(2 * sp.m),
                       BINARY_TETRAHEDRAL, binary_dihedral(8),
                       [(_z(6 * sp.m), _polyhedral.OMEGA)]),
    "7": lambda sp: _g(cyclic(2 * sp.m), cyclic(2 * sp.m),
                       BINARY_OCTAHEDRAL, BINARY_OCTAHEDRAL),
    "8": lambda sp: _g(cyclic(4 * sp.m), cyclic(2 * sp.m),
                       BINARY_OCTAHEDRAL, BINARY_TETRAHEDRAL,
                       [(_z(4 * sp.m), _polyhedral.SIGMA)]),
    "9": lambda sp: _g(cyclic(2 * sp.m), cyclic(2 * sp.m),
                       BINARY_ICOSAHEDRAL, BINARY_ICOSAHEDRAL),
    "10": lambda sp: _g(binary_dihedral(4 * sp.m), binary_dihedral(4 * sp.m),
                        binary_dihedral(4 * sp.n), binary_dihedral(4 * sp.n)),
    "11": lambda sp: _g(binary_dihedral(4 * sp.m * sp.r), cyclic(2 * sp.m),
                        binary_dihedral(4 * sp.n * sp.r), cyclic(2 * sp.n),
                        [(_z(2 * sp.m * sp.r), _z(2 * sp.n * sp.r, sp.s)),
                         (CIRCLE_J, CIRCLE_J)]),
    "11p": lambda sp: _g(binary_dihedral(2 * sp.m * sp.r), cyclic(sp.m),
                         binary_dihedral(2 * sp.n * sp.r), cyclic(sp.n),
                         [(_z(sp.m * sp.r), _z(sp.n * sp.r, sp.s)),
                          (CIRCLE_J, CIRCLE_J)]),
    "12": lambda sp: _g(binary_dihedral(8 * sp.m), binary_dihedral(4 * sp.m),
                        binary_dihedral(8 * sp.n), binary_dihedral(4 * sp.n),
                        [(_z(4 * sp.m), _z(4 * sp.n))]),
    "13": lambda sp: _g(binary_dihedral(8 * sp.m), binary_dihedral(4 * sp.m),
                        binary_dihedral(4 * sp.n), cyclic(2 * sp.n),
                        [(_z(4 * sp.m), CIRCLE_J)]),
    "14": lambda sp: _g(binary_dihedral(4 * sp.m), binary_dihedral(4 * sp.m),
                        BINARY_TETRAHEDRAL, BINARY_TETRAHEDRAL),
    "15": lambda sp: _g(binary_dihedral(4 * sp.m), binary_dihedral(4 * sp.m),
                        BINARY_OCTAHEDRAL, BINARY_OCTAHEDRAL),
    "16": lambda sp: _g(binary_dihedral(4 * sp.m), cyclic(2 * sp.m),
                        BINARY_OCTAHEDRAL, BINARY_TETRAHEDRAL,
                        [(CIRCLE_J, _polyhedral.SIGMA)]),
    "17": lambda sp: _g(binary_dihedral(8 * sp.m), binary_dihedral(4 * sp.m),
                        BINARY_OCTAHEDRAL, BINARY_TETRAHEDRAL,
                        [(_z(4 * sp.m), _polyhedral.SIGMA)]),
    "18": lambda sp: _g(binary_dihedral(12 * sp.m), cyclic(2 * sp.m),
                        BINARY_OCTAHEDRAL, binary_dihedral(8),
                        [(_z(6 * sp.m), _polyhedral.OMEGA),
                         (CIRCLE_J, _polyhedral.SIGMA)]),
    "19": lambda sp: _g(binary_dihedral(4 * sp.m), binary_dihedral(4 * sp.m),
                        BINARY_ICOSAHEDRAL, BINARY_ICOSAHEDRAL),
    # the exceptional gluing swaps the rotation coset and the j coset
    "33": lambda sp: _g(binary_dihedral(8 * sp.m), cyclic(2 * sp.m),
                        binary_dihedral(8 * sp.n), cyclic(2 * sp.n),
                        [(_z(4 * sp.m), CIRCLE_J), (CIRCLE_J, _z(4 * sp.n))]),
    "33p": lambda sp: _g(binary_dihedral(8 * sp.m), cyclic(sp.m),
                         binary_dihedral(8 * sp.n), cyclic(sp.n),
                         [(_z(4 * sp.m), CIRCLE_J), (CIRCLE_J, _z(4 * sp.n))]),
    "34": lambda sp: _g(cyclic(4 * sp.m), cyclic(sp.m),
                        binary_dihedral(4 * sp.n), cyclic(sp.n),
                        [(_z(4 * sp.m), CIRCLE_J)]),
    "2bis": lambda sp: _g(binary_dihedral(4 * sp.m), binary_dihedral(4 * sp.m),
                          cyclic(2 * sp.n), cyclic(2 * sp.n)),
    "3bis": lambda sp: _g(binary_dihedral(4 * sp.m), cyclic(2 * sp.m),
                          cyclic(4 * sp.n), cyclic(2 * sp.n),
                          [(CIRCLE_J, _z(4 * sp.n))]),
    "4bis": lambda sp: _g(binary_dihedral(8 * sp.m), binary_dihedral(4 * sp.m),
                          cyclic(4 * sp.n), cyclic(2 * sp.n),
                          [(_z(4 * sp.m), _z(4 * sp.n))]),
    "13bis": lambda sp: _g(binary_dihedral(4 * sp.m), cyclic(2 * sp.m),
                           binary_dihedral(8 * sp.n), binary_dihedral(4 * sp.n),
                           [(CIRCLE_J, _z(4 * sp.n))]),
    "34bis": lambda sp: _g(binary_dihedral(4 * sp.m), cyclic(sp.m),
                           cyclic(4 * sp.n), cyclic(sp.n),
                           [(CIRCLE_J, _z(4 * sp.n))]),
}


def _hnf(vectors, grid: int):
    """Hermite normal form (h11, h12, h22) of the lattice spanned by the
    integer vectors and grid*Z^2: the basis (h11, h12), (0, h22), h11 and
    h22 dividing grid, 0 <= h12 < h22 (H. Cohen, A Course in Computational
    Algebraic Number Theory, 1993, section 2.4.2).  Each vector (x, y)
    meets the first row through the unimodular ((s, t), (-x/g, h11/g)),
    s*h11 + t*x = g, t = (x/g)^-1 mod h11/g."""
    h11, h12, h22 = grid, 0, grid
    for x, y in vectors:
        g = math.gcd(h11, x)
        t = pow(x // g, -1, h11 // g)
        h22 = math.gcd(h22, (h11 * y - x * h12) // g)
        h11, h12 = g, ((g - t * x) // h11 * h12 + t * y) % h22
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


def goursat_group(spec: FamilySpec) -> PairGroup:
    """The group {(l, r) : phi(l L_K) = r R_K}, as lattice data when both
    factors are circle-type and as coset data otherwise."""
    require_fibered(spec)
    data = GOURSAT_BUILDERS[spec.family](spec)
    _require(data.left.order * data.right_kernel.order
             == data.right.order * data.left_kernel.order,
             "quotients have different orders")
    lattice = gluing = None
    if data.right.kind in "TOI":
        grid, gluing = _polyhedral._coset_gluing(data)
    else:
        grid, lattice = _circle_lattice(data)
    group = PairGroup(spec, grid, data.left, data.left_kernel, data.right,
                      data.right_kernel, lattice, gluing)
    if group.order != data.left.order * data.right_kernel.order:
        raise InternalInconsistencyError(
            f"{spec} has {group.order} elements, not |L| * |R_K|")
    return group
