"""What the oracle and the sweep share with the engine, and references for it.

`oracle` rebuilds the invariants from group data and `verify` compares
them with the engine's; a fault in a helper both sides call moves both
sides together and passes every comparison.  So the engine names the
two modules import are pinned to an allowlist, and each shared helper
with arithmetic of its own is checked here against a brute-force
reference over a complete small domain.
"""

import ast
import itertools
import math
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import orbiseif
from orbiseif.engine import (
    CONE,
    CORNER,
    DISC,
    LENS,
    PROJECTIVE,
    SPHERE,
    THREE_SPHERE,
    BaseSignature,
    InternalInconsistencyError,
    LocalInvariant,
    _fiber_sum,
    lens_report,
    modinv_pos,
)

SRC = Path(orbiseif.__file__).resolve().parent

# records and constants, and the helpers both sides run
SHARED_ENGINE_NAMES = {
    "BaseSignature", "LocalInvariant", "SeifertData", "TopologyReport",
    "SPHERE", "DISC", "PROJECTIVE", "CONE", "CORNER",
    "THREE_SPHERE", "LENS", "NOT_COMPUTED",
    "lens_report", "modinv_pos", "derive_xi", "_fiber_sum", "somma_residue",
    "evaluate",
}


def _engine_imports(module: str) -> set:
    """The names `module` imports from the engine; importing the engine
    module itself, or `*` from it, fails, as neither can be listed."""
    tree = ast.parse((SRC / f"{module}.py").read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = "." * node.level + (node.module or "")
            if source in (".engine", "orbiseif.engine"):
                names.update(alias.name for alias in node.names)
            elif source in (".", "orbiseif"):
                assert "engine" not in {a.name for a in node.names}, module
        elif isinstance(node, ast.Import):
            assert "orbiseif.engine" not in {a.name for a in node.names}, module
    assert "*" not in names, module
    return names


# the files of each side that read engine names: the oracle with its
# axis path, which loads on demand, and the sweep
OUTSIDE_THE_ENGINE = {"oracle": ("oracle", "axis"), "verify": ("verify",)}


@pytest.mark.parametrize("module", OUTSIDE_THE_ENGINE)
def test_engine_names_outside_the_engine_are_allowlisted(module):
    names = set().union(*map(_engine_imports, OUTSIDE_THE_ENGINE[module]))
    assert names, module
    assert names <= SHARED_ENGINE_NAMES, sorted(names - SHARED_ENGINE_NAMES)


def test_every_file_that_reads_the_oracle_is_scanned():
    """A module that imports from `oracle` is part of the oracle or the
    sweep, so the scan above must cover it; the package's `__init__`
    only re-exports."""
    readers = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.ImportFrom) and node.level == 1
                    and node.module == "oracle"):
                readers.add(path.stem)
    scanned = {m for modules in OUTSIDE_THE_ENGINE.values() for m in modules}
    assert readers - {"__init__"} <= scanned, sorted(readers - scanned)
    assert "axis" in readers


def test_lens_report_is_the_least_of_its_class():
    """For every p <= 200 and every q, lens_report(p, q) is L(p, q') with
    q' the least member of the class {+-q, +-q^-1} mod p, enumerated with
    inverses found by search; p = 1 is the 3-sphere."""
    assert lens_report(1, 0).underlying == THREE_SPHERE
    for p in range(2, 201):
        units = [x for x in range(1, p) if math.gcd(x, p) == 1]
        inverse = {x: y for x in units for y in units if x * y % p == 1}
        for q in range(p):
            if q not in inverse:
                with pytest.raises(ValueError):
                    lens_report(p, q)
                continue
            members = {q, p - q, inverse[q], p - inverse[q]}
            report = lens_report(p, q + p)
            assert (report.underlying, report.p, report.q) == (LENS, p, min(members))
            assert lens_report(-p, q).q == report.q


def test_modinv_pos_matches_a_linear_search():
    """modinv_pos(x, m) is the least y in 1..m with x*y = 1 mod m, for
    every m <= 60 and x in -m..2m, and raises when there is none."""
    for modulus in range(1, 61):
        for x in range(-modulus, 2 * modulus + 1):
            found = [y for y in range(1, modulus + 1) if (x * y - 1) % modulus == 0]
            if found:
                assert modinv_pos(x, modulus) == found[0], (x, modulus)
            else:
                with pytest.raises(InternalInconsistencyError):
                    modinv_pos(x, modulus)


def test_invariant_helpers_match_their_definitions():
    """For every den <= 60 and num in -2*den..2*den, normalized_num is the
    r in 0..den-1 with den | num - r, and index the greatest common
    divisor of r and den, both found by search."""
    for den in range(1, 61):
        divisors = [d for d in range(den, 0, -1) if den % d == 0]
        for num in range(-2 * den, 2 * den + 1):
            rest = next(r for r in range(den) if (num - r) % den == 0)
            index = next(d for d in divisors if rest % d == 0)
            invariant = LocalInvariant(num, den)
            assert (invariant.normalized_num, invariant.index) == (rest, index), (num, den)


def _multiset_canonical(kind, cones, corners):
    """Each multiset of indices, less its index-1 entries, listed in order."""
    def listed(entries):
        counts = Counter(entries)
        del counts[1]
        return tuple(sorted(counts.elements()))
    return kind, listed(cones), listed(corners)


def test_canonical_base_matches_sorted_multisets():
    """canonical() and normalized() on every base with up to three cone
    points and, on a disc, up to three corner reflectors of index 1..4."""
    tuples = [t for k in range(4) for t in itertools.product(range(1, 5), repeat=k)]
    count = 0
    for kind in (SPHERE, DISC, PROJECTIVE):
        for cones in tuples:
            for corners in tuples if kind == DISC else [()]:
                base = BaseSignature(kind, cones, corners)
                expected = _multiset_canonical(kind, cones, corners)
                assert base.canonical() == expected, base
                normalized = base.normalized()
                assert (normalized.kind, normalized.cones, normalized.corners) == expected
                count += 1
    assert count == 85 * 85 + 2 * 85


def _fraction_fiber_sum(euler, invariants, xi):
    """euler + xi/2 + each cone invariant num/den + half of each corner
    one, the latter as the fractional part of num/den, in Fractions."""
    total = euler + Fraction(xi, 2)
    for v in invariants:
        value = Fraction(v.num, v.den)
        total += value if v.location == CONE else (value - math.floor(value)) / 2
    return total


def test_fiber_sum_matches_a_fraction_sum():
    """_fiber_sum(euler, invariants, xi) is (total, 2L) with total/(2L)
    the Fraction sum and L the lcm of the denominators, for every Euler
    number a/b with |a| <= 4, b <= 4, every list of at most two
    invariants num/den with -2 <= num <= 3, den <= 4 at a cone or a
    corner, and xi in 0, 1."""
    eulers = sorted({Fraction(a, b) for a in range(-4, 5) for b in range(1, 5)})
    invariants = [LocalInvariant(num, den, loc) for loc in (CONE, CORNER)
                  for den in range(1, 5) for num in range(-2, 4)]
    lists = [c for k in range(3) for c in itertools.combinations_with_replacement(invariants, k)]
    for euler in eulers:
        for chosen in lists:
            lcm = math.lcm(euler.denominator, *[v.den for v in chosen])
            for xi in (0, 1):
                total, den = _fiber_sum(euler, chosen, xi)
                assert den == 2 * lcm
                assert Fraction(total, den) == _fraction_fiber_sum(euler, chosen, xi), \
                    (euler, chosen, xi)
