"""What the oracle and the sweep share with the engine, and references for it.

`oracle` rebuilds the invariants from group data and `verify` compares
them with the engine's; a fault in a helper both sides call moves both
sides together and passes every comparison.  So the engine names the
two modules import are pinned to an allowlist, and each shared helper
with arithmetic of its own is checked here against a brute-force
reference over a complete small domain.
"""

import ast
import math
from pathlib import Path

import pytest

import orbiseif
from orbiseif.engine import (
    LENS,
    THREE_SPHERE,
    InternalInconsistencyError,
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


@pytest.mark.parametrize("module", ["oracle", "verify"])
def test_engine_names_outside_the_engine_are_allowlisted(module):
    names = _engine_imports(module)
    assert names, module
    assert names <= SHARED_ENGINE_NAMES, sorted(names - SHARED_ENGINE_NAMES)


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
