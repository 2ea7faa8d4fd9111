"""Result records, family specs and built groups: their construction
checks, the shape of the spec and group records, and no assignment after
construction anywhere in the package.

The result records, `FamilySpec` and `PairGroup` are slotted dataclasses
without `frozen`, so nothing at run time refuses `record.field = value`;
the AST scan below refuses it statically instead."""

import ast
import pathlib
import tracemalloc
from fractions import Fraction

import pytest

import orbiseif
from orbiseif.engine import (
    CONE,
    CORNER,
    DISC,
    PROJECTIVE,
    SPHERE,
    BaseSignature,
    LocalInvariant,
    SeifertData,
)
from orbiseif.groups import FamilySpec, StandardGroupId, enumerate_specs, goursat_group
from test_oracle import _run_optimized

# Each expression breaks one rule a record checks when it is built.
INVALID_RECORDS = [
    "BaseSignature('torus')",
    "BaseSignature(SPHERE, (2,), (3,))",
    "BaseSignature(PROJECTIVE, (), (2,))",
    "LocalInvariant(1, 0)",
    "LocalInvariant(1, -2)",
    "LocalInvariant(1, 2, 'edge')",
    "SeifertData(BaseSignature(DISC), (), Fraction(-1, 2))",
    "SeifertData(BaseSignature(SPHERE), (), Fraction(-1), 0)",
    "SeifertData(BaseSignature(PROJECTIVE), (), Fraction(-1), 1)",
    "SeifertData(BaseSignature(DISC), (), Fraction(-1, 2), 2)",
    "StandardGroupId('Q', 4)",
    "StandardGroupId('D', 6)",
    "StandardGroupId('T', 48)",
    "StandardGroupId('I', 60)",
]

NAMESPACE = {"BaseSignature": BaseSignature, "LocalInvariant": LocalInvariant,
             "SeifertData": SeifertData, "StandardGroupId": StandardGroupId,
             "Fraction": Fraction, "SPHERE": SPHERE, "DISC": DISC,
             "PROJECTIVE": PROJECTIVE}


@pytest.mark.parametrize("expression", INVALID_RECORDS)
def test_invalid_record_is_refused(expression):
    with pytest.raises(ValueError):
        eval(expression, NAMESPACE)


def test_valid_records_are_built():
    disc = BaseSignature(DISC, (3,), (2, 2))
    assert SeifertData(disc, (LocalInvariant(1, 3, CONE),
                              LocalInvariant(1, 2, CORNER)),
                       Fraction(-1, 6), 1).xi == 1
    assert SeifertData(BaseSignature(SPHERE), (), Fraction(-1)).xi is None
    assert str(StandardGroupId("D", 8)) == "D*8"


def test_record_checks_survive_python_optimize():
    script = (
        "import sys\n"
        "from fractions import Fraction\n"
        "from orbiseif.engine import (DISC, PROJECTIVE, SPHERE, BaseSignature,\n"
        "                             LocalInvariant, SeifertData)\n"
        "from orbiseif.groups import StandardGroupId\n"
        "if __debug__:\n"
        "    sys.exit('not running under -O')\n"
        f"for expression in {INVALID_RECORDS!r}:\n"
        "    try:\n"
        "        eval(expression)\n"
        "    except ValueError:\n"
        "        continue\n"
        "    sys.exit(f'{expression} was built')\n")
    proc = _run_optimized("-c", script)
    assert proc.returncode == 0, proc.stderr


# ---------------------------------------------------------------------------
# the spec and group records
# ---------------------------------------------------------------------------

def test_spec_is_slotted_and_keeps_its_text():
    spec = FamilySpec("1", 1, 3, 4, 1)
    assert not hasattr(spec, "__dict__")
    assert repr(spec) == "FamilySpec(family='1', m=1, n=3, r=4, s=1)"
    assert str(spec) == "1(m=1,n=3,r=4,s=1)"
    assert str(FamilySpec("8", m=1)) == "8(m=1)"
    assert FamilySpec("8", m=1).params() == {"m": 1}


def test_specs_are_equal_and_hashed_by_value():
    first = FamilySpec("11p", m=1, n=3, r=4, s=1)
    second = FamilySpec("11p", 1, 3, 4, 1)
    other = FamilySpec("11p", m=1, n=3, r=4, s=3)
    assert first is not second and first == second != other
    assert hash(first) == hash(second)
    assert {first: "a"}[second] == "a"
    assert {first, second, other} == {second, other}


def test_built_group_is_slotted():
    """A built group holds its factor ids, its lattice or coset data and
    its order, and no instance dict to hang a derived view on."""
    for spec in (FamilySpec("1", 1, 3, 4, 1), FamilySpec("8", m=1)):
        group = goursat_group(spec)
        assert not hasattr(group, "__dict__")
        assert (group.lattice is None) != (group.gluing is None)


# On CPython 3.11 the rows of enumerate_specs(240) take 138.8 bytes each
# with slotted specs and 178.8 with frozen ones, which carry a __dict__.
ENUMERATE_BYTES_PER_ROW = 146


def test_enumerated_rows_stay_small():
    enumerate_specs(8)  # whatever a first call sets up is not per row
    tracemalloc.start()
    try:
        rows = enumerate_specs(240)
        allocated, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert allocated / len(rows) < ENUMERATE_BYTES_PER_ROW


# ---------------------------------------------------------------------------
# no attribute store outside the constructors that need one
# ---------------------------------------------------------------------------

# (module, enclosing function, stored attribute or setter)
ALLOWED_STORES = {
    # a built group reads its order off its lattice or coset data once
    ("groups.py", "PairGroup.__post_init__", "self.order"),
    # the hand-written slotted value class fills its slots once (a field
    # element is a tuple and stores no attribute)
    *(("quaternions.py", "AlgebraicQuaternion.__init__", f"self.{name}")
      for name in ("w", "x", "y", "z", "_key")),
}

_SETTERS = {"setattr", "delattr", "__setattr__", "__delattr__"}


def attribute_stores(source: str, module: str):
    """(module, enclosing qualified name, target) of every attribute
    assignment or deletion and every setattr-style call in `source`."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, (ast.Store, ast.Del)):
            found.append((module, scope, ast.unparse(node)))
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in _SETTERS:
                found.append((module, scope, ast.unparse(func)))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source, module), "")
    return found


def test_attribute_store_scan_sees_every_form():
    source = ("def f(report, name):\n"
              "    report.seifert = None\n"
              "    report.a, (report.b, x) = 1, (2, 3)\n"
              "    report.count += 1\n"
              "    del report.topology\n"
              "    for report.i in range(2):\n"
              "        pass\n"
              "    setattr(report, name, 1)\n"
              "    object.__setattr__(report, name, 1)\n")
    assert [target for _, _, target in attribute_stores(source, "m.py")] == [
        "report.seifert", "report.a", "report.b", "report.count",
        "report.topology", "report.i", "setattr", "object.__setattr__"]


def test_no_attribute_is_assigned_after_construction():
    """Only the allowlisted places store attributes, and each of them
    still does (else the scan, or the list, is stale)."""
    package = pathlib.Path(orbiseif.__file__).parent
    found = set()
    for path in sorted(package.glob("*.py")):
        found.update(attribute_stores(path.read_text(), path.name))
    assert found == ALLOWED_STORES
