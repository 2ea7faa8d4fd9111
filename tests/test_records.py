"""Result records, family specs and built groups: their construction
checks, the shape of the spec and group records, and no assignment after
construction anywhere in the package.

Every record is a plain slotted class on `record.Record`, except
`SeifertData` and `EngineReport`, slotted dataclasses without `frozen`;
so nothing at run time refuses `record.field = value`, and the AST scan
below refuses it statically instead."""

import ast
import copy
import importlib
import pathlib
import tracemalloc
from fractions import Fraction

import pytest

import orbiseif
from orbiseif import engine, groups, oracle
from orbiseif.engine import (
    CONE,
    CORNER,
    DISC,
    PROJECTIVE,
    SPHERE,
    BaseSignature,
    EngineReport,
    LocalInvariant,
    SeifertData,
)
from orbiseif.groups import FamilySpec, StandardGroupId, enumerate_specs, goursat_group
from orbiseif.quaternions import PairElement, quat_rational
from orbiseif.record import Record
from orbiseif.verify import compare_spec
from test_oracle import _run_optimized, _run_python

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


# ---------------------------------------------------------------------------
# what a fresh process pays for the records
# ---------------------------------------------------------------------------

PACKAGE = pathlib.Path(orbiseif.__file__).parent


def _package_classes() -> set:
    classes = set()
    for path in PACKAGE.glob("*.py"):
        module = importlib.import_module(f"orbiseif.{path.stem}")
        classes.update(c for c in vars(module).values()
                       if isinstance(c, type) and c.__module__ == module.__name__)
    return classes


def _one_of_each_record() -> list:
    spec, gluing_spec = FamilySpec("1", 1, 3, 4, 1), FamilySpec("8", m=1)
    report = engine.evaluate(spec)
    lattice_group, gluing_group = goursat_group(spec), goursat_group(gluing_spec)
    gluing_data = groups.get_family("8").goursat(gluing_spec)
    base = oracle.base_group(lattice_group)
    one = quat_rational(1, 0, 0, 0)
    return [
        report, report.seifert, report.seifert.base, report.seifert.invariants[0],
        report.topology, engine._derived_quantities_cached(spec),
        spec, groups.get_family("1"), gluing_data, gluing_data.right,
        lattice_group, lattice_group.lattice, gluing_group.gluing,
        groups._polyhedral_quotient(gluing_data.right, gluing_data.right_kernel),
        enumerate_specs(8)[0], base, base.orbits[0],
        next(iter(oracle._coset_axes(gluing_group.gluing)[1].values())),
        oracle.oracle_report(lattice_group), PairElement(one, one), compare_spec(spec),
    ]


# mutable results, unhashable as their dataclasses were
UNHASHABLE = {"PairGroup", "BaseActionGroup", "_CosetAxes", "ComparisonResult"}


def test_only_the_replaced_reports_are_dataclasses():
    """Defining a dataclass compiles its generated methods, which every
    fresh process without cached bytecode pays at import; only the two
    reports that callers rebuild with dataclasses.replace are dataclasses,
    and every other record is a Record."""
    classes = _package_classes()
    assert {c for c in classes if "__dataclass_fields__" in vars(c)} == \
        {SeifertData, EngineReport}
    records = {c for c in classes if issubclass(c, Record) and c is not Record}
    assert len(records) == 19
    assert {type(r) for r in _one_of_each_record()} == records | {SeifertData, EngineReport}


@pytest.mark.parametrize("record", _one_of_each_record(), ids=lambda r: type(r).__name__)
def test_record_is_slotted_shown_and_compared_by_value(record):
    """No instance dict; the text Name(field=value, ...) over the slots;
    a copy is equal, with an equal hash; a tuple of the same values
    is not equal; the four mutable results refuse hash()."""
    names = type(record).__slots__
    values = tuple(getattr(record, name) for name in names)
    assert not hasattr(record, "__dict__")
    fields = ", ".join(f"{name}={value!r}" for name, value in zip(names, values))
    assert repr(record) == f"{type(record).__name__}({fields})"
    twin = copy.copy(record)
    assert twin is not record and twin == record and not twin != record
    assert record != values and values != record
    if type(record).__name__ in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(twin) == hash(record)


def test_importing_the_package_loads_no_typing():
    """The modules annotate with `X | None` under postponed evaluation, so
    the import brings in no `typing`.  `-S` keeps out the site packages,
    whose .pth files may import it themselves."""
    proc = _run_python("-S", "-c", "import sys\n"
                       "import orbiseif, orbiseif.cli, orbiseif.verify\n"
                       "print(sorted(m for m in ('typing', 'orbiseif.cli') "
                       "if m in sys.modules))\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "['orbiseif.cli']\n"


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

def _init_stores(module: str, cls: str, names: str) -> set:
    return {(module, f"{cls}.__init__", f"self.{name}") for name in names.split()}


# (module, enclosing function, stored attribute or setter)
ALLOWED_STORES = {
    # each record's constructor fills its slots once; there a built group
    # also reads its order off its lattice or coset data, and a catalog
    # family whether it has a builder (a field element is a tuple and
    # stores no attribute)
    *_init_stores("engine.py", "BaseSignature", "kind cones corners"),
    *_init_stores("engine.py", "LocalInvariant", "num den location"),
    *_init_stores("engine.py", "DerivedQuantities",
                  "h m_prime n_prime a b1 b2 nu d g e f_bar e1 e2"),
    *_init_stores("engine.py", "TopologyReport",
                  "underlying p q reason singular_components"),
    *_init_stores("groups.py", "StandardGroupId", "kind order"),
    *_init_stores("groups.py", "FamilySpec", "family m n r s"),
    *_init_stores("groups.py", "GoursatData",
                  "left left_kernel right right_kernel phi_generators"),
    *_init_stores("groups.py", "Family",
                  "name params phi_order goursat label odd even above_one fibered"),
    *_init_stores("groups.py", "RotationLattice", "h11 h12 h22 offsets"),
    *_init_stores("groups.py", "CosetGluing", "period dihedral offsets right_cosets"),
    *_init_stores("groups.py", "PairGroup", "spec grid left left_kernel right "
                  "right_kernel lattice gluing order"),
    *_init_stores("groups.py", "_Quotient", "coset_of cosets table identity minus_one"),
    *_init_stores("groups.py", "EnumeratedSpec", "spec phi_order fibered"),
    *_init_stores("oracle.py", "SingularOrbit", "rotation_order corner position"),
    *_init_stores("oracle.py", "BaseActionGroup", "order signature orbits"),
    *_init_stores("oracle.py", "_CosetAxes", "classes turns"),
    *_init_stores("oracle.py", "OracleReport", "seifert topology"),
    *_init_stores("quaternions.py", "AlgebraicQuaternion", "w x y z _key"),
    *_init_stores("quaternions.py", "PairElement", "left right"),
    *_init_stores("verify.py", "ComparisonResult", "spec differences"),
    # the record base reads each record's field getter off its slots once
    ("record.py", "Record.__init_subclass__", "cls._values"),
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
